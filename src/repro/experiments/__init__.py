"""Experiment runners reproducing every table and figure of the
dissertation's evaluation, declared as one grid in :mod:`.grid` (see
DESIGN.md for the experiment index)."""

from . import chapter2, chapter3, chapter4
from .datasets import (
    Chapter2Dataset,
    Chapter3Dataset,
    chapter2_datasets,
    chapter2_genomes,
    chapter3_datasets,
    chapter4_samples,
    wrong_illumina_model,
)

__all__ = [
    "chapter2",
    "chapter3",
    "chapter4",
    "Chapter2Dataset",
    "Chapter3Dataset",
    "chapter2_datasets",
    "chapter2_genomes",
    "chapter3_datasets",
    "chapter4_samples",
    "wrong_illumina_model",
]
