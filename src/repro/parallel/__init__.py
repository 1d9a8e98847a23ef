"""Parallel batch-correction engine (shared-spectrum workers).

See :mod:`repro.parallel.engine` for the execution model.
"""

from .engine import ParallelRunReport, correct_in_parallel, correct_stream

__all__ = [
    "ParallelRunReport",
    "correct_in_parallel",
    "correct_stream",
]
