"""The dissertation's three contributions: Reptile, REDEEM, CLOSET."""

from . import closet, redeem, reptile
from .api import (
    ChunkedCorrector,
    ChunkedCorrectorMixin,
    Corrector,
    available_methods,
    build_corrector,
    register_corrector,
    supports_chunking,
)
from .hotpath import TileMemoCache
from .hybrid import HybridCorrector, HybridResult

__all__ = [
    "TileMemoCache",
    "reptile",
    "redeem",
    "closet",
    "HybridCorrector",
    "HybridResult",
    "Corrector",
    "ChunkedCorrector",
    "ChunkedCorrectorMixin",
    "build_corrector",
    "register_corrector",
    "available_methods",
    "supports_chunking",
]
