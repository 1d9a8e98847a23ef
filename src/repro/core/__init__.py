"""The dissertation's three contributions: Reptile, REDEEM, CLOSET.

Only Reptile (numpy alone) loads with the package; ``repro.core.redeem``,
``repro.core.closet`` and ``repro.core.hybrid`` pull in scipy and are
imported by whoever uses them (the registry builders in ``api`` do so
lazily).
"""

from . import reptile
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

__all__ = [
    "TileMemoCache",
    "reptile",
    "Corrector",
    "ChunkedCorrector",
    "ChunkedCorrectorMixin",
    "build_corrector",
    "register_corrector",
    "available_methods",
    "supports_chunking",
]
