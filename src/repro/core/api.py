"""The formal Corrector API: one protocol, one method registry.

Every error-correction method in the repo — Reptile, REDEEM, the
hybrid, and the SHREC/SAP baselines — is exposed through the same
surface, so the parallel engine, the CLIs, and the benchmarks can
treat them interchangeably:

- :class:`Corrector` — the minimal protocol: ``correct(reads)``;
- :class:`ChunkedCorrector` — additionally ``correct_chunk`` /
  ``correct_parallel`` (per-read-independent correction the parallel
  engine can split at any boundary);
- :class:`ChunkedCorrectorMixin` — default implementations of
  ``correct_read`` / ``correct_chunk`` / ``correct_parallel`` for
  correctors whose ``correct`` is already per-read independent;
- :func:`build_corrector` — the registry-backed factory that replaces
  the per-method branching previously hardcoded in
  ``tools/correct.py``; new methods plug in via
  :func:`register_corrector` without touching any CLI.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..io.readset import ReadSet


@runtime_checkable
class Corrector(Protocol):
    """Anything that can produce a corrected copy of a ReadSet."""

    def correct(self, reads: ReadSet) -> ReadSet: ...


@runtime_checkable
class ChunkedCorrector(Protocol):
    """A corrector whose per-read independence allows chunked and
    parallel execution (drivable by :mod:`repro.parallel`)."""

    def correct(self, reads: ReadSet) -> ReadSet: ...

    def correct_read(self, reads: ReadSet, index: int) -> np.ndarray: ...

    def correct_chunk(self, reads: ReadSet) -> tuple[ReadSet, dict]: ...

    def correct_parallel(self, reads: ReadSet, workers: int = ...,
                         chunk_size: int = ...): ...


class ChunkedCorrectorMixin:
    """Default chunked-API implementations on top of ``correct``.

    Valid only when ``correct`` treats every read independently
    against immutable fitted structures (true for Reptile, REDEEM,
    SHREC, and SAP; *not* for the hybrid, whose second stage refits on
    stage-1 output) — then correcting any subset equals slicing the
    whole-set correction, which is exactly the contract
    :func:`repro.parallel.correct_in_parallel` needs.
    """

    def correct_read(self, reads: ReadSet, index: int) -> np.ndarray:
        """Corrected code row of read ``index`` (padded to max_length)."""
        sub = reads.subset(np.array([index]))
        corrected, _stats = self.correct_chunk(sub)
        return corrected.codes[0]

    def correct_chunk(self, reads: ReadSet) -> tuple[ReadSet, dict]:
        """One batch, returning ``(corrected, stats)``; stats default to
        the number of bases changed."""
        corrected = self.correct(reads)
        changed = int((corrected.codes != reads.codes).sum())
        return corrected, {"bases_changed": changed}

    def correct_parallel(
        self,
        reads: ReadSet,
        workers: int = 1,
        chunk_size: int = 2048,
        policy=None,
    ):
        """Run this corrector through the shared-spectrum parallel
        engine; see :func:`repro.parallel.correct_in_parallel`."""
        from ..parallel import correct_in_parallel

        return correct_in_parallel(
            self,
            reads,
            workers=workers,
            chunk_size=chunk_size,
            policy=policy,
        )


def supports_chunking(corrector) -> bool:
    """True when the corrector exposes the chunked (parallelizable) API."""
    return hasattr(corrector, "correct_chunk")


# -- method registry ----------------------------------------------------------
#: method name -> builder(reads, k, genome_length) -> Corrector
_BUILDERS: dict[str, Callable] = {}


def register_corrector(name: str):
    """Register a corrector builder under a CLI method name."""

    def deco(builder: Callable) -> Callable:
        if name in _BUILDERS:
            raise ValueError(f"corrector {name!r} is already registered")
        _BUILDERS[name] = builder
        return builder

    return deco


def available_methods() -> list[str]:
    return sorted(_BUILDERS)


def build_corrector(
    method: str,
    reads: ReadSet,
    k: int | None = None,
    genome_length: int | None = None,
) -> Corrector:
    """Fit/construct the named corrector on ``reads``.

    ``k`` and ``genome_length`` are interpreted per method (each has a
    sensible default); unknown methods raise ``ValueError`` listing the
    registry.
    """
    try:
        builder = _BUILDERS[method]
    except KeyError:
        raise ValueError(
            f"unknown correction method {method!r}; "
            f"available: {', '.join(available_methods())}"
        ) from None
    return builder(reads, k=k, genome_length=genome_length)


@register_corrector("reptile")
def _build_reptile(reads, k=None, genome_length=None):
    from .reptile import ReptileCorrector

    kwargs = {}
    if k is not None:
        kwargs["k"] = k
    return ReptileCorrector.fit(
        reads, genome_length_estimate=genome_length, **kwargs
    )


@register_corrector("redeem")
def _build_redeem(reads, k=None, genome_length=None):
    from .redeem import RedeemCorrector

    return RedeemCorrector.fit(reads, k=k or 12)


@register_corrector("hybrid")
def _build_hybrid(reads, k=None, genome_length=None):
    from .hybrid import HybridCorrector

    return HybridCorrector.fit(
        reads,
        k_redeem=k or 12,
        genome_length_estimate=genome_length,
    )


@register_corrector("shrec")
def _build_shrec(reads, k=None, genome_length=None):
    from ..baselines.shrec import ShrecCorrector, ShrecParams

    level = (2 * (k or 9) - 1) if k else 17
    return ShrecCorrector(
        reads,
        ShrecParams(
            levels=(level,),
            genome_length=genome_length or 1_000_000,
        ),
    )


@register_corrector("sap")
def _build_sap(reads, k=None, genome_length=None):
    from ..baselines.spectral import SpectralCorrector, SpectralParams

    return SpectralCorrector(reads, SpectralParams(k=k or 12))
