"""Hybrid corrector: REDEEM's repeat model feeding Reptile's tiling.

The thesis's Sec. 3.4.2 discussion proposes exactly this: 'It is also
possible to combine the features of a conventional error correction
method such as Reptile with the explicit modeling of repeats as done
in REDEEM to produce an error-correction method that is superior both
when sampling low repeat and highly-repetitive genomes.'

The combination staged here:

1. **REDEEM pass** — fit the EM attempt estimates and correct the
   reads by posterior vote.  This resolves the repeat-regime errors
   (erroneous k-mers at moderate observed frequency) that confuse
   count-threshold methods.
2. **Reptile pass** — rebuild spectra/tiles from the REDEEM-corrected
   reads and run the tiling walk.  This applies the contextual,
   quality-aware correction that dominates in the low-repeat regime
   and cleans up what the k-mer-local posterior vote cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import telemetry
from ..io.readset import ReadSet
from .redeem.corrector import RedeemCorrector
from .redeem.error_model import KmerErrorModel
from .reptile.corrector import ReptileCorrector


@dataclass
class HybridResult:
    """Corrected reads plus both stages' bookkeeping."""

    reads: ReadSet
    redeem_stats: dict
    reptile_bases_changed: int


class HybridCorrector:
    """REDEEM-then-Reptile staged correction."""

    def __init__(
        self,
        redeem: RedeemCorrector,
        reptile_kwargs: dict | None = None,
    ):
        self.redeem = redeem
        self.reptile_kwargs = dict(reptile_kwargs or {})
        self.reptile: ReptileCorrector | None = None

    @classmethod
    def fit(
        cls,
        reads: ReadSet,
        k_redeem: int,
        error_model: KmerErrorModel | None = None,
        dmax: int = 1,
        **reptile_kwargs,
    ) -> "HybridCorrector":
        """Fit the REDEEM stage; the Reptile stage is fit lazily on the
        REDEEM-corrected reads inside :meth:`run` (its spectra must
        reflect stage 1's output)."""
        redeem = RedeemCorrector.fit(
            reads, k=k_redeem, error_model=error_model, dmax=dmax
        )
        return cls(redeem=redeem, reptile_kwargs=reptile_kwargs)

    def run(self, reads: ReadSet) -> HybridResult:
        with telemetry.span("hybrid.redeem_pass"):
            stage1, stats = self.redeem.correct_with_stats(reads)
        with telemetry.span("hybrid.reptile_fit"):
            self.reptile = ReptileCorrector.fit(stage1, **self.reptile_kwargs)
        with telemetry.span("hybrid.reptile_pass"):
            result = self.reptile.run(stage1)
        return HybridResult(
            reads=result.reads,
            redeem_stats=stats,
            reptile_bases_changed=result.stats.bases_changed,
        )

    def correct(self, reads: ReadSet) -> ReadSet:
        return self.run(reads).reads
