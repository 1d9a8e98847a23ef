"""RedeemCorrector — public API of Chapter 3.

Typical use::

    from repro.core.redeem import RedeemCorrector, uniform_kmer_error_model

    model = uniform_kmer_error_model(k=13, pe=0.006)       # or tIED/wIED
    corr = RedeemCorrector.fit(reads, k=13, error_model=model)
    flagged = corr.detect()                                 # k-mer calls
    corrected = corr.correct(reads)                         # ReadSet

:meth:`fit` builds the k-spectrum, the misread matrix over observed
Hamming neighborhoods, and runs the EM for the attempt estimates ``T``.
Detection thresholds default to the mixture-model inference of
Sec. 3.7, overridable with an explicit value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ... import telemetry
from ...io.readset import ReadSet
from ...kmer.spectrum import KmerSpectrum, spectrum_from_reads
from ..api import ChunkedCorrectorMixin
from ..hotpath import PREFILTER_FP_RATE
from .correct import correct_reads, flag_suspicious_reads
from .em import RedeemModel, estimate_attempts
from .error_model import KmerErrorModel, uniform_kmer_error_model
from .threshold import MixtureFit, infer_threshold


@dataclass
class RedeemCorrector(ChunkedCorrectorMixin):
    """Repeat-aware detector/corrector around a fitted :class:`RedeemModel`."""

    model: RedeemModel
    error_model: KmerErrorModel
    dmax: int
    #: Cached ``(detection_threshold, mixture_fit)`` — the mixture
    #: inference is a pure function of the fitted T, so one computation
    #: serves every correction chunk (and every parallel worker agrees).
    _threshold_cache: tuple[float, MixtureFit] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def fit(
        cls,
        reads: ReadSet,
        k: int,
        error_model: KmerErrorModel | None = None,
        dmax: int = 1,
        max_iter: int = 50,
        both_strands: bool = False,
        spectrum: KmerSpectrum | None = None,
        use_quality_weights: bool = False,
    ) -> "RedeemCorrector":
        """Build the spectrum and run the EM.

        The spectrum defaults to single-strand counting so every read
        k-mer is guaranteed an entry (REDEEM's Y are raw observed
        occurrences).  ``error_model`` defaults to a uniform model at
        a 1% rate when not given.  ``use_quality_weights`` replaces Y
        with quality-weighted q-mer counts (Chapter 5 extension),
        ignored when the reads carry no scores.

        The Bloom prefilter is attached to the spectrum before the EM
        so the misread-matrix adjacency build (the ``index_of`` storm
        over every candidate neighborhood) rides it.
        """
        if error_model is None:
            error_model = uniform_kmer_error_model(k, 0.01)
        observed = None
        with telemetry.span("redeem.spectrum", k=k):
            if use_quality_weights and reads.quals is not None:
                from .qspectrum import weighted_spectrum_from_reads

                spectrum, observed = weighted_spectrum_from_reads(
                    reads, k, both_strands=both_strands
                )
            elif spectrum is None:
                spectrum = spectrum_from_reads(
                    reads, k, both_strands=both_strands
                )
        spectrum = spectrum.with_prefilter(PREFILTER_FP_RATE)
        with telemetry.span("redeem.em", dmax=dmax, max_iter=max_iter):
            model = estimate_attempts(
                spectrum,
                error_model,
                dmax=dmax,
                max_iter=max_iter,
                observed_counts=observed,
            )
        return cls(model=model, error_model=error_model, dmax=dmax)

    # -- attempt estimates ----------------------------------------------
    @property
    def T(self) -> np.ndarray:
        return self.model.T

    @property
    def Y(self) -> np.ndarray:
        return self.model.Y

    @property
    def spectrum(self) -> KmerSpectrum:
        return self.model.spectrum

    # -- detection -------------------------------------------------------
    def infer_threshold(self, group_range: range = range(1, 4)) -> tuple[float, MixtureFit]:
        """Mixture-model threshold on T (Sec. 3.7); cached for the
        default group range."""
        if group_range == range(1, 4):
            if self._threshold_cache is None:
                self._threshold_cache = infer_threshold(
                    self.T, group_range=group_range
                )
            return self._threshold_cache
        return infer_threshold(self.T, group_range=group_range)

    def detect(self, threshold: float | None = None) -> np.ndarray:
        """Boolean per-spectrum-k-mer call: flagged erroneous iff
        ``T < threshold`` (threshold inferred when omitted)."""
        if threshold is None:
            threshold, _ = self.infer_threshold()
        return self.T < threshold

    # -- correction --------------------------------------------------------
    def correct(
        self,
        reads: ReadSet,
        liberal_threshold: float | None = None,
    ) -> ReadSet:
        """Posterior-vote correction of suspicious reads (Sec. 3.3).

        ``liberal_threshold`` defaults to half the estimated
        single-copy coverage peak — liberal enough to screen in any
        read containing a low-support k-mer.
        """
        corrected, _ = self.correct_with_stats(reads, liberal_threshold)
        return corrected

    def correct_with_stats(
        self,
        reads: ReadSet,
        liberal_threshold: float | None = None,
    ) -> tuple[ReadSet, dict]:
        thr, fit = self.infer_threshold()
        if liberal_threshold is None:
            liberal_threshold = max(thr, 0.5 * fit.coverage_peak)
        flags = flag_suspicious_reads(self.model, reads, liberal_threshold)
        corrected, n_changed = correct_reads(
            self.model,
            reads,
            liberal_threshold,
            detection_threshold=thr,
        )
        return corrected, {
            "liberal_threshold": float(liberal_threshold),
            "detection_threshold": float(thr),
            "n_flagged_reads": int(flags.sum()),
            "n_bases_changed": int(n_changed),
        }

    def correct_chunk(self, reads: ReadSet) -> tuple[ReadSet, dict]:
        """Correct one batch of reads; the per-chunk unit of the
        parallel engine.

        Thresholds come from the (cached) whole-model mixture fit and
        the posterior of each spectrum k-mer is independent of which
        other k-mers a chunk requests, so chunked output is bitwise
        identical to a whole-set :meth:`correct`.
        """
        thr, fit = self.infer_threshold()
        liberal = max(thr, 0.5 * fit.coverage_peak)
        flags = flag_suspicious_reads(self.model, reads, liberal)
        corrected, n_changed = correct_reads(
            self.model, reads, liberal, detection_threshold=thr
        )
        return corrected, {
            "flagged_reads": int(flags.sum()),
            "bases_changed": int(n_changed),
        }
