"""Reptile parameters and their data-driven selection (Sec. 2.3,
'Choosing Parameters').

Rather than analytic thresholds resting on uniform-coverage /
uniform-error assumptions, Reptile reads its thresholds off the
empirical histograms of the dataset at hand: ``Qc`` from the quality
score distribution, ``Cg``/``Cm`` from the high-quality tile
multiplicity distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ...io.readset import ReadSet


@dataclass(frozen=True)
class ReptileParams:
    """Tunable knobs of the Reptile corrector.

    Attributes mirror the thesis symbols: ``k`` (k-mer size), ``d``
    (max Hamming distance for mutant k-mers), ``overlap`` (l, the
    k-mer overlap inside a tile; tile length is ``2k - overlap``),
    ``cg`` (auto-validation count), ``cm`` (minimum trusted count),
    ``cr`` (required frequency ratio for a correction), ``qc``
    (quality cutoff for Og counting), ``qm`` (a correction must touch
    at least one base with quality below this).
    """

    k: int = 12
    d: int = 1
    overlap: int = 0
    cg: int = 20
    cm: int = 4
    cr: float = 2.0
    qc: int = 20
    qm: int = 30
    #: Ambiguous-base density rule: at most ``max_n_in_window`` Ns per
    #: window of ``n_window`` bases for a read to be N-corrected.
    n_window: int | None = None  # defaults to k
    max_n_in_window: int | None = None  # defaults to d

    @property
    def tile_length(self) -> int:
        return 2 * self.k - self.overlap

    @property
    def effective_n_window(self) -> int:
        return self.k if self.n_window is None else self.n_window

    @property
    def effective_max_n(self) -> int:
        return self.d if self.max_n_in_window is None else self.max_n_in_window

    def __post_init__(self) -> None:
        if not 0 <= self.overlap < self.k:
            raise ValueError("overlap must be in [0, k)")
        if self.tile_length > 31:
            raise ValueError("tile length 2k - overlap must be <= 31")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.cr <= 1.0:
            raise ValueError("cr must exceed 1")


def default_k_for_genome(genome_length: int) -> int:
    """``k = ceil(log4 |G|)`` — the expected-unique-occurrence rule."""
    return max(8, math.ceil(math.log(max(genome_length, 2), 4)))


def select_parameters(
    reads: ReadSet,
    k: int | None = None,
    genome_length_estimate: int | None = None,
    d: int = 1,
    overlap: int = 0,
    quality_fraction: float = 0.175,
    cr: float = 2.0,
) -> ReptileParams:
    """Choose Reptile parameters from an in-memory read set's own
    histograms: :func:`select_parameters_streaming` fed the read set's
    quality histogram and the Og column of its tile table at the
    resulting ``Qc``."""
    from ...kmer.tiles import tile_table_from_reads

    qhist = quality_histogram(reads)

    def selected(tile_og: np.ndarray) -> ReptileParams:
        return select_parameters_streaming(
            qhist,
            tile_og,
            k=k,
            genome_length_estimate=genome_length_estimate,
            d=d,
            overlap=overlap,
            quality_fraction=quality_fraction,
            cr=cr,
        )

    first = selected(np.zeros(0, dtype=np.int64))
    table = tile_table_from_reads(
        reads, k=first.k, overlap=overlap, quality_cutoff=first.qc
    )
    return selected(table.og)


def quality_histogram(reads: ReadSet) -> np.ndarray:
    """Histogram of in-read quality scores (index = score).

    The sufficient statistic behind :func:`select_parameters_streaming`:
    per-chunk histograms simply add, so the Qc/Qm quantiles of a
    dataset larger than memory are recovered exactly.  Returns an
    empty array when the read set has no quality scores.
    """
    if reads.quals is None or reads.n_reads == 0:
        return np.zeros(0, dtype=np.int64)
    cols = np.arange(reads.max_length)[None, :]
    in_read = cols < reads.lengths[:, None]
    return np.bincount(reads.quals[in_read]).astype(np.int64)


def add_histograms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum two bincount histograms of possibly different lengths."""
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return out


def quantile_int_from_histogram(hist: np.ndarray, q: float) -> int:
    """The ``q``-quantile of the values a histogram counts, truncated
    to int.

    Replicates numpy's default linear-interpolation quantile on the
    implied sorted value array (virtual index and lerp formulas
    included) without materializing the per-base score array, so
    per-chunk histograms can simply be summed; the tests hold it equal
    to numpy's own quantile.
    """
    hist = np.asarray(hist, dtype=np.int64)
    n = int(hist.sum())
    if n == 0:
        raise ValueError("empty histogram has no quantiles")
    # numpy's virtual index for the 'linear' method (alpha = beta = 1).
    virtual = n * q + (1.0 - q) - 1.0
    prev = min(max(int(np.floor(virtual)), 0), n - 1)
    nxt = min(prev + 1, n - 1)
    gamma = virtual - np.floor(virtual)
    if virtual < 0:
        gamma = 0.0
    cum = np.cumsum(hist)
    a = float(np.searchsorted(cum, prev, side="right"))
    b = float(np.searchsorted(cum, nxt, side="right"))
    # numpy's _lerp switches formula at t >= 0.5 for fp symmetry.
    if gamma >= 0.5:
        value = b - (b - a) * (1.0 - gamma)
    else:
        value = a + (b - a) * gamma
    return int(value)


def select_parameters_streaming(
    quality_hist: np.ndarray,
    tile_og: np.ndarray,
    k: int | None = None,
    genome_length_estimate: int | None = None,
    d: int = 1,
    overlap: int = 0,
    quality_fraction: float = 0.175,
    cr: float = 2.0,
) -> ReptileParams:
    """Choose Reptile parameters from the dataset's own histograms.

    ``quality_hist`` is the summed :func:`quality_histogram` over all
    chunks: ``quality_fraction`` of bases fall below the chosen ``Qc``
    (score-less data falls back to 'every base correctable').
    ``tile_og`` is the Og column of the *merged* tile table built with
    ``quality_cutoff`` equal to that ``Qc``; ``Cg``/``Cm`` are read off
    its multiplicity histogram (:func:`count_histogram_thresholds`).
    The handshake is two-stage: call once with an empty ``tile_og`` to
    learn ``k`` and ``Qc``, build the table, call again with its Og.
    """
    if k is None:
        if genome_length_estimate is not None:
            k = default_k_for_genome(genome_length_estimate)
        else:
            k = 12
    qc, qm = qc_qm_from_quality_histogram(quality_hist, quality_fraction)
    base = ReptileParams(k=k, d=d, overlap=overlap, qc=qc, qm=qm, cr=cr)
    tile_og = np.asarray(tile_og, dtype=np.int64)
    if tile_og.size:
        cm, cg = count_histogram_thresholds(tile_og)
        base = replace(base, cg=int(cg), cm=int(cm))
    return base


def qc_qm_from_quality_histogram(
    quality_hist: np.ndarray, quality_fraction: float = 0.175
) -> tuple[int, int]:
    """``(Qc, Qm)`` from a quality histogram (score-less data falls
    back to 'everything correctable')."""
    quality_hist = np.asarray(quality_hist, dtype=np.int64)
    if quality_hist.sum() == 0:
        return 0, 1_000_000
    qc = quantile_int_from_histogram(quality_hist, quality_fraction)
    qm = quantile_int_from_histogram(
        quality_hist, min(0.5, 2 * quality_fraction)
    )
    return qc, max(qm, qc + 1)


def count_histogram_thresholds(counts: np.ndarray) -> tuple[int, int]:
    """``(Cm, Cg)`` from the tile multiplicity histogram.

    The Og histogram of a real dataset is bimodal: a spike of
    erroneous tiles at 0–2 occurrences and a coverage peak for genuine
    tiles.  ``Cm`` is placed at the valley between them (a tile below
    Cm is untrusted), ``Cg`` comfortably above the coverage peak (a
    tile that frequent is self-evidently genuine).  Falls back to
    small constants when no bimodal structure is visible (tiny or very
    low-coverage inputs).
    """
    counts = np.asarray(counts, dtype=np.int64)
    hist = np.bincount(counts[counts >= 0])
    if hist.size <= 4:
        return 2, max(4, int(counts.max(initial=4)))
    # Coverage peak: most common multiplicity at >= 3 occurrences.
    peak = int(np.argmax(hist[3:])) + 3
    if peak <= 3:
        return 2, max(4, 2 * peak)
    valley = int(np.argmin(hist[1 : peak + 1])) + 1
    cm = max(2, valley)
    cg = max(cm + 1, int(round(1.5 * peak)))
    return cm, cg
