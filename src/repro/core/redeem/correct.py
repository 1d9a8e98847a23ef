"""REDEEM error correction (Sec. 3.3).

For a nucleotide appearing at position ``t`` of k-mer ``x_l``, the
posterior that the true base was ``b`` is

    pi_t(b) = sum_{m in N(l), x_m[t]=b} T_m pe(x_m -> x_l)
              ------------------------------------------
              sum_{m in N(l)}           T_m pe(x_m -> x_l)

Averaging over all k-mers covering a read position gives the per-base
distribution ``pi(b)``; a base is corrected to ``argmax_b pi(b)`` when
that differs from the observed call.  Reads are screened with a
liberal threshold on T so only suspicious reads pay the full cost.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...io.readset import ReadSet
from ...seq.encoding import kmer_codes_from_reads, valid_kmer_mask
from .em import RedeemModel
from .error_model import kmer_bases


def position_base_posteriors(
    model: RedeemModel,
    kmer_indices: np.ndarray,
    detection_threshold: float | None = None,
) -> np.ndarray:
    """``(len(indices), k, 4)`` posterior base distributions.

    Vectorized over all requested k-mers: one sparse-dense product per
    k-mer position (columns of P restricted to the requested rows of
    Pᵀ, weighted by T, summed per base identity).

    ``pi_t(b)`` substitutes T for the unknown genomic occurrences
    ``alpha_m`` (Sec. 3.3) — and a k-mer *detected* as erroneous has
    ``alpha = 0``, so sources with ``T < detection_threshold`` are
    zeroed out.  Without this an erroneous k-mer's own residual T
    (~1 read attempt) outweighs its genomic neighbors' tiny misread
    probabilities and no base would ever flip.
    """
    k = model.spectrum.k
    kmer_indices = np.asarray(kmer_indices, dtype=np.int64)
    t_eff = model.T
    if detection_threshold is not None:
        t_eff = np.where(model.T < detection_threshold, 0.0, model.T)
    Pt = model.P.T.tocsr()[kmer_indices]  # rows: targets l; cols: sources m
    W = Pt.multiply(t_eff[None, :]).tocsr()  # w_{l,m} = pe(m->l) alpha_m

    bases = kmer_bases(model.spectrum.kmers, k)  # (n, k)
    nl = kmer_indices.size
    out = np.empty((nl, k, 4), dtype=np.float64)
    for t in range(k):
        onehot = np.zeros((model.spectrum.n_kmers, 4), dtype=np.float64)
        onehot[np.arange(model.spectrum.n_kmers), bases[:, t]] = 1.0
        out[:, t, :] = W @ onehot
    sums = out.sum(axis=2, keepdims=True)
    np.divide(out, np.maximum(sums, 1e-300), out=out)
    return out


def flag_suspicious_reads(
    model: RedeemModel, reads: ReadSet, liberal_threshold: float
) -> np.ndarray:
    """Boolean per-read mask: contains any k-mer with T below the
    (liberal) threshold."""
    k = model.spectrum.k
    flags = np.zeros(reads.n_reads, dtype=bool)
    for ln in np.unique(reads.lengths):
        if ln < k:
            continue
        rows = np.flatnonzero(reads.lengths == ln)
        block = reads.codes[rows, :ln]
        valid = valid_kmer_mask(block, k)
        safe = np.where(block < 4, block, 0)
        codes = kmer_codes_from_reads(safe, k)
        idx = model.spectrum.index_of(codes.ravel()).reshape(codes.shape)
        tvals = np.where(idx >= 0, model.T[np.maximum(idx, 0)], 0.0)
        low = (tvals < liberal_threshold) & valid
        flags[rows] = low.any(axis=1)
    return flags


def correct_reads(
    model: RedeemModel,
    reads: ReadSet,
    liberal_threshold: float,
    detection_threshold: float | None = None,
) -> tuple[ReadSet, int, int]:
    """Correct flagged reads by per-base posterior vote.

    ``detection_threshold`` marks which k-mers count as erroneous
    (alpha = 0) when acting as posterior sources; it defaults to the
    liberal screening threshold.  Returns ``(corrected_copy,
    n_bases_changed, n_flagged_reads)``; the flag count is the one
    screening pass per call, so callers never screen again.
    """
    if detection_threshold is None:
        detection_threshold = liberal_threshold
    k = model.spectrum.k
    out = reads.copy()
    flags = flag_suspicious_reads(model, reads, liberal_threshold)
    flagged = np.flatnonzero(flags)
    n_flagged = int(flagged.size)
    if n_flagged == 0:
        return out, 0, 0

    # Collect the distinct k-mers appearing in flagged reads.
    per_read: list[tuple[int, np.ndarray, np.ndarray]] = []
    all_idx: list[np.ndarray] = []
    for i in flagged.tolist():
        ln = int(out.lengths[i])
        if ln < k:
            continue
        codes_row = out.codes[i, :ln]
        valid = valid_kmer_mask(codes_row[None, :], k)[0]
        safe = np.where(codes_row < 4, codes_row, 0)
        codes = kmer_codes_from_reads(safe[None, :], k)[0]
        idx = model.spectrum.index_of(codes)
        idx[~valid] = -1
        per_read.append((i, idx, codes_row))
        all_idx.append(idx[idx >= 0])
    if not all_idx:
        return out, 0, n_flagged
    uniq = np.unique(np.concatenate(all_idx))
    posteriors = position_base_posteriors(
        model, uniq, detection_threshold=detection_threshold
    )
    lookup = {int(v): j for j, v in enumerate(uniq.tolist())}

    n_changed = 0
    for i, idx, codes_row in per_read:
        ln = codes_row.size
        acc = np.zeros((ln, 4), dtype=np.float64)
        cover = np.zeros(ln, dtype=np.int32)
        for w in range(idx.size):
            li = idx[w]
            if li < 0:
                continue
            post = posteriors[lookup[int(li)]]  # (k, 4)
            acc[w : w + k] += post
            cover[w : w + k] += 1
        covered = cover > 0
        if not covered.any():
            continue
        best = acc.argmax(axis=1).astype(np.uint8)
        change = covered & (best != codes_row) & (codes_row < 4)
        # Only flip when the posterior clearly prefers another base.
        if change.any():
            out.codes[i, :ln][change] = best[change]
            n_changed += int(change.sum())
    return out, n_changed, n_flagged
