"""Neighbor retrieval over a k-spectrum: who is within Hamming d of me?

Two classes, two halves of Sec. 2.3:

- :class:`ProbingNeighborIndex` — enumerate the *complete* neighborhood
  of the query and probe the sorted spectrum for each candidate
  (``O(C(k,d) 3^d log |R^k|)`` per query, no extra memory).  It needs
  only ``contains``, so it also serves a spectrum that is not local
  (``distributed.ShardRouter``) and queries absent from the spectrum.
- :class:`PrecomputedNeighborIndex` — the adjacency of *every* spectrum
  k-mer as CSR arrays (the right choice when, as in Reptile/REDEEM, all
  k-mers will be queried anyway), built by Sec. 2.3's masked sort: two
  k-mers within distance ``d`` agree once some ``d`` positions are
  cleared, so sorting the masked copies puts neighbors side by side.

Both return the same answers.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .neighborhood import complete_neighbors
from .spectrum import KmerSpectrum


def xor_patterns(k: int, d: int) -> np.ndarray:
    """All XOR patterns producing codes at Hamming distance 1..d.

    Substituting the base at position ``p`` is XOR-ing its 2-bit group
    with a non-zero delta, so the distance-``<=d`` ball of any code is
    ``code ^ P`` for this fixed pattern set ``P``.
    """
    return complete_neighbors(0, k, d, include_self=False)


class ProbingNeighborIndex:
    """Query-time enumeration + membership probing against a spectrum."""

    def __init__(self, spectrum: KmerSpectrum, d: int):
        self.spectrum = spectrum
        self.k = spectrum.k
        self.d = int(d)
        self._patterns = xor_patterns(self.k, self.d)

    def neighbors(self, code: int, include_self: bool = False) -> np.ndarray:
        """Spectrum k-mers within distance d of ``code`` (sorted)."""
        cand = np.uint64(code) ^ self._patterns
        hits = cand[self.spectrum.contains(cand)]
        if include_self:
            if self.spectrum.contains(np.array([code], dtype=np.uint64))[0]:
                hits = np.append(hits, np.uint64(code))
        return np.sort(hits)

    def neighbors_batch(
        self, codes: np.ndarray, include_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR neighborhoods of many codes in one vectorized pass.

        Returns ``(values, indptr)``: row ``i``'s neighbors are
        ``values[indptr[i]:indptr[i+1]]``, sorted, element-wise equal
        to ``neighbors(codes[i], include_self)``.
        """
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        n = codes.size
        if n == 0:
            return (
                np.empty(0, dtype=np.uint64),
                np.zeros(1, dtype=np.int64),
            )
        cand = codes[:, None] ^ self._patterns[None, :]
        if include_self:
            cand = np.concatenate([cand, codes[:, None]], axis=1)
        hit = self.spectrum.contains(cand)
        counts = hit.sum(axis=1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        values = cand[hit]  # row-major ravel keeps rows contiguous
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((values, rows))
        return values[order], indptr


def _masked_sort_pairs(
    kmers: np.ndarray, k: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered pair of indices into the distinct ``kmers`` whose
    codes are within Hamming distance ``d`` (Sec. 2.3's masked sort).

    For each choice of ``d`` positions, clear those 2-bit groups, sort,
    and pair the members of every run of equal masked codes: they differ
    only inside the cleared positions.  Runs are at most ``4^d`` long, so
    offsets ``1 .. 4^d - 1`` along the sorted order reach every pair.  A
    pair closer than ``d`` is returned once per mask that covers it.
    """
    full = (1 << (2 * k)) - 1
    lo = [np.empty(0, dtype=np.int64)]
    hi = [np.empty(0, dtype=np.int64)]
    for positions in combinations(range(k), min(d, k)):
        keep = full
        for p in positions:
            keep &= ~(3 << (2 * (k - 1 - p)))
        masked = kmers & np.uint64(keep)
        order = np.argsort(masked, kind="stable")
        masked = masked[order]
        for t in range(1, min(4 ** len(positions), kmers.size)):
            same = masked[t:] == masked[:-t]
            if not same.any():
                break
            lo.append(order[:-t][same])
            hi.append(order[t:][same])
    return np.concatenate(lo), np.concatenate(hi)


class PrecomputedNeighborIndex:
    """CSR adjacency of the whole spectrum, built by masked sort.

    ``neighbors_of(i)`` returns spectrum *indices* adjacent to spectrum
    entry ``i``; ``neighbors(code)`` mirrors the probing API.

    Row order is a contract: row ``i`` lists its neighbors in the order
    ``kmers[i] ^ xor_patterns(k, d)`` enumerates them (self first under
    ``include_self``), not by index.  Consumers read rows in that order:
    REDEEM sums floats along them and FreClu's ``argmax`` breaks ties by
    position.
    """

    def __init__(
        self,
        spectrum: KmerSpectrum,
        d: int,
        include_self: bool = False,
    ):
        self.spectrum = spectrum
        self.k = spectrum.k
        self.d = int(d)
        self.include_self = bool(include_self)
        # Queries absent from the spectrum have no CSR row and are
        # answered by probing; the prober shares this build's patterns.
        self._probe = ProbingNeighborIndex(spectrum, d)
        patterns = self._probe._patterns
        kmers = spectrum.kmers
        n = spectrum.n_kmers

        lo, hi = _masked_sort_pairs(kmers, self.k, self.d)
        by_value = np.argsort(patterns)
        rank = by_value[
            np.searchsorted(patterns[by_value], kmers[lo] ^ kmers[hi])
        ]
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        rank = np.concatenate([rank, rank]) + 1
        if include_self:
            loops = np.arange(n, dtype=np.int64)
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
            rank = np.concatenate([rank, np.zeros(n, dtype=np.int64)])
        # One sort orders rows by source then pattern rank and drops the
        # repeats a pair closer than d collects from several masks.
        _, first = np.unique(
            src * (patterns.size + 1) + rank, return_index=True
        )
        self.indices = dst[first]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[first], minlength=n), out=self.indptr[1:])

    @property
    def n_edges(self) -> int:
        """Total adjacency entries (directed; excludes self loops unless
        ``include_self``)."""
        return int(self.indices.size)

    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, i: int) -> np.ndarray:
        """Spectrum indices adjacent to spectrum entry ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def neighbors(self, code: int, include_self: bool = False) -> np.ndarray:
        """Spectrum k-mer codes within distance d of ``code`` (sorted).

        Works for any code, indexed or not: falls back to probing when
        the code itself is absent from the spectrum.
        """
        i = self.spectrum.index_of(np.array([code], dtype=np.uint64))[0]
        if i < 0:
            return self._probe.neighbors(code, include_self=False)
        idx = self.neighbors_of(int(i))
        codes = self.spectrum.kmers[idx]
        if self.include_self and not include_self:
            codes = codes[codes != np.uint64(code)]
        elif include_self and not self.include_self:
            codes = np.append(codes, np.uint64(code))
        return np.sort(codes)

    def neighbors_batch(
        self, codes: np.ndarray, include_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR neighborhoods of many codes via the precomputed adjacency.

        Returns ``(values, indptr)`` with the same per-row contents as
        :meth:`neighbors` — sorted codes, probing fallback for queries
        absent from the spectrum.
        """
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        n = codes.size
        if n == 0:
            return (
                np.empty(0, dtype=np.uint64),
                np.zeros(1, dtype=np.int64),
            )
        qi = self.spectrum.index_of(codes)
        present = qi >= 0
        pi = qi[present]
        lens = self.indptr[pi + 1] - self.indptr[pi]
        total = int(lens.sum())
        if total:
            # Gather every present row's CSR slice in one flat pass.
            offs = np.repeat(np.cumsum(lens) - lens, lens)
            flat = (
                np.arange(total, dtype=np.int64)
                - offs
                + np.repeat(self.indptr[pi], lens)
            )
            vals = self.spectrum.kmers[self.indices[flat]]
            rows = np.repeat(np.flatnonzero(present), lens)
        else:
            vals = np.empty(0, dtype=np.uint64)
            rows = np.empty(0, dtype=np.int64)
        if self.include_self and not include_self:
            keep = vals != codes[rows]
            vals, rows = vals[keep], rows[keep]
        elif include_self and not self.include_self:
            vals = np.concatenate([vals, codes[present]])
            rows = np.concatenate([rows, np.flatnonzero(present)])
        # Absent queries fall back to probing, exactly like neighbors().
        absent = np.flatnonzero(~present)
        if absent.size:
            extra, extra_ptr = self._probe.neighbors_batch(codes[absent])
            vals = np.concatenate([vals, extra])
            rows = np.concatenate([rows, np.repeat(absent, np.diff(extra_ptr))])
        order = np.lexsort((vals, rows))
        vals, rows = vals[order], rows[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return vals, indptr
