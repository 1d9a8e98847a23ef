"""Neighbor retrieval over a k-spectrum: who is within Hamming d of me?

Two interchangeable strategies, both described in Sec. 2.3:

- :class:`ProbingNeighborIndex` — enumerate the *complete* neighborhood
  of the query and probe the sorted spectrum for each candidate
  (``O(C(k,d) 3^d log |R^k|)`` per query, no extra memory);
- :class:`MaskedKmerIndex` (see ``masked_index``) — replicated
  chunk-masked sorted copies with range scans;
- :class:`PrecomputedNeighborIndex` — one vectorized batch pass that
  materializes the adjacency for *every* spectrum k-mer as CSR arrays
  (the right choice when, as in Reptile/REDEEM, all k-mers will be
  queried anyway).

All return the same answers; the ablation bench compares their cost.
"""

from __future__ import annotations

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


class PrecomputedNeighborIndex:
    """CSR adjacency of the whole spectrum, built in vectorized chunks.

    ``neighbors_of(i)`` returns spectrum *indices* adjacent to spectrum
    entry ``i``; ``neighbors(code)`` mirrors the probing API.
    """

    def __init__(
        self,
        spectrum: KmerSpectrum,
        d: int,
        include_self: bool = False,
        chunk_rows: int = 65536,
    ):
        self.spectrum = spectrum
        self.k = spectrum.k
        self.d = int(d)
        self.include_self = bool(include_self)
        # Queries absent from the spectrum have no CSR row and are
        # answered by probing; the prober shares this build's patterns.
        self._probe = ProbingNeighborIndex(spectrum, d)
        patterns = self._probe._patterns
        n = spectrum.n_kmers
        m = patterns.size

        indptr = np.zeros(n + 1, dtype=np.int64)
        chunks: list[np.ndarray] = []
        for start in range(0, n, chunk_rows):
            rows = spectrum.kmers[start : start + chunk_rows]
            ball = rows[:, None] ^ patterns[None, :]
            idx = spectrum.index_of(ball.ravel()).reshape(ball.shape)
            hit = idx >= 0
            indptr[start + 1 : start + rows.size + 1] = hit.sum(axis=1)
            # Row-major ravel keeps hits grouped by source row.
            chunks.append(idx[hit].astype(np.int64))
        np.cumsum(indptr, out=indptr)
        self.indptr = indptr
        self.indices = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        if include_self and m:
            self._append_self()

    def _append_self(self) -> None:
        """Insert each node at the head of its own adjacency list."""
        n = self.spectrum.n_kmers
        new_indptr = self.indptr + np.arange(n + 1, dtype=np.int64)
        new_indices = np.empty(int(new_indptr[-1]), dtype=np.int64)
        self_pos = new_indptr[:-1]
        new_indices[self_pos] = np.arange(n, dtype=np.int64)
        rest = np.ones(new_indices.size, dtype=bool)
        rest[self_pos] = False
        new_indices[rest] = self.indices
        self.indptr = new_indptr
        self.indices = new_indices

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
            extra = [
                self._probe.neighbors(int(codes[row]), include_self=False)
                for row in absent.tolist()
            ]
            vals = np.concatenate([vals, *extra])
            rows = np.concatenate(
                [rows, np.repeat(absent, [e.size for e in extra])]
            )
        order = np.lexsort((vals, rows))
        vals, rows = vals[order], rows[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return vals, indptr
