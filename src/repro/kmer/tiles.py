"""Tiles: l-overlap concatenations of two k-mers (Definition 2.1).

A tile ``t = alpha1 ||_l alpha2`` is a contiguous read substring of
length ``2k - l``, so tile counting is k-mer counting at a longer
width.  For every tile Reptile records two multiplicities (Sec. 2.3):

- ``Oc`` — occurrences in R (both strands);
- ``Og`` — occurrences where *every* base has quality >= Qc, the
  better estimate of error-free support.

``2k - l`` must stay <= 31 so a tile packs into one ``uint64``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..io.readset import ReadSet
from ..seq.encoding import (
    MAX_K,
    kmer_codes_from_reads,
    kmer_mask,
    revcomp_kmer_codes,
    valid_kmer_mask,
)
from .prefilter import MIN_PREFILTER_BATCH, BloomPrefilter


def compose_tile(a: int, b: int, k: int, overlap: int) -> int:
    """Pack two k-mer codes into a tile code; requires that the last
    ``overlap`` bases of ``a`` equal the first ``overlap`` of ``b``."""
    if not 0 <= overlap < k:
        raise ValueError("overlap must be in [0, k)")
    if overlap:
        a_suffix = int(a) & ((1 << (2 * overlap)) - 1)
        b_prefix = int(b) >> (2 * (k - overlap))
        if a_suffix != b_prefix:
            raise ValueError("kmers do not agree on the overlap region")
    return (int(a) << (2 * (k - overlap))) | (
        int(b) & ((1 << (2 * (k - overlap))) - 1)
    )


def split_tile(tile: int, k: int, overlap: int) -> tuple[int, int]:
    """Recover the two constituent k-mer codes of a tile code."""
    tlen = 2 * k - overlap
    a = int(tile) >> (2 * (tlen - k))
    b = int(tile) & kmer_mask(k)
    return a, b


def compose_tiles_batch(
    a: np.ndarray, b: np.ndarray, k: int, overlap: int
) -> np.ndarray:
    """Vectorized :func:`compose_tile` (overlap agreement not checked)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shift = np.uint64(2 * (k - overlap))
    low_mask = np.uint64((1 << (2 * (k - overlap))) - 1)
    return (a << shift) | (b & low_mask)


@dataclass
class TileTable:
    """Sorted tile codes with raw (Oc) and high-quality (Og) counts.

    Like :class:`~repro.kmer.spectrum.KmerSpectrum`, an optional Bloom
    prefilter can front the sorted-array lookup: rejected codes are
    answered ``(0, 0)`` without the binary search, and zero false
    negatives mean attaching one never changes any answer.
    """

    k: int
    overlap: int
    tiles: np.ndarray
    oc: np.ndarray
    og: np.ndarray
    #: Optional Bloom prefilter over ``tiles`` (never affects results).
    prefilter: BloomPrefilter | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def tile_length(self) -> int:
        return 2 * self.k - self.overlap

    @property
    def n_tiles(self) -> int:
        return self.tiles.size

    def __len__(self) -> int:
        return self.n_tiles

    def with_prefilter(self, fp_rate: float = 0.01) -> "TileTable":
        """Copy of this table (sharing its arrays) with a Bloom
        prefilter built over its tile codes; returns ``self`` if one is
        already attached."""
        if self.prefilter is not None:
            return self
        return replace(
            self, prefilter=BloomPrefilter.from_codes(self.tiles, fp_rate)
        )

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(Oc, Og)`` for an array of tile codes (0 absent)."""
        codes = np.asarray(codes, dtype=np.uint64)
        if self.tiles.size == 0:
            # Guard before any indexing: an empty table (e.g. every
            # read shorter than the tile length) must answer 0, not
            # IndexError on tiles[idx_c].
            zeros = np.zeros(codes.shape, dtype=np.int64)
            return zeros, zeros.copy()
        if self.prefilter is not None and codes.size >= MIN_PREFILTER_BATCH:
            maybe = self.prefilter.maybe_contains(codes)
            oc = np.zeros(codes.shape, dtype=np.int64)
            og = np.zeros(codes.shape, dtype=np.int64)
            if np.any(maybe):
                sub = codes[maybe]
                idx = np.searchsorted(self.tiles, sub)
                idx_c = np.minimum(idx, self.tiles.size - 1)
                found = self.tiles[idx_c] == sub
                oc[maybe] = np.where(found, self.oc[idx_c], 0)
                og[maybe] = np.where(found, self.og[idx_c], 0)
            return oc, og
        idx = np.searchsorted(self.tiles, codes)
        idx_c = np.minimum(idx, self.tiles.size - 1)
        found = self.tiles[idx_c] == codes
        oc = np.where(found, self.oc[idx_c], 0)
        og = np.where(found, self.og[idx_c], 0)
        return oc.astype(np.int64), og.astype(np.int64)

    def og_scalar(self, code: int) -> int:
        _, og = self.lookup(np.array([code], dtype=np.uint64))
        return int(og[0])

    def as_dict(self) -> dict[int, tuple[int, int]]:
        """Plain dict ``tile -> (Oc, Og)`` for hot scalar lookups."""
        return {
            int(t): (int(c), int(g))
            for t, c, g in zip(
                self.tiles.tolist(), self.oc.tolist(), self.og.tolist()
            )
        }


def tile_og_rows(
    block: np.ndarray, table: TileTable
) -> tuple[np.ndarray, np.ndarray]:
    """Batched per-window tile codes and Og counts for a code block.

    ``block`` is an ``(n, L)`` matrix of 2-bit base codes (values >= 4
    mark ambiguous bases).  Returns ``(tile_codes, og)``, both of shape
    ``(n, L - tile_length + 1)``: every window position of every row is
    packed and looked up in one vectorized pass.  Windows touching an
    ambiguous base get ``og = -1`` (their tile code is meaningless and
    must not be consulted).

    This is the chunk-level kernel behind the batched tiling walk: the
    scalar path packs and looks up one tile at a time inside the
    per-read Python loop; this computes the same numbers for a whole
    chunk up front.
    """
    tlen = table.tile_length
    block = np.asarray(block)
    n, width = block.shape
    if width - tlen + 1 <= 0:
        return (
            np.empty((n, 0), dtype=np.uint64),
            np.empty((n, 0), dtype=np.int64),
        )
    valid = valid_kmer_mask(block, tlen)
    safe = np.where(block < 4, block, 0)
    codes = kmer_codes_from_reads(safe, tlen)
    _, og = table.lookup(codes)
    og = np.where(valid, og, -1)
    return codes, og


def tile_table_from_reads(
    reads: ReadSet,
    k: int,
    overlap: int = 0,
    quality_cutoff: int = 0,
    both_strands: bool = True,
) -> TileTable:
    """Count all tiles of a read set.

    When the read set has no quality scores, ``Og = Oc`` (the paper's
    fallback for score-less data).
    """
    tlen = 2 * k - overlap
    if not 0 <= overlap < k:
        raise ValueError("overlap must be in [0, k)")
    if tlen > MAX_K:
        raise ValueError(f"tile length {tlen} exceeds packing limit {MAX_K}")

    all_codes: list[np.ndarray] = []
    all_hq: list[np.ndarray] = []
    lengths = reads.lengths
    for ln in np.unique(lengths):
        if ln < tlen:
            continue
        rows = np.flatnonzero(lengths == ln)
        block = reads.codes[rows, :ln]
        valid = valid_kmer_mask(block, tlen)
        safe = np.where(block < 4, block, 0)
        codes = kmer_codes_from_reads(safe, tlen)
        if reads.quals is not None and quality_cutoff > 0:
            lowq = (reads.quals[rows, :ln] < quality_cutoff).astype(np.int32)
            csum = np.zeros((rows.size, ln + 1), dtype=np.int32)
            np.cumsum(lowq, axis=1, out=csum[:, 1:])
            hq = (csum[:, tlen:] - csum[:, :-tlen]) == 0
        else:
            hq = np.ones_like(valid)
        codes = codes[valid]
        hq = hq[valid]
        all_codes.append(codes)
        all_hq.append(hq)
        if both_strands:
            all_codes.append(revcomp_kmer_codes(codes, tlen))
            all_hq.append(hq)

    if all_codes:
        flat = np.concatenate(all_codes)
        flat_hq = np.concatenate(all_hq)
    else:
        flat = np.empty(0, dtype=np.uint64)
        flat_hq = np.empty(0, dtype=bool)

    tiles, inverse, counts = np.unique(
        flat, return_inverse=True, return_counts=True
    )
    og = np.zeros(tiles.size, dtype=np.int64)
    np.add.at(og, inverse[flat_hq], 1)
    return TileTable(
        k=k, overlap=overlap, tiles=tiles, oc=counts.astype(np.int64), og=og
    )
