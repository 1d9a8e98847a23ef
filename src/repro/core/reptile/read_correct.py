"""Read correction — Algorithm 2: the flexible tiling walk.

A read is traversed 5'→3' by tiles.  Each tile is validated/corrected
by Algorithm 1 (``tile_correct``); on success the next tile shares its
trailing k-mer (whose mutation allowance drops to 0 — it is already
trusted).  On insufficient evidence Reptile does *not* give up on the
read: it first tries an alternative tile placement shifted by one base
(decision D3(a) — a different read decomposition can isolate an error
cluster), and failing that skips past the stubborn region, leaving a
small unvalidated gap (D3(b)).  A second pass runs over the reverse
complement, covering the 3'→5' direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ...seq.distance import kmer_hamming
from ...seq.encoding import pack_kmer, unpack_kmer
from ...kmer.tiles import compose_tile, split_tile
from .params import ReptileParams
from .tile_correct import (
    OUTCOME_VALID,
    Decision,
    apply_tile_rule,
    enumerate_mutant_tiles,
    evaluate_tile,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..hotpath import TileMemoCache


@dataclass
class ReadCorrectionStats:
    """Aggregate statistics of a correction run."""

    tiles_examined: int = 0
    tiles_valid: int = 0
    tiles_corrected: int = 0
    tiles_insufficient: int = 0
    bases_changed: int = 0

    def merge(self, other: "ReadCorrectionStats") -> None:
        self.tiles_examined += other.tiles_examined
        self.tiles_valid += other.tiles_valid
        self.tiles_corrected += other.tiles_corrected
        self.tiles_insufficient += other.tiles_insufficient
        self.bases_changed += other.bases_changed


@dataclass
class TilingContext:
    """Everything the per-read walk needs, prebuilt once per dataset."""

    params: ReptileParams
    #: tile codes -> (Oc, Og) vectorized lookup.
    tile_lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    #: k-mer code -> spectrum neighbors within params.d (excl. self).
    kmer_neighbors: Callable[[int], np.ndarray]
    #: Allow the D3 alternative-placement / skip moves (the ablation
    #: switch: False reduces Reptile to a fixed left-to-right tiling).
    flexible: bool = True
    #: Bounded memo of Algorithm 1 rules keyed by (tile_code, d1, d2);
    #: None evaluates every tile from scratch (the differential
    #: suite's reference walk).
    memo: "TileMemoCache | None" = None


def _candidates(ctx: TilingContext, code: int, allowance: int) -> np.ndarray:
    """Allowed replacements of one constituent k-mer: itself plus its
    spectrum neighbors within ``allowance`` mismatches."""
    self_arr = np.array([code], dtype=np.uint64)
    if allowance <= 0:
        return self_arr
    nb = ctx.kmer_neighbors(int(code))
    if nb.size and allowance < ctx.params.d:
        dist = kmer_hamming(nb, np.full(nb.shape, np.uint64(code)))
        nb = nb[dist <= allowance]
    return np.concatenate([self_arr, nb]) if nb.size else self_arr


def _try_tile(
    codes: np.ndarray,
    quals: np.ndarray | None,
    pos: int,
    d1: int,
    d2: int,
    ctx: TilingContext,
    og_pre: int | None = None,
    code_pre: int | None = None,
):
    """Run Algorithm 1 on the tile starting at ``pos``.

    ``og_pre``/``code_pre`` optionally carry the chunk-precomputed Og
    count and tile code for this window (``og_pre == -1`` marks a
    window containing ambiguous bases); they are only passed while the
    read is still byte-identical to the precomputed chunk matrix, so
    using them is exact.
    """
    p = ctx.params
    tlen = p.tile_length
    a1: int | None = None
    a2: int | None = None
    if og_pre is not None:
        # Precomputed row: og_pre >= 0 iff the window is unambiguous,
        # which is exactly the (window >= 4).any() packability check.
        if og_pre < 0:
            return None
        tile_code = int(code_pre)  # type: ignore[arg-type]
        og_t = int(og_pre)
    else:
        window = codes[pos : pos + tlen]
        if (window >= 4).any():
            return None  # ambiguous/padded bases: cannot even pack
        a1 = pack_kmer(window[: p.k])
        a2 = pack_kmer(window[tlen - p.k :])
        tile_code = compose_tile(a1, a2, p.k, p.overlap)
        _, og_t_arr = ctx.tile_lookup(np.array([tile_code], dtype=np.uint64))
        og_t = int(og_t_arr[0])

    if og_t >= p.cg:
        # Algorithm 1's very first check is og >= cg -> VALID, and
        # candidate enumeration has no side effects, so skipping it
        # here is byte-identical — just much cheaper for the dominant
        # well-supported-tile case.
        return OUTCOME_VALID

    tq = quals[pos : pos + tlen] if quals is not None else None

    if ctx.memo is not None:
        rule = ctx.memo.get((tile_code, d1, d2))
        if rule is not None:
            return apply_tile_rule(rule, tq, p.qm)

    if a1 is None:
        # Constituent k-mers are recoverable from the tile code alone.
        a1, a2 = split_tile(tile_code, p.k, p.overlap)

    cand1 = _candidates(ctx, a1, d1)
    cand2 = _candidates(ctx, a2, d2)
    mutants = enumerate_mutant_tiles(a1, a2, cand1, cand2, p.k, p.overlap)
    if mutants.size:
        _, og_m = ctx.tile_lookup(mutants)
    else:
        og_m = np.empty(0, dtype=np.int64)
    rule = evaluate_tile(
        tile_code=tile_code,
        mutant_tiles=mutants,
        og_tile=og_t,
        og_mutants=og_m,
        tile_length=tlen,
        cg=p.cg,
        cm=p.cm,
        cr=p.cr,
    )
    if ctx.memo is not None:
        ctx.memo.put((tile_code, d1, d2), rule)
    return apply_tile_rule(rule, tq, p.qm)


def valid_walk_positions(length: int, tile_length: int, step: int) -> list[int]:
    """Tile placements visited by an **all-valid** walk over a read.

    Mirrors the success path of :func:`correct_read_one_direction`
    exactly: start at 0, advance by ``step`` after each valid tile,
    clamp to the last full window, stop there.  When every one of
    these windows has ``og >= cg`` the walk provably visits exactly
    this sequence (every tile short-circuits to VALID, so no D3 moves
    and no corrections occur) — which is what lets the batched fast
    path screen whole reads without running the Python loop.
    """
    positions: list[int] = []
    pos = 0
    last = length - tile_length
    while True:
        pos = min(pos, last)
        positions.append(pos)
        if pos == last:
            return positions
        pos += step


def _write_tile(codes: np.ndarray, pos: int, tile_code: int, tlen: int) -> int:
    """Overwrite read bases with a corrected tile; returns #changed."""
    new = unpack_kmer(tile_code, tlen)
    changed = int((codes[pos : pos + tlen] != new).sum())
    codes[pos : pos + tlen] = new
    return changed


def correct_read_one_direction(
    codes: np.ndarray,
    quals: np.ndarray | None,
    ctx: TilingContext,
    validated: np.ndarray | None = None,
    og_row: np.ndarray | None = None,
    code_row: np.ndarray | None = None,
) -> ReadCorrectionStats:
    """One 5'→3' tiling pass over (a mutable copy of) a read.

    When ``validated`` (a boolean array as long as the read) is given,
    positions covered by a validated or corrected tile are marked True
    — the per-base provenance needed to score ambiguous-base
    resolution (Table 2.4).

    ``og_row``/``code_row`` optionally carry the chunk-precomputed
    per-window Og counts and tile codes for this read (from
    :func:`repro.kmer.tiles.tile_og_rows`).  They describe the read
    *as it entered this pass*, so they are consulted only until the
    first in-pass correction dirties the row.
    """
    p = ctx.params
    stats = ReadCorrectionStats()
    tlen = p.tile_length
    L = codes.size
    if L < tlen:
        return stats
    step = p.k - p.overlap

    pos = 0
    d1 = p.d
    fail_streak = 0
    tried: set[tuple[int, int]] = set()
    guard = 0
    max_steps = 4 * L + 16
    clean = og_row is not None and code_row is not None
    while pos <= L - tlen and guard < max_steps:
        guard += 1
        pos = min(pos, L - tlen)
        state = (pos, d1)
        if state in tried:
            # Same placement already attempted: skip the region (D3(b)).
            pos += tlen
            d1 = p.d
            fail_streak = 0
            continue
        tried.add(state)

        if clean:
            outcome = _try_tile(
                codes,
                quals,
                pos,
                d1,
                p.d,
                ctx,
                og_pre=int(og_row[pos]),
                code_pre=int(code_row[pos]),
            )
        else:
            outcome = _try_tile(codes, quals, pos, d1, p.d, ctx)
        stats.tiles_examined += 1
        if outcome is not None and outcome.decision is Decision.VALID:
            stats.tiles_valid += 1
            success = True
        elif outcome is not None and outcome.decision is Decision.CORRECTED:
            stats.tiles_corrected += 1
            stats.bases_changed += _write_tile(
                codes, pos, outcome.new_tile, tlen
            )
            # The read no longer matches the chunk-precomputed rows.
            clean = False
            success = True
        else:
            stats.tiles_insufficient += 1
            success = False

        if success:
            if validated is not None:
                validated[pos : pos + tlen] = True
            fail_streak = 0
            if pos == L - tlen:
                break
            pos = pos + step
            d1 = 0
        elif not ctx.flexible:
            # Fixed-tiling ablation: march on regardless.
            if pos == L - tlen:
                break
            pos = pos + step
            d1 = p.d
        elif fail_streak == 0:
            # D3(a): one alternative decomposition, shifted by a base,
            # with the leading (partially validated) k-mer allowed one
            # mutation.
            fail_streak = 1
            pos = pos + 1
            d1 = max(d1, 1)
        else:
            # D3(b): give up on this region; resume past it with a
            # fresh tile, leaving an unvalidated gap.
            fail_streak = 0
            pos = pos + tlen
            d1 = p.d
    return stats
