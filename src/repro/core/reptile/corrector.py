"""ReptileCorrector — the public API of Chapter 2.

Typical use::

    from repro.core.reptile import ReptileCorrector

    corrector = ReptileCorrector.fit(reads)      # auto parameters
    corrected = corrector.correct(reads)         # ReadSet copy

Phase 1 (information extraction) happens in :meth:`fit`: the
k-spectrum, the precomputed Hamming-neighbor adjacency, and the
quality-gated tile table.  Phase 2 (:meth:`correct`) walks every read
with Algorithm 2 in both directions.  Reads are never stored beyond
their columnar ReadSet; spectra and tiles are sorted arrays, so the
memory footprint follows ``O(|R^k| + |R^{2k-l}|)`` (Sec. 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from ... import telemetry
from ...io.readset import ReadSet
from ...kmer.neighbor_index import PrecomputedNeighborIndex, ProbingNeighborIndex
from ...kmer.spectrum import KmerSpectrum
from ...kmer.tiles import TileTable, tile_og_rows
from ...seq.alphabet import reverse_complement_codes
from ..api import ChunkedCorrectorMixin
from ..hotpath import MEMO_CAPACITY, PREFILTER_FP_RATE, TileMemoCache
from .ambiguous import convert_ambiguous
from .params import (
    ReptileParams,
    add_histograms,
    quality_histogram,
    select_parameters_streaming,
)
from .tile_correct import (
    Decision,
    TileRule,
    enumerate_mutant_tiles_batch,
    evaluate_tiles_batch,
    tile_diff_positions,
)
from .read_correct import (
    ReadCorrectionStats,
    TilingContext,
    correct_read_one_direction,
    valid_walk_positions,
)

#: Most candidate (first, second) constituent pairs one vectorised
#: enumerate -> lookup -> evaluate pass of :meth:`ReptileCorrector.
#: _bulk_rules` may materialise: bounds the walk precompute's
#: temporaries whatever ``d``, coverage or the caller's chunking.
MAX_RULE_PAIRS = 1 << 20


def _rule_valid(rules, codes: np.ndarray, og: np.ndarray) -> np.ndarray:
    """Boolean mask: window is unambiguous and its bulk rule is VALID."""
    utiles, decisions = rules[0], rules[1]
    out = np.zeros(codes.shape, dtype=bool)
    ok = og >= 0
    if utiles.size and ok.any():
        sub = codes[ok]
        idx = np.searchsorted(utiles, sub)
        idx_c = np.minimum(idx, utiles.size - 1)
        found = utiles[idx_c] == sub
        out[ok] = found & (decisions[idx_c] == 0)
    return out


@dataclass
class ReptileResult:
    """Corrected reads plus run statistics."""

    reads: ReadSet
    stats: ReadCorrectionStats
    n_ambiguous_converted: int = 0
    #: Per-base mask of positions covered by a validated/corrected
    #: tile in either direction (None unless requested).
    validated: np.ndarray | None = None


class ReptileCorrector(ChunkedCorrectorMixin):
    """Tile-based error corrector for substitution-dominated short reads."""

    def __init__(
        self,
        params: ReptileParams,
        spectrum: KmerSpectrum,
        tiles: TileTable,
        flexible_tiling: bool = True,
    ):
        # Shallow copies sharing the sorted arrays: callers keeping
        # references to the originals see no mutation.
        spectrum = spectrum.with_prefilter(PREFILTER_FP_RATE)
        tiles = tiles.with_prefilter(PREFILTER_FP_RATE)
        self.params = params
        self.spectrum = spectrum
        self.tiles = tiles
        self.flexible_tiling = flexible_tiling
        # The CSR adjacency is built from the sorted k-mer array, so it
        # needs the whole table in this process; a sharded stand-in
        # (distributed.ShardRouter) only answers membership queries and
        # is probed per query instead.
        if hasattr(spectrum, "kmers"):
            self._index = PrecomputedNeighborIndex(spectrum, params.d)
        else:
            self._index = ProbingNeighborIndex(spectrum, params.d)
        # The memo lives on the instance: forked workers get a
        # copy-on-write snapshot and mutate only their own copy, with
        # counters harvested per chunk (see core/hotpath.py docstring).
        self._memo = TileMemoCache(MEMO_CAPACITY)
        self._ctx = TilingContext(
            params=params,
            tile_lookup=self.tiles.lookup,
            kmer_neighbors=self._index.neighbors,
            flexible=flexible_tiling,
            memo=self._memo,
        )

    # -- construction -------------------------------------------------
    @classmethod
    def fit(
        cls,
        reads: ReadSet,
        params: ReptileParams | None = None,
        genome_length_estimate: int | None = None,
        flexible_tiling: bool = True,
        **param_overrides,
    ) -> "ReptileCorrector":
        """Build all phase-1 structures from a read set: the one-chunk
        case of :meth:`fit_streaming`."""
        corrector, _meta = cls.fit_streaming(
            lambda: (reads,),
            genome_length_estimate=genome_length_estimate,
            params=params,
            flexible_tiling=flexible_tiling,
            **param_overrides,
        )
        return corrector

    @classmethod
    def fit_streaming(
        cls,
        chunks: Callable[[], Iterable[ReadSet]],
        k: int | None = None,
        genome_length_estimate: int | None = None,
        max_memory_bytes: int | None = None,
        tmp_dir=None,
        between_passes: Callable[[], None] | None = None,
        params: ReptileParams | None = None,
        flexible_tiling: bool = True,
        **param_overrides,
    ) -> tuple["ReptileCorrector", dict]:
        """Phase 1 (Sec. 2.3's divide-and-merge): up to two passes over
        ``chunks()``, a factory returning a fresh iterator of read
        chunks each call.

        When ``params`` is None they are selected from the data: pass A
        accumulates the quality histogram that fixes ``k``, ``Qc`` and
        ``Qm``, and ``Cg``/``Cm`` are read off the tile table pass B
        builds at those values.  Keyword overrides (``k`` included)
        land on the selected values via ``dataclasses.replace`` —
        select-then-replace: the thresholds are still chosen at the
        data-driven ``(k, overlap, Qc)``, so an override that changes
        one of those makes pass B tabulate a second, selection-only
        tile table.  Explicit ``params`` skip pass A and the selection.
        ``between_passes`` runs after pass A (the service renews its
        lease there).

        Pass B builds the spectrum and tile table(s) from **one**
        traversal, folded with the balanced merge — or spilled to disk
        when ``max_memory_bytes`` bounds the table memory — so the
        corrector is bitwise identical however the input is chunked.

        Returns ``(corrector, meta)``; ``meta`` carries ``n_reads``,
        ``spill_bytes`` and ``counting_peak_bytes``.
        """
        from ...kmer.streaming import (
            SpectrumAccumulator,
            TileAccumulator,
            build_from_chunks,
        )
        if k is not None:
            param_overrides["k"] = k
        select = params is None
        qhist = np.zeros(0, dtype=np.int64)

        def selected(tile_og: np.ndarray) -> ReptileParams:
            return select_parameters_streaming(
                qhist, tile_og, genome_length_estimate=genome_length_estimate
            )

        if params is None:
            with telemetry.span("reptile.scan"):
                for chunk in chunks():
                    qhist = add_histograms(qhist, quality_histogram(chunk))
            if between_passes is not None:
                between_passes()
            params = selected(np.zeros(0, dtype=np.int64))
        final = replace(params, **param_overrides)

        def tile_accumulator(p: ReptileParams) -> TileAccumulator:
            return TileAccumulator(
                p.k,
                overlap=p.overlap,
                quality_cutoff=p.qc,
                max_memory_bytes=max_memory_bytes,
                tmp_dir=tmp_dir,
            )

        accs = [
            SpectrumAccumulator(
                final.k, max_memory_bytes=max_memory_bytes, tmp_dir=tmp_dir
            ),
            tile_accumulator(final),
        ]
        if select and (
            (params.k, params.overlap, params.qc)
            != (final.k, final.overlap, final.qc)
        ):
            accs.append(tile_accumulator(params))
        n_reads = 0

        def counted() -> Iterator[ReadSet]:
            nonlocal n_reads
            for chunk in chunks():
                n_reads += chunk.n_reads
                yield chunk

        with telemetry.span("reptile.tables", k=final.k):
            results = build_from_chunks(counted(), accs)
        spectrum, tiles, sel_tiles = results[0], results[1], results[-1]
        if select:
            final = replace(selected(sel_tiles.og), **param_overrides)
        # The constructor attaches the Bloom prefilters to the final
        # structures only; a selection-only table never serves lookups
        # and needs none.
        with telemetry.span("reptile.neighbor_index"):
            corrector = cls(final, spectrum, tiles, flexible_tiling)
        return corrector, {
            "n_reads": n_reads,
            "spill_bytes": sum(acc.spill_bytes for acc in accs),
            "counting_peak_bytes": max(acc.peak_bytes for acc in accs),
        }

    # -- batched rule precomputation ----------------------------------
    def _bulk_rules(self, codes: np.ndarray, og: np.ndarray, d1: int):
        """Vectorized Algorithm-1 rules for the unique tiles in ``codes``.

        ``d1`` must be 0 or ``params.d`` (the two mutation allowances a
        canonical walk ever uses); ``og`` rows of -1 (ambiguous
        windows) are dropped.  Returns ``(utiles, decisions, new_tiles,
        gated, uog)`` aligned over the sorted unique tile codes.
        """
        nb_batch = self._index.neighbors_batch
        p = self.params
        keep = og >= 0
        codes, og = codes[keep], og[keep]
        utiles, first = np.unique(codes, return_index=True)
        uog = og[first].astype(np.int64)
        decisions = np.zeros(utiles.size, dtype=np.uint8)
        new_tiles = np.zeros(utiles.size, dtype=np.uint64)
        gated = np.zeros(utiles.size, dtype=bool)
        # og >= cg tiles are VALID outright (and the walk short-circuits
        # them before ever consulting the memo) — evaluate the rest.
        need = uog < p.cg
        if need.any():
            sub = utiles[need]
            a1 = sub >> np.uint64(2 * (p.tile_length - p.k))
            a2 = sub & np.uint64((1 << (2 * p.k)) - 1)
            if d1 > 0:
                nb1_vals, nb1_indptr = nb_batch(a1)
            else:
                nb1_vals = np.empty(0, dtype=np.uint64)
                nb1_indptr = np.zeros(a1.size + 1, dtype=np.int64)
            nb2_vals, nb2_indptr = nb_batch(a2)
            # The cross product below holds ~12 int64/uint64 temporaries
            # per candidate pair, and pairs grow as (neighbours + 1)^2 per
            # tile — 6 x 10^7 for a few thousand reads at d = 2 — so it
            # runs in slabs of at most MAX_RULE_PAIRS pairs (one tile may
            # exceed that alone).  Rules are per tile: slabbing cannot
            # change one.
            where = np.flatnonzero(need)
            uog_sub = uog[where]
            cum = np.cumsum(
                (np.diff(nb1_indptr) + 1) * (np.diff(nb2_indptr) + 1)
            )
            lo = 0
            while lo < sub.size:
                done = int(cum[lo - 1]) if lo else 0
                hi = max(
                    int(np.searchsorted(cum, done + MAX_RULE_PAIRS, "right")),
                    lo + 1,
                )
                tiles = sub[lo:hi]
                s1, s2 = nb1_indptr[lo : hi + 1], nb2_indptr[lo : hi + 1]
                mutants, tidx = enumerate_mutant_tiles_batch(
                    tiles,
                    nb1_vals[s1[0] : s1[-1]], s1 - s1[0],
                    nb2_vals[s2[0] : s2[-1]], s2 - s2[0],
                    p.k, p.overlap,
                )
                _, og_m = self.tiles.lookup(mutants)
                rows = where[lo:hi]
                decisions[rows], new_tiles[rows], gated[rows] = (
                    evaluate_tiles_batch(
                        tiles, uog_sub[lo:hi], mutants, og_m, tidx,
                        p.cg, p.cm, p.cr,
                    )
                )
                lo = hi
        return utiles, decisions, new_tiles, gated, uog

    def _seed_memo(self, rules, d1: int) -> None:
        """Install bulk-evaluated rules into the memo cache.

        Only tiles with ``og < cg`` are stored — the walk never asks
        the memo about short-circuited tiles.  Keys and rule contents
        are exactly what the scalar path would have computed and
        cached on first miss.
        """
        utiles, decisions, new_tiles, gated, uog = rules
        p = self.params
        valid_rule = TileRule(Decision.VALID)
        insuf_rule = TileRule(Decision.INSUFFICIENT)
        d2 = p.d
        store = uog < p.cg
        for t, dec, nt, g in zip(
            utiles[store].tolist(),
            decisions[store].tolist(),
            new_tiles[store].tolist(),
            gated[store].tolist(),
        ):
            if dec == 0:
                rule = valid_rule
            elif dec == 1:
                rule = TileRule(
                    Decision.CORRECTED,
                    new_tile=nt,
                    changed_positions=tile_diff_positions(
                        t, nt, p.tile_length
                    ),
                    quality_gated=g,
                )
            else:
                rule = insuf_rule
            self._memo.put((t, d1, d2), rule)

    # -- correction ---------------------------------------------------
    def correct(self, reads: ReadSet) -> ReadSet:
        """Corrected copy of ``reads`` (convenience over :meth:`run`)."""
        return self.run(reads).reads

    def run(
        self,
        reads: ReadSet,
        handle_ambiguous: bool = True,
        ambiguous_default: int = 0,
        track_validated: bool = False,
    ) -> ReptileResult:
        """Correct every read; both tiling directions (Sec. 2.3).

        The reverse direction is realized by correcting the reverse
        complement of the (already forward-corrected) read — spectra
        and tile tables contain both strands, so lookups agree.
        """
        p = self.params
        # Each run reports its own memo-counter delta (harvested in
        # correct_chunk); drop anything a prior unharvested run on this
        # corrector left pending so deltas never bleed across runs.
        self._memo.reset_counters()
        n_conv = 0
        if handle_ambiguous and reads.has_ambiguous().any():
            reads, conv_mask = convert_ambiguous(
                reads,
                window=p.effective_n_window,
                max_n=p.effective_max_n,
                default_code=ambiguous_default,
            )
            n_conv = int(conv_mask.sum())
        out = reads.copy()
        total = ReadCorrectionStats()
        validated = (
            np.zeros(out.codes.shape, dtype=bool) if track_validated else None
        )
        tlen = p.tile_length
        nwin = max(out.codes.shape[1] - tlen + 1, 0)
        # Chunk-level precompute: per-window tile codes and Og for
        # every read, forward and reverse-complement, in a few
        # vectorized passes (grouped by read length so the RC rows
        # line up with each read's own reversal).  A row describes
        # the read *as it entered the pass*: the forward rows are
        # valid until the forward pass edits the read, the RC rows
        # only if the forward pass left it untouched.
        fw_code = np.zeros((out.n_reads, nwin), dtype=np.uint64)
        fw_og = np.full((out.n_reads, nwin), -1, dtype=np.int64)
        rc_code = np.zeros((out.n_reads, nwin), dtype=np.uint64)
        rc_og = np.full((out.n_reads, nwin), -1, dtype=np.int64)
        fw_allvalid = np.zeros(out.n_reads, dtype=bool)
        rc_allvalid = np.zeros(out.n_reads, dtype=bool)
        walk_tiles = np.zeros(out.n_reads, dtype=np.int64)
        step = p.k - p.overlap
        groups = []
        for ln in np.unique(out.lengths):
            if ln < tlen:
                continue
            rows = np.flatnonzero(out.lengths == ln)
            block = out.codes[rows, :ln]
            w = ln - tlen + 1
            c, o = tile_og_rows(block, self.tiles)
            fw_code[rows, :w] = c
            fw_og[rows, :w] = o
            c2, o2 = tile_og_rows(
                reverse_complement_codes(block), self.tiles
            )
            rc_code[rows, :w] = c2
            rc_og[rows, :w] = o2
            walk = np.array(
                valid_walk_positions(int(ln), tlen, step), dtype=np.int64
            )
            walk_tiles[rows] = walk.size
            groups.append((rows, walk, c, o, c2, o2))
        # Bulk-evaluate Algorithm-1 rules for every canonical walk
        # window of every read (d1 = d at position 0, d1 = 0 after
        # a success), seed the memo with them, and screen whole
        # reads whose every window rule is VALID: those walks are
        # provably no-ops (see valid_walk_positions) and skip the
        # Python loop entirely.
        head_c, head_o, rest_c, rest_o = [], [], [], []
        for rows, walk, c, o, c2, o2 in groups:
            last = c.shape[1] - 1
            # d1 = d windows: the walk head (pos 0) plus the
            # first-level D3 targets — the shift-by-one placement
            # tried after any canonical failure and the skip-by-a-
            # tile resumption point — all queried with the full
            # allowance.  Warming them too turns the common
            # insufficient-head detour into pure memo hits.
            hcols = np.unique(
                np.clip(
                    np.concatenate(([0], walk + 1, walk + tlen)),
                    0,
                    last,
                )
            )
            head_c += [c[:, hcols].ravel(), c2[:, hcols].ravel()]
            head_o += [o[:, hcols].ravel(), o2[:, hcols].ravel()]
            if walk.size > 1:
                cols = walk[1:]
                rest_c += [c[:, cols].ravel(), c2[:, cols].ravel()]
                rest_o += [o[:, cols].ravel(), o2[:, cols].ravel()]
        if groups:
            rules_head = self._bulk_rules(
                np.concatenate(head_c), np.concatenate(head_o), p.d
            )
            self._seed_memo(rules_head, p.d)
            if rest_c:
                rules_rest = self._bulk_rules(
                    np.concatenate(rest_c), np.concatenate(rest_o), 0
                )
                self._seed_memo(rules_rest, 0)
            for rows, walk, c, o, c2, o2 in groups:
                fw_ok = _rule_valid(rules_head, c[:, 0], o[:, 0])
                rc_ok = _rule_valid(rules_head, c2[:, 0], o2[:, 0])
                if walk.size > 1:
                    cols = walk[1:]
                    fw_ok &= _rule_valid(
                        rules_rest, c[:, cols], o[:, cols]
                    ).all(axis=1)
                    rc_ok &= _rule_valid(
                        rules_rest, c2[:, cols], o2[:, cols]
                    ).all(axis=1)
                fw_allvalid[rows] = fw_ok
                rc_allvalid[rows] = rc_ok
        untouched = np.ones(out.n_reads, dtype=bool)
        # Forward (5'->3') pass over every read.
        for i in range(out.n_reads):
            ln = int(out.lengths[i])
            if fw_allvalid[i]:
                # Provably all-valid walk: the read is untouched in
                # this direction; reconstruct the walk stats and
                # per-base provenance without running the pass.
                n_pos = int(walk_tiles[i])
                total.tiles_examined += n_pos
                total.tiles_valid += n_pos
                if validated is not None:
                    validated[i, :ln] = True
                continue
            fw = correct_read_one_direction(
                out.codes[i, :ln],
                out.quals[i, :ln] if out.quals is not None else None,
                self._ctx,
                validated[i, :ln] if validated is not None else None,
                og_row=fw_og[i],
                code_row=fw_code[i],
            )
            total.merge(fw)
            if fw.bases_changed:
                untouched[i] = False
        # The precomputed RC rows describe the *original* reads, so
        # forward-pass edits invalidate them.  Refresh the dirty rows
        # from the corrected bases in one vectorized pass — then every
        # read, edited or not, takes the row-fed fast path in reverse.
        dirty = np.flatnonzero(~untouched)
        for ln in np.unique(out.lengths[dirty]):
            rows = dirty[out.lengths[dirty] == ln]
            block = out.codes[rows, :ln]
            w = ln - tlen + 1
            c2, o2 = tile_og_rows(
                reverse_complement_codes(block), self.tiles
            )
            rc_code[rows, :w] = c2
            rc_og[rows, :w] = o2
        # Reverse (3'->5') pass on each read's reverse complement.
        for i in range(out.n_reads):
            ln = int(out.lengths[i])
            if untouched[i] and rc_allvalid[i]:
                n_pos = int(walk_tiles[i])
                total.tiles_examined += n_pos
                total.tiles_valid += n_pos
                if validated is not None:
                    validated[i, :ln] = True
                continue
            codes = out.codes[i, :ln]
            quals = out.quals[i, :ln] if out.quals is not None else None
            rc = reverse_complement_codes(codes.copy())
            rq = quals[::-1].copy() if quals is not None else None
            vrc = np.zeros(ln, dtype=bool) if validated is not None else None
            total.merge(
                correct_read_one_direction(
                    rc,
                    rq,
                    self._ctx,
                    vrc,
                    og_row=rc_og[i],
                    code_row=rc_code[i],
                )
            )
            codes[:] = reverse_complement_codes(rc)
            if validated is not None:
                validated[i, :ln] |= vrc[::-1]
        return ReptileResult(
            reads=out,
            stats=total,
            n_ambiguous_converted=n_conv,
            validated=validated,
        )

    def correct_chunk(self, reads: ReadSet) -> tuple[ReadSet, dict]:
        """Correct one batch of reads; the per-chunk unit of the
        parallel engine.

        Correction is per-read against the fitted (immutable) phase-1
        structures, so chunking at any boundary yields output bitwise
        identical to one whole-set :meth:`run`.
        """
        result = self.run(reads)
        s = result.stats
        stats = {
            "tiles_examined": s.tiles_examined,
            "tiles_valid": s.tiles_valid,
            "tiles_corrected": s.tiles_corrected,
            "tiles_insufficient": s.tiles_insufficient,
            "bases_changed": s.bases_changed,
            "ambiguous_converted": result.n_ambiguous_converted,
        }
        # Per-chunk counter deltas; the parallel engine merges them
        # across forked workers like any other stat, and telemetry
        # exposes the totals as gauges at session close.
        stats.update(self._memo.harvest())
        telemetry.gauge("hotpath.memo_size", len(self._memo))
        return result.reads, stats

    def memory_estimate_bytes(self) -> int:
        """Rough footprint of the phase-1 structures."""
        total = self.spectrum.kmers.nbytes + self.spectrum.counts.nbytes
        total += (
            self.tiles.tiles.nbytes + self.tiles.oc.nbytes + self.tiles.og.nbytes
        )
        total += self.spectrum.prefilter.nbytes + self.tiles.prefilter.nbytes
        if isinstance(self._index, PrecomputedNeighborIndex):
            total += self._index.indptr.nbytes + self._index.indices.nbytes
        return total
