"""Differential tests: the Reptile hot path is byte-exact.

The chunk precompute, the read screening, the seeded tile-rule memo
and the Bloom prefilters are *accelerations*, not approximations — the
production corrector must produce output bitwise identical to the
plain scalar Algorithm 1/2.  These tests pin that contract at every
level:

- kernel level — batched neighbor/mutant/decision kernels vs their
  scalar counterparts on randomized inputs;
- corrector level — :class:`ReptileCorrector` against a reference
  drive of :func:`correct_read_one_direction` with none of the
  accelerations (un-prefiltered tables, probing neighbors, no memo, no
  precomputed rows), on the committed golden corpus: serial, on a warm
  memo, and through the parallel engine at ``workers`` 1 and 2; REDEEM
  against an EM fit on an un-prefiltered spectrum;
- CLI level — in-memory, ``--stream`` and ``--stream --workers 2``
  against the committed golden bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.redeem import RedeemCorrector
from repro.core.redeem.em import estimate_attempts
from repro.core.redeem.error_model import uniform_kmer_error_model
from repro.core.reptile import ReptileCorrector
from repro.core.reptile.read_correct import (
    ReadCorrectionStats,
    TilingContext,
    correct_read_one_direction,
    valid_walk_positions,
)
from repro.core.reptile.tile_correct import (
    DECISION_CODES,
    enumerate_mutant_tiles,
    enumerate_mutant_tiles_batch,
    evaluate_tile,
    evaluate_tiles_batch,
)
from repro.io.fastq import read_fastq
from repro.kmer.neighbor_index import (
    PrecomputedNeighborIndex,
    ProbingNeighborIndex,
)
from repro.kmer.spectrum import KmerSpectrum, spectrum_from_reads
from repro.kmer.tiles import tile_table_from_reads
from repro.parallel import correct_in_parallel
from repro.seq.alphabet import reverse_complement_codes

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def reptile_reads():
    return read_fastq(GOLDEN / "reptile_reads.fastq")


@pytest.fixture(scope="module")
def corrector(reptile_reads):
    """The production corrector, shared so later tests run on a memo
    earlier ones already warmed."""
    return ReptileCorrector.fit(reptile_reads)


def _reference_run(params, reads):
    """Scalar Algorithm 1/2 with none of the hot-path structures.

    Tables are rebuilt from the reads without prefilters, neighbors are
    probed per query, every tile is evaluated from scratch (no memo)
    and the walk packs each window itself (no precomputed rows).
    Returns ``(codes, stats, validated)``.
    """
    spectrum = spectrum_from_reads(reads, params.k, both_strands=True)
    tiles = tile_table_from_reads(
        reads,
        k=params.k,
        overlap=params.overlap,
        quality_cutoff=params.qc,
        both_strands=True,
    )
    assert spectrum.prefilter is None and tiles.prefilter is None
    ctx = TilingContext(
        params=params,
        tile_lookup=tiles.lookup,
        kmer_neighbors=ProbingNeighborIndex(spectrum, params.d).neighbors,
    )
    assert not reads.has_ambiguous().any()  # no N pre-pass to mirror
    out = reads.copy()
    stats = ReadCorrectionStats()
    validated = np.zeros(out.codes.shape, dtype=bool)
    for i in range(out.n_reads):
        ln = int(out.lengths[i])
        codes, quals = out.codes[i, :ln], out.quals[i, :ln]
        stats.merge(
            correct_read_one_direction(codes, quals, ctx, validated[i, :ln])
        )
        rc = reverse_complement_codes(codes.copy())
        vrc = np.zeros(ln, dtype=bool)
        stats.merge(
            correct_read_one_direction(rc, quals[::-1].copy(), ctx, vrc)
        )
        codes[:] = reverse_complement_codes(rc)
        validated[i, :ln] |= vrc[::-1]
    return out.codes, stats, validated


@pytest.fixture(scope="module")
def reference(corrector, reptile_reads):
    return _reference_run(corrector.params, reptile_reads)


# -- corrector-level differentials ------------------------------------


def test_reptile_fast_paths_byte_identical(
    reptile_reads, corrector, reference
):
    """The production corrector reproduces the scalar reference bit
    for bit: codes, stats, and per-base provenance."""
    ref_codes, ref_stats, ref_validated = reference
    assert ref_stats.tiles_corrected > 0  # the corpus exercises edits
    got = corrector.run(reptile_reads, track_validated=True)
    assert np.array_equal(got.reads.codes, ref_codes)
    assert got.stats == ref_stats
    assert np.array_equal(got.validated, ref_validated)


def test_reptile_fast_path_idempotent_across_runs(
    reptile_reads, corrector, reference
):
    """A warmed memo (second run on the same corrector) still matches —
    cached rules replay, never drift."""
    ref_codes, ref_stats, ref_validated = reference
    corrector.run(reptile_reads)
    assert len(corrector._memo) > 0
    warm = corrector.run(reptile_reads, track_validated=True)
    assert np.array_equal(warm.reads.codes, ref_codes)
    assert warm.stats == ref_stats
    assert np.array_equal(warm.validated, ref_validated)


@pytest.mark.parametrize("workers", [1, 2])
def test_reptile_parallel_chunked_matches_scalar(
    workers, reptile_reads, corrector, reference
):
    """The parallel engine's chunk loop (serial and forked) equals the
    scalar whole-set reference."""
    ref_codes, ref_stats, _ = reference
    report = correct_in_parallel(
        corrector, reptile_reads, workers=workers, chunk_size=128
    )
    assert np.array_equal(report.reads.codes, ref_codes)
    merged = report.summary()
    for name in (
        "tiles_examined",
        "tiles_valid",
        "tiles_corrected",
        "tiles_insufficient",
        "bases_changed",
    ):
        assert merged[name] == getattr(ref_stats, name), name


def test_memo_counters_harvested_per_chunk(reptile_reads, corrector):
    report = correct_in_parallel(
        corrector, reptile_reads, workers=1, chunk_size=256
    )
    merged = report.summary()
    assert merged["hotpath.memo_hits"] > 0
    assert merged["hotpath.memo_misses"] >= 0


def test_redeem_prefilter_byte_identical():
    """The spectrum prefilter riding REDEEM's EM neighborhood lookups
    never changes T or a corrected base: the fitted corrector equals
    an EM run on a plain, un-prefiltered spectrum."""
    reads = read_fastq(GOLDEN / "redeem_reads.fastq")
    fast = RedeemCorrector.fit(reads, k=10)
    assert fast.spectrum.prefilter is not None
    error_model = uniform_kmer_error_model(10, 0.01)
    plain = RedeemCorrector(
        model=estimate_attempts(
            spectrum_from_reads(reads, 10, both_strands=False), error_model
        ),
        error_model=error_model,
        dmax=1,
    )
    assert plain.spectrum.prefilter is None
    assert np.allclose(plain.T, fast.T)
    assert np.array_equal(
        plain.correct(reads).codes, fast.correct(reads).codes
    )


# -- CLI-level differentials (in-memory vs --stream) ------------------


@pytest.mark.parametrize(
    "extra",
    [
        pytest.param([], id="memory-all-on"),
        pytest.param(["--stream"], id="stream-all-on"),
        pytest.param(["--stream", "--workers", "2"], id="stream-workers2"),
    ],
)
def test_cli_fast_paths_byte_identical(extra, tmp_path):
    from repro.tools.correct import main as correct_main

    out = tmp_path / "out.fastq"
    rc = correct_main(
        [
            str(GOLDEN / "reptile_reads.fastq"),
            str(out),
            "--chunk-size", "200",
            *extra,
        ]
    )
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "reptile_expected.fastq").read_bytes()


def test_cli_removed_ablation_flags_are_usage_errors(tmp_path, capsys):
    """The five former ablation switches are gone, not silently
    accepted: each is an argparse usage error (exit 2, no output)."""
    from repro.tools.correct import main as correct_main

    out = tmp_path / "out.fastq"
    for flag in (
        ["--no-batch-kernels"],
        ["--no-memo-cache"],
        ["--no-prefilter"],
        ["--memo-capacity", "64"],
        ["--prefilter-fp-rate", "0.05"],
    ):
        with pytest.raises(SystemExit) as exc:
            correct_main([str(GOLDEN / "reptile_reads.fastq"), str(out), *flag])
        assert exc.value.code == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("usage:"), flag
        assert "unrecognized arguments: " + flag[0] in err
        assert not out.exists()


# -- kernel-level differentials ---------------------------------------


def _random_spectrum(rng, k: int, n: int) -> KmerSpectrum:
    codes = np.unique(
        rng.integers(0, 4**k, size=n, dtype=np.uint64).astype(np.uint64)
    )
    counts = rng.integers(1, 20, size=codes.size).astype(np.int64)
    return KmerSpectrum(k=k, kmers=codes, counts=counts)


def _mixed_queries(rng, spectrum: KmerSpectrum, n: int) -> np.ndarray:
    """Half present, half (mostly) absent query codes, shuffled."""
    present = rng.choice(spectrum.kmers, size=n // 2, replace=True)
    absent = rng.integers(
        0, 4**spectrum.k, size=n - n // 2, dtype=np.uint64
    ).astype(np.uint64)
    out = np.concatenate([present, absent])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("backend", ["probing", "precomputed"])
@pytest.mark.parametrize("index_self", [False, True])
@pytest.mark.parametrize("query_self", [False, True])
def test_neighbors_batch_matches_scalar(backend, index_self, query_self):
    """CSR batch neighborhoods row-for-row equal the scalar API, for
    present and absent queries under every include_self combination."""
    if backend == "probing" and index_self:
        pytest.skip("probing index has no include_self build flag")
    rng = np.random.default_rng(42)
    spectrum = _random_spectrum(rng, k=9, n=4000)
    if backend == "probing":
        index = ProbingNeighborIndex(spectrum, d=1)
    else:
        index = PrecomputedNeighborIndex(
            spectrum, d=1, include_self=index_self
        )
    queries = _mixed_queries(rng, spectrum, 64)
    vals, indptr = index.neighbors_batch(queries, include_self=query_self)
    assert indptr.shape == (queries.size + 1,)
    for i, code in enumerate(queries.tolist()):
        row = vals[indptr[i] : indptr[i + 1]]
        single = index.neighbors(int(code), include_self=query_self)
        assert row.tolist() == single.tolist()


@pytest.mark.parametrize("overlap", [0, 3])
def test_enumerate_mutant_tiles_batch_matches_scalar(overlap):
    """Per tile, the flat batched cross-product yields exactly the
    scalar mutant set (composition is injective: no duplicates)."""
    rng = np.random.default_rng(7)
    k = 8
    spectrum = _random_spectrum(rng, k=k, n=3000)
    index = ProbingNeighborIndex(spectrum, d=1)
    a1 = _mixed_queries(rng, spectrum, 40)
    if overlap:
        # Second constituent must agree with a1 on the shared bases.
        suffix = a1 & np.uint64((1 << (2 * overlap)) - 1)
        rest = rng.integers(
            0, 4 ** (k - overlap), size=a1.size, dtype=np.uint64
        ).astype(np.uint64)
        a2 = (suffix << np.uint64(2 * (k - overlap))) | rest
    else:
        a2 = _mixed_queries(rng, spectrum, 40)
    tiles = (a1 << np.uint64(2 * (k - overlap))) | (
        a2 & np.uint64((1 << (2 * (k - overlap))) - 1)
    )
    nb1_vals, nb1_indptr = index.neighbors_batch(a1)
    nb2_vals, nb2_indptr = index.neighbors_batch(a2)
    mutants, tidx = enumerate_mutant_tiles_batch(
        tiles, nb1_vals, nb1_indptr, nb2_vals, nb2_indptr, k, overlap
    )
    assert mutants.size == tidx.size
    for i in range(tiles.size):
        cand1 = np.concatenate(
            [a1[i : i + 1], nb1_vals[nb1_indptr[i] : nb1_indptr[i + 1]]]
        )
        cand2 = np.concatenate(
            [a2[i : i + 1], nb2_vals[nb2_indptr[i] : nb2_indptr[i + 1]]]
        )
        expected = enumerate_mutant_tiles(
            int(a1[i]), int(a2[i]), cand1, cand2, k, overlap
        )
        got = mutants[tidx == i]
        assert sorted(got.tolist()) == expected.tolist()
        assert len(set(got.tolist())) == got.size


def test_evaluate_tiles_batch_matches_scalar():
    """Decision, replacement tile, and gate flag agree with the scalar
    Algorithm 1 for every tile across randomized counts/thresholds."""
    rng = np.random.default_rng(13)
    k, overlap = 8, 0
    tlen = 2 * k - overlap
    spectrum = _random_spectrum(rng, k=k, n=3000)
    index = ProbingNeighborIndex(spectrum, d=1)
    a1 = _mixed_queries(rng, spectrum, 60)
    a2 = _mixed_queries(rng, spectrum, 60)
    tiles = (a1 << np.uint64(2 * k)) | a2
    nb1 = index.neighbors_batch(a1)
    nb2 = index.neighbors_batch(a2)
    mutants, tidx = enumerate_mutant_tiles_batch(
        tiles, nb1[0], nb1[1], nb2[0], nb2[1], k, overlap
    )
    # Randomized Og counts exercise every branch: zeros (absent), rare,
    # moderate, and overwhelming support.
    og_tiles = rng.integers(0, 9, size=tiles.size).astype(np.int64)
    og_mutants = rng.integers(0, 9, size=mutants.size).astype(np.int64)
    og_mutants[rng.random(mutants.size) < 0.5] = 0
    for cg, cm, cr in [(6, 2, 2.0), (4, 3, 1.5), (1, 1, 1.0)]:
        dec, new, gated = evaluate_tiles_batch(
            tiles, og_tiles, mutants, og_mutants, tidx, cg, cm, cr
        )
        for i in range(tiles.size):
            sel = tidx == i
            rule = evaluate_tile(
                tile_code=int(tiles[i]),
                mutant_tiles=mutants[sel],
                og_tile=int(og_tiles[i]),
                og_mutants=og_mutants[sel],
                tile_length=tlen,
                cg=cg,
                cm=cm,
                cr=cr,
            )
            assert DECISION_CODES[dec[i]] is rule.decision
            if rule.decision.name == "CORRECTED":
                assert int(new[i]) == rule.new_tile
                assert bool(gated[i]) == rule.quality_gated


def test_valid_walk_positions_mirror_walk():
    """The closed-form all-valid walk sequence: starts at 0, advances
    by the step, clamps at the final window, visits it exactly once."""
    assert valid_walk_positions(36, 24, 12) == [0, 12]
    assert valid_walk_positions(24, 24, 12) == [0]
    assert valid_walk_positions(100, 24, 12) == [0, 12, 24, 36, 48, 60, 72, 76]
    for length in range(24, 60):
        pos = valid_walk_positions(length, 24, 12)
        assert pos[0] == 0 and pos[-1] == length - 24
        assert all(b > a for a, b in zip(pos, pos[1:]))
