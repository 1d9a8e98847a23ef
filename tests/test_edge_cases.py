"""Edge-case tests for paths the mainline suites do not reach."""


import numpy as np
import pytest

from repro.io import (
    PHRED64,
    ReadSet,
    decode_quality,
    encode_quality,
    error_prob_to_phred,
)
from repro.kmer import spectrum_from_reads
from repro.mapping import aligned_true_codes, map_reads
from repro.mapreduce import MapReduceTask, Pipeline, run_task


# -- io -------------------------------------------------------------------
def test_phred64_roundtrip():
    scores = np.array([0, 10, 40], dtype=np.int16)
    s = encode_quality(scores, offset=PHRED64)
    assert (decode_quality(s, offset=PHRED64) == scores).all()


def test_error_prob_to_phred_clips():
    assert error_prob_to_phred(0.0) == 60  # MAX_PHRED cap
    assert error_prob_to_phred(1.0) == 0.0


def test_encode_quality_out_of_range():
    with pytest.raises(ValueError):
        encode_quality(np.array([-1]))
    with pytest.raises(ValueError):
        encode_quality(np.array([120]))


def test_readset_copy_and_revcomp_without_quals():
    rs = ReadSet.from_strings(["ACGT"])
    assert rs.copy().quals is None
    assert rs.reverse_complement().sequence(0) == "ACGT"


def test_readset_empty():
    rs = ReadSet.from_strings([])
    assert rs.n_reads == 0
    assert rs.uniform_length is None
    assert rs.total_bases == 0
    assert rs.sequences() == []


def test_readset_validation_errors():
    with pytest.raises(ValueError):
        ReadSet(codes=np.zeros((2, 4), np.uint8), lengths=np.array([4]))
    with pytest.raises(ValueError):
        ReadSet(
            codes=np.zeros((1, 4), np.uint8),
            lengths=np.array([4]),
            quals=np.zeros((1, 5), np.int16),
        )


# -- mapping corner cases --------------------------------------------------------
def test_aligned_true_codes_no_unique_hits():
    from repro.mapping.rmap import MappingResult

    reads = ReadSet.from_strings(["ACGT" * 9])
    res = MappingResult(
        status=np.array([0], np.int8),
        position=np.array([-1]),
        strand=np.array([0], np.int8),
        mismatches=np.array([-1]),
    )
    rows, true = aligned_true_codes(reads, np.zeros(100, np.uint8), res)
    assert rows.size == 0


def test_map_reads_read_shorter_than_seed():
    genome = np.zeros(200, dtype=np.uint8)
    reads = ReadSet.from_strings(["ACG"])
    res = map_reads(reads, genome, max_mismatches=1, seed_length=8)
    assert res.status[0] == 0  # unmapped, no crash


# -- mapreduce extras ------------------------------------------------------------
def _m(key, value):
    yield key % 3, value


def _r(key, values):
    yield key, sorted(values)


def test_run_task_custom_partitions():
    task = MapReduceTask("p", _m, _r)
    data = [(i, i) for i in range(30)]
    out = dict(run_task(task, data, n_workers=2, n_partitions=5))
    assert set(out) == {0, 1, 2}
    assert out[0] == sorted(i for i in range(30) if i % 3 == 0)


def test_pipeline_with_spill(tmp_path):
    task = MapReduceTask("p", _m, _r)
    pipe = Pipeline([task], n_workers=2, spill_dir=str(tmp_path))
    out = dict(pipe.run([(i, i) for i in range(10)]))
    assert len(out) == 3
    assert pipe.reports[0].counters["map_input_records"] == 10


def test_empty_input_task():
    task = MapReduceTask("p", _m, _r)
    assert run_task(task, []) == []
    assert run_task(task, [], n_workers=2) == []


# -- reptile params --------------------------------------------------------------
def test_reptile_params_n_window_overrides():
    from repro.core.reptile import ReptileParams

    p = ReptileParams(k=10, n_window=7, max_n_in_window=2)
    assert p.effective_n_window == 7
    assert p.effective_max_n == 2


def test_count_histogram_thresholds_degenerate():
    from repro.core.reptile import count_histogram_thresholds

    cm, cg = count_histogram_thresholds(np.array([0, 1, 1, 0]))
    assert cm >= 2 and cg >= cm


def test_count_histogram_thresholds_bimodal():
    from repro.core.reptile import count_histogram_thresholds

    counts = np.concatenate(
        [np.zeros(500), np.ones(300), np.full(400, 30), np.full(100, 31)]
    ).astype(np.int64)
    cm, cg = count_histogram_thresholds(counts)
    assert 2 <= cm <= 10
    assert cg > 30


# -- hybrid convenience ------------------------------------------------------------
def test_hybrid_correct_convenience():
    from repro.core.hybrid import HybridCorrector
    from repro.simulate import UniformErrorModel, random_genome, simulate_reads

    rng = np.random.default_rng(0)
    g = random_genome(5000, rng)
    sim = simulate_reads(g, 36, UniformErrorModel(36, 0.01), rng, coverage=30.0)
    hybrid = HybridCorrector.fit(sim.reads, k_redeem=9, k=9)
    out = hybrid.correct(sim.reads.subset(np.arange(200)))
    assert out.n_reads == 200


# -- closet misc ------------------------------------------------------------------
def test_closet_gamma_schedule_in_driver():
    from repro.core.closet import ClosetClusterer, ClosetParams, SketchParams

    rs = ReadSet.from_strings(
        ["ACGTACGTACGTACGTACGT", "ACGTACGTACGTACGTACGT", "ACGTACGTACGTACGTTTTT"]
    )
    params = ClosetParams(
        sketch=SketchParams(k=8, modulus=1, rounds=1, cmin=0.3),
        gamma={0.9: 1.0, 0.3: 2.0 / 3.0},
    )
    res = ClosetClusterer(params).run(rs, thresholds=[0.9, 0.3])
    assert set(res.clusters) == {0.9, 0.3}


def test_banded_alignment_identity_band_expansion():
    from repro.core.closet import banded_alignment_identity
    from repro.seq import encode

    short = encode("ACGT")
    long = encode("TTTTTTTTTT" + "ACGT" + "TTTTTTTTTT")
    # Band must auto-expand to cover the length difference.
    assert banded_alignment_identity(short, long, band=2) == 1.0


def test_summary_and_repr_paths():
    from repro.mapreduce import Counters

    c = Counters()
    c.incr("x")
    assert "x" in repr(c)


# -- spectrum degenerate inputs (golden/parallel-layer hardening) ---------
def test_spectrum_from_reads_all_reads_shorter_than_k():
    rs = ReadSet.from_strings(["ACG", "TTAG", "C"])
    sp = spectrum_from_reads(rs, 8)
    assert len(sp) == 0 and sp.n_kmers == 0
    assert sp.kmers.dtype == np.uint64 and sp.counts.dtype == np.int64


def test_spectrum_from_reads_empty_readset():
    rs = ReadSet.from_strings([])
    sp = spectrum_from_reads(rs, 5)
    assert len(sp) == 0


def test_spectrum_from_reads_invalid_k_raises_even_when_reads_short():
    # Previously an out-of-range k slipped through silently when every
    # read was shorter than k; now it raises consistently.
    rs = ReadSet.from_strings(["ACG"])
    with pytest.raises(ValueError):
        spectrum_from_reads(rs, 99)
    with pytest.raises(ValueError):
        spectrum_from_reads(rs, 0)


def test_empty_spectrum_queries_return_zero_not_raise():
    rs = ReadSet.from_strings(["ACG"])
    sp = spectrum_from_reads(rs, 8)  # empty spectrum
    assert 0 not in sp and (1 << 15) not in sp
    codes = np.array([0, 7, 2**40], dtype=np.uint64)
    assert (sp.count(codes) == 0).all()
    assert (sp.index_of(codes) == -1).all()
    assert not sp.contains(codes).any()
    assert sp.count_scalar(12345) == 0


def test_spectrum_from_sequence_shorter_than_k():
    from repro.kmer import spectrum_from_sequence
    from repro.seq import encode

    sp = spectrum_from_sequence(encode("ACG"), 8)
    assert len(sp) == 0
    assert sp.count_scalar(0) == 0
