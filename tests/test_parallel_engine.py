"""Differential tests for the parallel batch-correction engine.

The contract under test: for any worker count and any chunk size
(including ones that do not divide the read count), the engine's
output is **bitwise identical** to serial correction — same corrected
reads, same counters, same read order — and its fault model (retries,
degradation, skip accounting) matches :mod:`repro.mapreduce.reliable`'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.redeem import RedeemCorrector
from repro.core.reptile import ReptileCorrector
from repro.io.readset import ReadSet
from repro.mapreduce import faults
from repro.mapreduce.types import FatalTaskError, RetryPolicy, SkipBudgetExceeded
from repro.parallel import correct_in_parallel
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads

#: A fast policy for fault tests (no real backoff sleeps).
FAST = RetryPolicy(max_retries=1, backoff_base=0.0, backoff_jitter=0.0)


def _dataset(seed: int, genome_length: int = 2000, coverage: float = 10.0,
             read_length: int = 36):
    rng = np.random.default_rng(seed)
    genome = simulate_genome(repeat_spec(genome_length, 0.0), rng)
    model = illumina_like_model(
        read_length, base_rate=0.01, end_multiplier=4.0
    )
    reads = simulate_reads(
        genome, read_length, model, rng, coverage=coverage
    ).reads
    reads.names = [f"r{i}" for i in range(reads.n_reads)]
    return reads


def _assert_reports_identical(a, b) -> None:
    assert np.array_equal(a.reads.codes, b.reads.codes)
    assert np.array_equal(a.reads.lengths, b.reads.lengths)
    assert a.reads.names == b.reads.names  # read order preserved
    ca, cb = a.counters.as_dict(), b.counters.as_dict()
    # The memo cache's hit/miss *split* depends on cache warmth (a
    # prior run on the same corrector, or how chunks land on forked
    # workers), but the total number of consultations is a pure
    # function of the walk and must match exactly.
    for d in (ca, cb):
        d["hotpath.memo_lookups"] = d.pop("hotpath.memo_hits", 0) + d.pop(
            "hotpath.memo_misses", 0
        )
        d.pop("hotpath.memo_evictions", None)
    assert ca == cb


@pytest.fixture(scope="module")
def reptile_case():
    reads = _dataset(seed=42)
    return ReptileCorrector.fit(reads), reads


@pytest.fixture(scope="module")
def redeem_case():
    reads = _dataset(seed=43, genome_length=900, coverage=8.0)
    return RedeemCorrector.fit(reads, k=10), reads


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("chunk_size", [64, 100, 173])
def test_reptile_parallel_matches_serial(reptile_case, workers, chunk_size):
    corrector, reads = reptile_case
    # 173 and 64 do not divide the read count; the last chunk is ragged.
    serial = correct_in_parallel(
        corrector, reads, workers=1, chunk_size=chunk_size
    )
    parallel = correct_in_parallel(
        corrector, reads, workers=workers, chunk_size=chunk_size
    )
    assert serial.mode == "serial"
    assert parallel.mode == "parallel"
    _assert_reports_identical(serial, parallel)
    # And both equal the plain whole-set API.
    whole = corrector.correct(reads)
    assert np.array_equal(parallel.reads.codes, whole.codes)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("chunk_size", [50, 77])
def test_redeem_parallel_matches_serial(redeem_case, workers, chunk_size):
    corrector, reads = redeem_case
    serial = correct_in_parallel(
        corrector, reads, workers=1, chunk_size=chunk_size
    )
    parallel = correct_in_parallel(
        corrector, reads, workers=workers, chunk_size=chunk_size
    )
    _assert_reports_identical(serial, parallel)
    assert np.array_equal(
        parallel.reads.codes, corrector.correct(reads).codes
    )


def test_chunking_invariance_across_sizes(reptile_case):
    """Corrected output is independent of the chunk boundaries."""
    corrector, reads = reptile_case
    outs = [
        correct_in_parallel(
            corrector, reads, workers=2, chunk_size=cs
        ).reads.codes
        for cs in (1, 13, reads.n_reads, reads.n_reads + 500)
    ]
    for other in outs[1:]:
        assert np.array_equal(outs[0], other)


def test_correct_parallel_method_entrypoints(reptile_case, redeem_case):
    for corrector, reads in (reptile_case, redeem_case):
        report = corrector.correct_parallel(reads, workers=2, chunk_size=90)
        assert np.array_equal(
            report.reads.codes, corrector.correct(reads).codes
        )


def test_serial_fallback_and_report_fields(reptile_case):
    corrector, reads = reptile_case
    report = correct_in_parallel(corrector, reads, workers=1, chunk_size=64)
    assert report.mode == "serial" and report.n_workers == 1
    assert report.n_chunks == -(-reads.n_reads // 64)
    assert report.counters["reads_corrected"] == reads.n_reads
    summary = report.summary()
    assert summary["chunks"] == report.n_chunks
    assert summary["bases_changed_total"] == int(
        (report.reads.codes != reads.codes).sum()
    )


def test_chunk_size_validation(reptile_case):
    corrector, reads = reptile_case
    with pytest.raises(ValueError):
        correct_in_parallel(corrector, reads, chunk_size=0)


# -- fault model -------------------------------------------------------------
class _PoisonCorrector:
    """Deterministic test corrector: flips the first base of every read
    to A, raises on any chunk containing a read named 'poison'."""

    def correct_chunk(self, reads: ReadSet):
        if reads.names and "poison" in reads.names:
            raise RuntimeError("poison read")
        out = reads.copy()
        for i in range(out.n_reads):
            if out.lengths[i]:
                out.codes[i, 0] = 0
        return out, {"bases_touched": int(out.n_reads)}


class _TransientCorrector(_PoisonCorrector):
    """Fails on attempt 0 for every chunk; retries cure it."""

    def correct_chunk(self, reads: ReadSet):
        if faults.current_attempt() == 0:
            raise RuntimeError("transient")
        return super().correct_chunk(reads)


def _toy_reads(n: int = 10, poison: int | None = None) -> ReadSet:
    reads = ReadSet.from_strings(["CCCC"] * n)
    reads.names = [f"r{i}" for i in range(n)]
    if poison is not None:
        reads.names[poison] = "poison"
    return reads


def test_poison_chunk_degrades_to_per_read_skip():
    reads = _toy_reads(10, poison=6)
    report = correct_in_parallel(
        _PoisonCorrector(), reads, workers=1, chunk_size=4, policy=FAST
    )
    # Reads 0..3 and 8..9 corrected via chunk path; 4,5,7 via the
    # degraded per-read path; read 6 passed through untouched.
    expected = np.zeros((10, 4), dtype=np.uint8) + 1
    expected[:, 0] = 0
    expected[6] = 1  # CCCC uncorrected
    assert np.array_equal(report.reads.codes, expected)
    assert report.counters["skipped_reads"] == 1
    assert report.counters["chunks_degraded"] == 1
    assert report.counters["retries"] == FAST.max_retries


def test_poison_chunk_without_skip_mode_is_fatal():
    reads = _toy_reads(10, poison=6)
    policy = RetryPolicy(
        max_retries=1, backoff_base=0.0, backoff_jitter=0.0,
        skip_bad_records=False,
    )
    with pytest.raises(FatalTaskError):
        correct_in_parallel(
            _PoisonCorrector(), reads, workers=1, chunk_size=4, policy=policy
        )


def test_skip_budget_enforced():
    reads = _toy_reads(8)
    for i in range(8):
        reads.names[i] = "poison"  # every chunk and read fails
    policy = RetryPolicy(
        max_retries=0, backoff_base=0.0, backoff_jitter=0.0,
        max_skipped_records=2,
    )
    with pytest.raises(SkipBudgetExceeded):
        correct_in_parallel(
            _PoisonCorrector(), reads, workers=1, chunk_size=4, policy=policy
        )


def test_transient_fault_cured_by_retry():
    reads = _toy_reads(9)
    report = correct_in_parallel(
        _TransientCorrector(), reads, workers=1, chunk_size=4, policy=FAST
    )
    assert (report.reads.codes[:, 0] == 0).all()
    assert report.counters["retries"] == 3  # one per chunk
    assert report.counters["correct_attempt_failures"] == 3
    assert report.counters["skipped_reads"] == 0


def test_generic_corrector_without_correct_chunk():
    """Correctors exposing only .correct() still run (no stats)."""

    class Plain:
        def correct(self, reads: ReadSet) -> ReadSet:
            out = reads.copy()
            out.codes[out.codes != 255] = 3
            return out

    reads = _toy_reads(7)
    report = correct_in_parallel(Plain(), reads, workers=1, chunk_size=3)
    assert (report.reads.codes == 3).all()
    assert report.counters["chunks_corrected"] == 3


# -- graceful shutdown -------------------------------------------------------
class _SelfSignalingCorrector(_PoisonCorrector):
    """Raises SIGTERM against its own process while correcting the
    first chunk — simulating an operator's kill landing mid-chunk."""

    def __init__(self, signum):
        self.signum = signum
        self.fired = False

    def correct_chunk(self, reads: ReadSet):
        if not self.fired:
            self.fired = True
            import os
            import signal as signal_mod

            os.kill(os.getpid(), getattr(signal_mod, self.signum))
        return super().correct_chunk(reads)


@pytest.mark.parametrize("signum", ["SIGTERM", "SIGINT"])
def test_signal_mid_chunk_drains_then_interrupts(signum):
    """First SIGTERM/SIGINT finishes the chunk in flight, records the
    shutdown metric, and raises KeyboardInterrupt at the boundary."""
    from repro.telemetry import MetricsRegistry

    reads = _toy_reads(12)
    corrector = _SelfSignalingCorrector(signum)
    counters = MetricsRegistry()
    with pytest.raises(KeyboardInterrupt, match="drained 1/3"):
        correct_in_parallel(
            corrector, reads, workers=1, chunk_size=4, counters=counters
        )
    snap = counters.as_dict()
    assert snap["shutdown.requested"] == 1
    assert snap["chunks_drained"] == 1
    assert snap["chunks_corrected"] == 1  # in-flight chunk completed


def test_signal_handlers_are_restored_after_run():
    import signal as signal_mod

    before = signal_mod.getsignal(signal_mod.SIGTERM)
    reads = _toy_reads(8)
    correct_in_parallel(_PoisonCorrector(), reads, workers=1, chunk_size=8)
    assert signal_mod.getsignal(signal_mod.SIGTERM) is before
