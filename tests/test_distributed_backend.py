"""Differential tests for the pluggable distributed backend.

The contract under test: routing the chunk loop through any backend —
in-process threads, the default fork pool, or separate socket-connected
worker processes holding only spectrum *shards* — produces output
**bitwise identical** to serial correction, including after a remote
worker is killed mid-fleet and respawned.

Socket tests spawn real subprocesses, so they are kept small (the tiny
dataset below) and the expensive fleet is module-scoped.
"""

from __future__ import annotations

import pickle
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.reptile import ReptileCorrector
from repro.distributed import (
    BACKEND_NAMES,
    Backend,
    ConnectionClosed,
    LocalForkBackend,
    LocalThreadsBackend,
    ShardPlan,
    ShardRouter,
    create_backend,
    recv_msg,
    send_msg,
    split_spectrum,
)
from repro.distributed.socket_backend import SocketBackend
from repro.mapreduce import MapReduceTask, run_task, run_task_reliable
from repro.parallel import correct_in_parallel
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads


def _dataset(seed: int = 42, genome_length: int = 2000,
             coverage: float = 10.0, read_length: int = 36):
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


@pytest.fixture(scope="module")
def reptile_case():
    reads = _dataset()
    return ReptileCorrector.fit(reads), reads


# -- framing -----------------------------------------------------------------
def _socketpair():
    a, b = socket.socketpair()
    return a, b


def test_framing_round_trip():
    a, b = _socketpair()
    try:
        payload = {"type": "chunk", "codes": np.arange(17, dtype=np.uint64)}
        sent = send_msg(a, payload)
        assert sent > 8  # header + body
        got = recv_msg(b)
        assert got["type"] == "chunk"
        assert np.array_equal(got["codes"], payload["codes"])
    finally:
        a.close()
        b.close()


def test_framing_eof_raises_connection_closed():
    a, b = _socketpair()
    a.close()
    try:
        with pytest.raises(ConnectionClosed):
            recv_msg(b)
    finally:
        b.close()


def test_framing_rejects_implausible_length():
    a, b = _socketpair()
    try:
        # A hand-forged header claiming an absurd body size must be
        # rejected before any allocation happens.
        a.sendall((1 << 60).to_bytes(8, "big"))
        with pytest.raises(ValueError):
            recv_msg(b)
    finally:
        a.close()
        b.close()


def test_framing_partial_header_raises():
    a, b = _socketpair()
    try:
        a.sendall(b"\x00\x00\x00")  # 3 of 8 header bytes, then EOF
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_msg(b)
    finally:
        b.close()


# -- shard plan + splitting --------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7])
def test_shard_plan_covers_all_codes(n_shards):
    plan = ShardPlan.for_spectrum(k=11, n_shards=n_shards)
    assert plan.n_partitions >= n_shards
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 1 << 22, size=500, dtype=np.uint64)
    shards = plan.shard_of(codes)
    assert shards.min() >= 0 and shards.max() < n_shards
    # Deterministic: same codes, same shards.
    assert np.array_equal(shards, plan.shard_of(codes))


def test_shard_plan_single_shard_has_no_partitioning():
    plan = ShardPlan.for_spectrum(k=11, n_shards=1)
    assert plan.partition_bits == 0
    assert plan.n_partitions == 1
    assert plan.partition_edges().size == 0


def test_shard_plan_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        ShardPlan.for_spectrum(k=11, n_shards=0)


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_split_spectrum_partitions_exactly(reptile_case, n_shards):
    corrector, _ = reptile_case
    spectrum = corrector.spectrum
    plan = ShardPlan.for_spectrum(spectrum.k, n_shards)
    shards = split_spectrum(spectrum, plan)
    assert len(shards) == n_shards
    # Every k-mer lands in exactly one shard; total count preserved.
    total = sum(s.n_kmers for s in shards)
    assert total == spectrum.kmers.size
    recombined = np.sort(np.concatenate([s.kmers for s in shards]))
    assert np.array_equal(recombined, spectrum.kmers)
    for s in shards:
        # Each shard is sorted and owns only its own codes.
        assert np.all(s.kmers[:-1] <= s.kmers[1:]) if s.n_kmers else True
        if s.n_kmers:
            assert np.all(plan.shard_of(s.kmers) == s.shard_id)
        # Shard counts agree with the monolithic table.
        assert np.array_equal(s.count(s.kmers), spectrum.count(s.kmers))


def test_split_spectrum_rejects_k_mismatch(reptile_case):
    corrector, _ = reptile_case
    plan = ShardPlan.for_spectrum(corrector.spectrum.k + 1, 2)
    with pytest.raises(ValueError):
        split_spectrum(corrector.spectrum, plan)


def test_shard_router_matches_monolithic_spectrum(reptile_case):
    corrector, reads = reptile_case
    spectrum = corrector.spectrum.with_prefilter()
    plan = ShardPlan.for_spectrum(spectrum.k, 4)
    shards = split_spectrum(spectrum, plan)
    router = ShardRouter(
        k=spectrum.k,
        plan=plan,
        local={s.shard_id: s for s in shards},  # all local: no sockets
        prefilter=spectrum.prefilter,
        n_kmers=spectrum.kmers.size,
    )
    rng = np.random.default_rng(7)
    present = rng.choice(spectrum.kmers, size=200)
    absent = rng.integers(0, 1 << (2 * spectrum.k), size=200,
                          dtype=np.uint64)
    for codes in (present, absent, np.concatenate([present, absent])):
        assert np.array_equal(router.count(codes), spectrum.count(codes))
        assert np.array_equal(
            router.contains(codes), spectrum.contains(codes)
        )
    # 2-D query shapes survive the ravel/reshape round trip.
    grid = present[:36].reshape(6, 6)
    assert np.array_equal(router.count(grid), spectrum.count(grid))
    scalar = int(present[0])
    assert router.count_scalar(scalar) == spectrum.count_scalar(scalar)
    assert (scalar in router) == (scalar in spectrum)
    assert router.with_prefilter() is router
    counters = dict(router.counters)
    assert counters["shard.lookup_total"] > 0
    assert counters["shard.lookup_prefiltered"] > 0  # absent codes
    assert counters.get("shard.lookup_remote", 0) == 0
    # harvest() yields deltas exactly once.
    first = router.harvest()
    assert first == {k: v for k, v in counters.items() if v}
    assert router.harvest() == {}


def test_shard_plan_round_trips_through_pickle():
    plan = ShardPlan.for_spectrum(k=13, n_shards=3)
    assert pickle.loads(pickle.dumps(plan)) == plan  # repro: noqa[REP605] -- round-tripping bytes this test just produced


# -- backend registry --------------------------------------------------------
def test_backend_registry_names_and_protocol():
    assert BACKEND_NAMES == ("threads", "fork", "socket")
    threads = create_backend("threads", workers=2)
    fork = create_backend("fork", workers=2)
    try:
        assert isinstance(threads, Backend)
        assert isinstance(fork, Backend)
        assert threads.name == "threads" and fork.name == "fork"
    finally:
        threads.shutdown()
        fork.shutdown()
    with pytest.raises(ValueError):
        create_backend("carrier-pigeon", workers=2)


def test_local_backends_want_pool_rules():
    threads = LocalThreadsBackend(workers=2)
    try:
        assert threads.want_pool(2, 5)
        assert not threads.want_pool(1, 5)  # serial stays serial
        assert not threads.want_pool(2, 1)  # one item: no pool overhead
    finally:
        threads.shutdown()
    fork = LocalForkBackend(workers=2)
    try:
        import os

        expect = hasattr(os, "fork")
        assert fork.want_pool(2, 5) == expect
        assert not fork.want_pool(1, 5)
    finally:
        fork.shutdown()


def _backend_kwargs(backend_name):
    """``None`` is the default spelling: no ``backend=`` at all."""
    return {} if backend_name is None else {"backend": backend_name}


#: The default spelling plus every local registry name.
LOCAL_BACKENDS = [
    pytest.param(None, id="default"),
    "threads",
    "fork",
]


# -- engine differential: default / threads / fork vs serial -----------------
@pytest.mark.parametrize("backend_name", LOCAL_BACKENDS)
def test_engine_local_backends_match_serial(reptile_case, backend_name):
    corrector, reads = reptile_case
    serial = correct_in_parallel(
        corrector, reads, workers=1, chunk_size=100
    )
    routed = correct_in_parallel(
        corrector, reads, workers=2, chunk_size=100,
        **_backend_kwargs(backend_name),
    )
    assert np.array_equal(serial.reads.codes, routed.reads.codes)
    assert np.array_equal(serial.reads.lengths, routed.reads.lengths)
    assert serial.reads.names == routed.reads.names
    assert routed.counters["reads_corrected"] == reads.n_reads
    assert routed.mode == "parallel" and routed.n_workers == 2


# -- mapreduce with a backend ------------------------------------------------
def wc_mapper(key, value):
    for word in value.split():
        yield word, 1


def wc_reducer(key, values):
    yield key, sum(values)


WORDCOUNT = MapReduceTask("wordcount", wc_mapper, wc_reducer)


def _wc_inputs(n=30):
    return [(i, "alpha beta gamma alpha") for i in range(n)]


@pytest.mark.parametrize("backend_name", LOCAL_BACKENDS)
def test_mapreduce_local_backends_match_plain(backend_name):
    # n_partitions defaults to n_workers, which changes output *order*
    # (not content) — pin it so the comparison is exact.
    plain = run_task(WORDCOUNT, _wc_inputs(), n_partitions=3)
    routed = run_task_reliable(
        WORDCOUNT,
        _wc_inputs(),
        n_workers=2,
        n_partitions=3,
        **_backend_kwargs(backend_name),
    )
    assert routed == plain


# -- socket backend: the real distributed path -------------------------------
@pytest.fixture(scope="module")
def socket_fleet():
    """One warm 2-worker / 4-shard fleet shared by the socket tests
    (spawning real processes is the expensive part)."""
    backend = SocketBackend(workers=2, shards=4)
    yield backend
    backend.shutdown()


@pytest.mark.slow
def test_socket_backend_matches_serial(reptile_case, socket_fleet):
    corrector, reads = reptile_case
    serial = correct_in_parallel(
        corrector, reads, workers=1, chunk_size=100
    )
    remote = correct_in_parallel(
        corrector, reads, workers=2, chunk_size=100, backend=socket_fleet
    )
    assert np.array_equal(serial.reads.codes, remote.reads.codes)
    assert serial.reads.names == remote.reads.names
    counters = remote.counters.as_dict()
    assert counters["backend.rpc_calls"] > 0
    assert counters["shard.lookup_total"] > 0
    # With 4 shards across 2 workers, every worker owns 2 and must
    # consult peers for the rest — unless the prefilter answered.
    assert counters["shard.lookup_local"] > 0
    assert counters["shard.lookup_prefiltered"] > 0


@pytest.mark.slow
def test_socket_backend_survives_killed_worker(reptile_case, socket_fleet):
    """Kill one remote worker, rerun: byte-exact output, death and
    respawn accounted, and the *respawned* fleet still answers."""
    corrector, reads = reptile_case
    baseline = corrector.correct(reads)
    victim = socket_fleet._workers[0]
    old_pid = victim.proc.pid
    victim.proc.kill()
    victim.proc.wait()
    after = correct_in_parallel(
        corrector, reads, workers=2, chunk_size=100, backend=socket_fleet
    )
    assert np.array_equal(after.reads.codes, baseline.codes)
    counters = after.counters.as_dict()
    assert counters["backend.worker_deaths"] >= 1
    assert counters["backend.workers_respawned"] >= 1
    respawned = socket_fleet._workers[0]
    assert respawned.proc.pid != old_pid
    assert respawned.proc.poll() is None  # alive again
    # And a clean third run on the respawned fleet is still exact.
    again = correct_in_parallel(
        corrector, reads, workers=2, chunk_size=100, backend=socket_fleet
    )
    assert np.array_equal(again.reads.codes, baseline.codes)


@pytest.mark.slow
def test_socket_backend_runs_mapreduce_calls(socket_fleet):
    plain = run_task(WORDCOUNT, _wc_inputs(), n_partitions=3)
    routed = run_task_reliable(
        WORDCOUNT,
        _wc_inputs(),
        n_workers=2,
        n_partitions=3,
        backend=socket_fleet,
    )
    assert routed == plain


@pytest.mark.slow
def test_socket_backend_all_workers_dead_raises_broken_pool():
    from concurrent.futures.process import BrokenProcessPool

    backend = SocketBackend(workers=1, shards=1)
    try:
        backend.install_state(None, None)
        for w in backend._workers.values():
            w.proc.kill()
            w.proc.wait()
        # Let the dispatcher notice the death before submitting.
        deadline = threading.Event()
        for _ in range(100):
            if all(w.dead for w in backend._workers.values()):
                break
            deadline.wait(0.05)
        future, _gen = backend.submit(wc_mapper, None)
        with pytest.raises((BrokenProcessPool, RuntimeError)):
            future.result(timeout=10)
    finally:
        backend.shutdown()


def test_submit_completes_future_outside_router_lock(monkeypatch):
    """Regression (REP602): submit used to call set_exception while
    holding self._lock; future completion runs done-callbacks inline,
    so a callback re-entering the backend would self-deadlock."""
    from repro.distributed import socket_backend as sb

    backend = SocketBackend(workers=1, shards=1)
    seen = {}

    class ProbeFuture(sb.Future):
        def set_exception(self, exc):
            seen["locked_during_completion"] = backend._lock.locked()
            super().set_exception(exc)

    monkeypatch.setattr(sb, "Future", ProbeFuture)
    # No live workers and no spawning: submit must take the
    # no-live-workers path without real subprocesses.
    monkeypatch.setattr(
        SocketBackend, "_ensure_started", lambda self: None
    )
    try:
        fut, _gen = backend.submit(wc_mapper, None)
        assert isinstance(
            fut.exception(timeout=1), sb.BrokenProcessPool
        )
        assert seen == {"locked_during_completion": False}
    finally:
        backend.shutdown()


# -- CLI differential: the acceptance-criteria run ---------------------------
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.slow
def test_cli_backends_byte_identical(tmp_path):
    """``repro correct`` on the golden corpus: {default, --backend fork,
    threads, socket --shards 4} × {in-memory, --stream} all write the
    committed golden bytes, and the default spelling's run report has
    the same counters and span names as an explicit ``--backend fork``.
    """
    from repro.telemetry import RunReport
    from repro.tools.correct import main as correct_main

    expected = (GOLDEN / "reptile_expected.fastq").read_bytes()
    backends = {
        "default": [],
        "fork": ["--backend", "fork"],
        "threads": ["--backend", "threads"],
        "socket": ["--backend", "socket", "--shards", "4"],
    }
    modes = {"memory": [], "stream": ["--stream"]}
    reports = {}
    for mode, mode_flags in modes.items():
        for name, backend_flags in backends.items():
            out = tmp_path / f"{name}-{mode}.fastq"
            report = tmp_path / f"{name}-{mode}.json"
            rc = correct_main(
                [
                    str(GOLDEN / "reptile_reads.fastq"),
                    str(out),
                    "--workers", "2",
                    "--chunk-size", "128",
                    "--report", str(report),
                    *backend_flags,
                    *mode_flags,
                ]
            )
            assert rc == 0, (name, mode)
            assert out.read_bytes() == expected, (name, mode)
            reports[name, mode] = RunReport.load(report)

    def span_names(node) -> list:
        return [node.name] + [
            n for child in node.children for n in span_names(child)
        ]

    def counters(rep) -> dict:
        # How memo lookups split into hits and misses depends on which
        # forked worker a chunk lands on; everything else is exact.
        return {
            k: v for k, v in rep.counters.items()
            if k not in ("hotpath.memo_hits", "hotpath.memo_misses",
                         "hotpath.memo_evictions")
        }

    for mode in modes:
        default, fork = reports["default", mode], reports["fork", mode]
        assert counters(default) == counters(fork), mode
        assert span_names(default.span_tree()) == span_names(
            fork.span_tree()
        ), mode


def test_cli_shards_requires_socket_backend(tmp_path, capsys):
    """``--shards`` without ``--backend socket`` is a usage error like
    every other flag conflict: exit 2 with the usage line."""
    from repro.tools.correct import main as correct_main

    for extra in ([], ["--backend", "threads"]):
        with pytest.raises(SystemExit) as exc:
            correct_main(
                ["in.fastq", str(tmp_path / "out.fastq"),
                 "--shards", "4", *extra]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--shards requires --backend socket" in err
