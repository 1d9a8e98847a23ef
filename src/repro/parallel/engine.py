"""Parallel batch correction over a shared, immutable k-spectrum.

Reptile and REDEEM correct each read independently against read-only
phase-1 structures (spectrum, tiles, EM attempt estimates) — an
embarrassingly parallel workload.  This engine runs contiguous read
chunks on a :class:`repro.distributed.Backend` (``"fork"`` by default):

- the fitted corrector and the input :class:`ReadSet` are installed in
  a module global *before* the pool is created, so children receive
  them through fork's copy-on-write pages — the spectrum is
  materialized once, never pickled per task (RECKONER's and BFC's
  shared-index architecture);
- each task submission carries only ``(chunk_start, chunk_stop)``;
  each result returns the corrected code block plus a per-chunk
  counter dict, merged into one :class:`Counters` run report;
- results are reassembled **in read order** regardless of completion
  order, so the output is bitwise identical to the serial path;
- retries, per-attempt timeouts (straggler re-execution in the
  parent), worker-crash pool rebuilds, and skip mode come from
  :mod:`repro.mapreduce.reliable` — the two runtimes share one fault
  model.  A chunk that keeps failing degrades to per-read correction;
  a read that *still* fails is passed through uncorrected and counted
  as ``skipped_reads``;
- when the backend declines a pool (``workers=1``, a platform without
  fork, or fewer chunks than would benefit) the same chunk loop runs
  serially in-process — same code path, same counters, no pool;
- SIGTERM/SIGINT during the chunk loop are handled gracefully: the
  chunk in flight is drained, a ``shutdown.requested`` metric is
  recorded, and ``KeyboardInterrupt`` is raised at the next chunk
  boundary (never mid-chunk), per the REP401 re-raise contract.  A
  second signal aborts immediately.

Any corrector exposing ``correct_chunk(reads) -> (ReadSet, dict)``
with per-read-independent semantics can be driven by this engine;
:class:`~repro.core.reptile.ReptileCorrector` and
:class:`~repro.core.redeem.RedeemCorrector` both do.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..distributed.backend import resolve_backend
from ..io.readset import ReadSet
from ..mapreduce.reliable import _account_skip, _execute_phase
from ..mapreduce.types import Counters, RetryPolicy

#: Corrector + full input ReadSet, installed before the pool forks so
#: workers inherit them copy-on-write instead of receiving pickles.
_WORKER_STATE: tuple | None = None


@dataclass(frozen=True)
class _BatchTask:
    """Lightweight task descriptor (the only object pickled per submit
    besides the chunk bounds)."""

    name: str


class _ShutdownFlag:
    """Latch set by a deferred SIGTERM/SIGINT; callable for the
    ``should_stop`` hook of the chunk loop."""

    def __init__(self) -> None:
        self.requested = False
        self.signum: int | None = None

    def __call__(self) -> bool:
        return self.requested


@contextmanager
def _graceful_signals(counters: Counters):
    """Defer SIGTERM/SIGINT to chunk boundaries for the enclosed scope.

    The first signal records a ``shutdown.requested`` metric and arms
    the returned :class:`_ShutdownFlag`; the chunk loop then finishes
    (drains) the chunk in flight and raises ``KeyboardInterrupt`` at
    the next boundary — never mid-chunk, so no partially corrected
    block is ever observable.  A second signal aborts immediately (the
    escape hatch for a wedged chunk).  Outside the main thread — where
    handlers cannot be installed — the flag simply never arms and
    behavior is unchanged.  Previous handlers are always restored.
    """
    flag = _ShutdownFlag()

    def _handler(signum, frame):
        if flag.requested:
            raise KeyboardInterrupt(
                f"second signal {signum}; aborting immediately"
            )
        flag.requested = True
        flag.signum = signum
        counters.incr("shutdown.requested")

    previous: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (ValueError, OSError):  # pragma: no cover - exotic host
                pass
    try:
        yield flag
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _call_chunk(corrector, reads: ReadSet) -> tuple[ReadSet, dict]:
    """Correct one chunk, normalizing the corrector's return shape."""
    if hasattr(corrector, "correct_chunk"):
        corrected, stats = corrector.correct_chunk(reads)
    else:
        corrected, stats = corrector.correct(reads), {}
    return corrected, {k: int(v) for k, v in stats.items()}


def run_chunk_attempt(
    corrector, sub: ReadSet, start: int, attempt: int
) -> tuple[tuple[int, np.ndarray], dict]:
    """One attempt at the chunk ``sub`` (reads ``start…`` of the run).

    The body every worker shares — forked/threaded workers reach it
    through :func:`_chunk_attempt`, socket workers through
    :func:`repro.distributed.worker.run_chunk` — so the result contract
    cannot drift between substrates.  The attempt number is published
    through :func:`repro.mapreduce.faults.set_current_attempt`, exactly
    as the MapReduce attempts do, so the deterministic fault-injection
    harness (attempt-gated transient faults) drives this engine too.
    """
    from ..mapreduce import faults

    faults.set_current_attempt(attempt)
    try:
        corrected, stats = _call_chunk(corrector, sub)
    finally:
        faults.set_current_attempt(0)
    if corrected.codes.shape != sub.codes.shape:
        raise RuntimeError(
            "parallel correction requires substitution-only correctors "
            f"(chunk shape changed {sub.codes.shape} -> {corrected.codes.shape})"
        )
    stats["chunks_corrected"] = 1
    stats["reads_corrected"] = sub.n_reads
    return (start, corrected.codes), stats


def _chunk_attempt(payload: tuple) -> tuple[tuple[int, np.ndarray], dict]:
    """Worker entry point: correct reads ``[start, stop)`` of the
    inherited ReadSet against the inherited corrector."""
    _task, (start, stop), attempt = payload
    corrector, reads = _WORKER_STATE
    sub = reads.subset(np.arange(start, stop))
    return run_chunk_attempt(corrector, sub, start, attempt)


def _skip_chunk(
    task: _BatchTask, bounds: tuple, policy: RetryPolicy, counters: Counters
) -> tuple[int, np.ndarray]:
    """Degraded path for a chunk that failed every attempt: correct its
    reads one at a time, passing poison reads through uncorrected."""
    start, stop = bounds
    corrector, reads = _WORKER_STATE
    blocks: list[np.ndarray] = []
    for i in range(start, stop):
        sub = reads.subset(np.array([i]))
        try:
            corrected, stats = _call_chunk(corrector, sub)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            # "skipped_records" keeps the reliable layer's skip budget
            # (RetryPolicy.max_skipped_records) authoritative here too.
            _account_skip(
                counters,
                policy,
                {
                    "skipped_reads": 1,
                    "skipped_records": 1,
                    "reads_corrected": 1,
                },
            )
            blocks.append(sub.codes)
        else:
            stats["reads_corrected"] = 1
            counters.merge(stats)
            blocks.append(corrected.codes)
    counters.incr("chunks_degraded")
    return (start, np.concatenate(blocks, axis=0))


@dataclass
class ParallelRunReport:
    """Corrected reads plus the run's execution record.

    The return type of :func:`correct_in_parallel` and the per-block
    report of :func:`correct_stream`.  The same counters also land in
    the ambient :mod:`repro.telemetry` session (span
    ``parallel.correct``, serialized by ``--report``).
    """

    reads: ReadSet
    counters: Counters
    n_workers: int
    chunk_size: int
    n_chunks: int
    #: ``"parallel"`` (backend pool) or ``"serial"`` (in-process fallback).
    mode: str
    wall_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {
            "mode": self.mode,
            "workers": self.n_workers,
            "chunk_size": self.chunk_size,
            "chunks": self.n_chunks,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        out.update(self.counters.as_dict())
        return out


def _chunk_bounds(n_reads: int, chunk_size: int) -> list[tuple[int, int]]:
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        (i, min(i + chunk_size, n_reads))
        for i in range(0, n_reads, chunk_size)
    ]


def correct_stream(
    corrector,
    blocks,
    workers: int = 1,
    chunk_size: int = 2048,
    policy: RetryPolicy | None = None,
    counters: Counters | None = None,
    pool_hit: bool | None = None,
    backend="fork",
):
    """Drive the chunk loop over a *stream* of ReadSet blocks.

    The out-of-core front half of :func:`correct_in_parallel`: each
    block (typically ``workers × chunk_size`` reads straight from
    :func:`repro.io.fastq.read_fastq_chunks`) runs through the same
    chunk loop — same counters, same fault model, same bitwise
    guarantee — then is yielded as ``(block, report)`` so the caller
    can write corrected output incrementally and drop the block.  Only
    one block of reads is ever resident.
    """
    if counters is None:
        counters = telemetry.active_counters() or Counters()
    backend_obj, owned = resolve_backend(backend, workers)
    try:
        for block in blocks:
            report = correct_in_parallel(
                corrector,
                block,
                workers=workers,
                chunk_size=chunk_size,
                policy=policy,
                counters=counters,
                pool_hit=pool_hit,
                backend=backend_obj,
            )
            telemetry.count("stream_blocks")
            telemetry.count("stream_reads", block.n_reads)
            yield block, report
    finally:
        if owned:
            backend_obj.shutdown()


def correct_in_parallel(
    corrector,
    reads: ReadSet,
    workers: int = 1,
    chunk_size: int = 2048,
    policy: RetryPolicy | None = None,
    counters: Counters | None = None,
    pool_hit: bool | None = None,
    backend="fork",
) -> ParallelRunReport:
    """Correct ``reads`` in ``chunk_size`` batches across ``workers``
    workers; bitwise identical to the serial path.

    ``backend`` is the execution substrate: a registry name
    (``"fork"`` — the default — ``"threads"`` or ``"socket"``) or a
    :class:`repro.distributed.Backend` instance.  Every substrate runs
    the same chunk loop — same fault model, same bitwise guarantee.
    Named backends are created and shut down here; instances are
    caller-owned (not shut down here), so socket workers stay warm
    across calls.  When the backend declines a pool
    (:meth:`~repro.distributed.Backend.want_pool`: ``workers=1``, a
    single chunk, a platform without fork) the identical chunk loop
    runs serially in-process.

    ``pool_hit`` records spectrum provenance when the corrector came
    from the service's :class:`~repro.service.pool.SpectrumPool`
    (True: reused warm, False: freshly built into the pool, None: no
    pool involved).  It only annotates the run span/counters — a
    pooled corrector is handed to forked workers copy-on-write exactly
    like a freshly fitted one, so no execution path changes.
    """
    if counters is None:
        counters = telemetry.active_counters() or Counters()
    if policy is None:
        policy = RetryPolicy(max_retries=1)
    bounds = _chunk_bounds(reads.n_reads, chunk_size)
    backend_obj, owned_backend = resolve_backend(backend, workers)
    use_pool = backend_obj.want_pool(workers, len(bounds))
    task = _BatchTask(name=f"correct[{type(corrector).__name__}]")

    global _WORKER_STATE  # repro: noqa[REP301] -- install-before-fork pattern: set in the parent before the pool exists, restored in the finally; children only read
    prev_state = _WORKER_STATE
    # Installed before the pool exists: forked children inherit it, and
    # the parent needs it for the serial path, straggler re-execution,
    # and skip mode.
    _WORKER_STATE = (corrector, reads)
    t0 = time.perf_counter()
    with telemetry.span(
        "parallel.correct",
        workers=workers if use_pool else 1,
        chunks=len(bounds),
        mode="parallel" if use_pool else "serial",
        backend=backend_obj.name if use_pool else "serial",
        corrector=type(corrector).__name__,
        spectrum_provenance=(
            "fitted" if pool_hit is None
            else ("pool-hit" if pool_hit else "pool-miss")
        ),
    ):
        try:
            if use_pool:
                # State install happens *after* _WORKER_STATE is set:
                # fork-based backends snapshot it at pool creation, the
                # socket backend ships shards.
                backend_obj.install_state(corrector, reads)
            with _graceful_signals(counters) as stop_flag:
                results = _execute_phase(
                    _chunk_attempt, task, bounds, policy, counters,
                    backend_obj if use_pool else None,
                    "correct", _skip_chunk, should_stop=stop_flag,
                )
        finally:
            counters.merge(backend_obj.harvest())
            if owned_backend:
                backend_obj.shutdown()
            _WORKER_STATE = prev_state
        out = reads.copy()
        for (start, stop), (res_start, codes) in zip(bounds, results):
            if res_start != start or codes.shape != (stop - start, out.max_length):
                raise RuntimeError(
                    f"chunk result misaligned: expected [{start}, {stop}), "
                    f"got start {res_start} shape {codes.shape}"
                )
            out.codes[start:stop] = codes
    wall = time.perf_counter() - t0
    counters.incr("bases_changed_total", int((out.codes != reads.codes).sum()))
    telemetry.timing("parallel_correct_seconds", wall)
    return ParallelRunReport(
        reads=out,
        counters=counters,
        n_workers=workers if use_pool else 1,
        chunk_size=chunk_size,
        n_chunks=len(bounds),
        mode="parallel" if use_pool else "serial",
        wall_seconds=wall,
    )
