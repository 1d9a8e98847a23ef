"""Fault-tolerant MapReduce execution (the Hadoop recovery model).

CLOSET (Sec. 4.4) assumes a runtime that survives task failures by
re-execution; this module gives the local engine that character.  On
top of :mod:`repro.mapreduce.engine`'s map/shuffle/reduce dataflow it
adds, per map chunk and reduce partition:

- **task attempts** — up to ``1 + RetryPolicy.max_retries`` tries with
  deterministic exponential backoff and jitter between them;
- **per-attempt timeouts** — a pool attempt exceeding
  ``RetryPolicy.task_timeout`` is treated as a straggler and
  re-executed serially in the parent (speculative re-execution);
- **bad-record skip mode** — a chunk still failing after all retries is
  bisected, Hadoop skip-mode style, to isolate the poison record(s),
  which are skipped and accounted in ``Counters`` (``skipped_records``)
  rather than aborting the job;
- **dead-worker degradation** — a crashed pool worker (broken pool)
  recreates the pool and re-runs the affected chunk serially instead of
  killing the job.

Counters are merged **only from successful attempts**, so
``map_input_records`` equals the true input count no matter how many
attempts failed along the way (skipped records are counted as consumed
input *and* as ``skipped_records``).
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Iterable

from .. import telemetry
from . import faults
from .engine import (
    SpilledPartition,
    _group_by_key,
    _map_chunk,
    _reduce_partition,
    _sorted_keys,
    _spill_partitions,
    stable_partition,
)
from .types import (
    KV,
    Counters,
    FatalTaskError,
    MapReduceTask,
    RetryPolicy,
    SkipBudgetExceeded,
)

if TYPE_CHECKING:
    from ..distributed.backend import Backend


# -- worker entry points ------------------------------------------------------
def _map_attempt(payload: tuple) -> tuple[list[KV], dict]:
    task, chunk, attempt = payload
    faults.set_current_attempt(attempt)
    try:
        return _map_chunk((task, chunk))
    finally:
        faults.set_current_attempt(0)


def _reduce_attempt(payload: tuple) -> tuple[list[KV], dict]:
    task, partition, attempt = payload
    faults.set_current_attempt(attempt)
    try:
        return _reduce_partition((task, partition))
    finally:
        faults.set_current_attempt(0)


# -- recovery core ------------------------------------------------------------
def _run_item(
    worker_fn: Callable,
    task: MapReduceTask,
    item,
    idx: int,
    policy: RetryPolicy,
    counters: Counters,
    pool: Backend | None,
    phase: str,
    skip_fn: Callable,
    fut_gen: tuple | None = None,
):
    """Run one chunk/partition to completion under the retry policy."""
    attempt = 0
    use_pool = pool is not None
    last_exc: BaseException | None = None
    while attempt <= policy.max_retries:
        if attempt > 0:
            counters.incr("retries")
            time.sleep(policy.backoff_seconds(attempt, salt=idx))
        counters.incr("task_attempts")
        gen = -1
        try:
            if use_pool:
                if fut_gen is None:
                    gen = pool.generation
                    fut, gen = pool.submit(worker_fn, (task, item, attempt))
                else:
                    fut, gen = fut_gen
                out, stats = fut.result(timeout=policy.task_timeout)
            else:
                out, stats = worker_fn((task, item, attempt))
            counters.merge(stats)
            return out
        except FuturesTimeout as e:
            # Straggler: abandon the pool attempt (it may still finish,
            # its result is simply never merged) and re-execute in the
            # parent, where progress is guaranteed.
            counters.incr("straggler_reexecutions")
            use_pool = False
            last_exc = e
        except BrokenProcessPool as e:
            counters.incr("worker_crashes")
            pool.recreate(gen)
            use_pool = False
            last_exc = e
        except SkipBudgetExceeded:
            raise
        except (KeyboardInterrupt, SystemExit):
            # Never retried: a user abort / interpreter shutdown must
            # tear the job down, not burn the remaining attempts.
            raise
        except Exception as e:
            last_exc = e
            counters.incr(f"{phase}_attempt_failures")
        fut_gen = None
        attempt += 1
    if policy.skip_bad_records:
        return skip_fn(task, item, policy, counters)
    raise FatalTaskError(
        f"{phase} task over item {idx} of {task.name!r} failed after "
        f"{policy.max_retries + 1} attempts"
    ) from last_exc


def _execute_phase(
    worker_fn: Callable,
    task: MapReduceTask,
    items: list,
    policy: RetryPolicy,
    counters: Counters,
    pool: Backend | None,
    phase: str,
    skip_fn: Callable,
    on_item_done: Callable[[int], None] | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list:
    """Run every item through ``worker_fn`` with recovery; ordered results.

    ``should_stop`` is the graceful-shutdown hook: it is consulted at
    item boundaries only, so the item in flight always completes (is
    "drained") before the phase aborts with ``KeyboardInterrupt`` —
    which the REP401 contract guarantees propagates through every
    enclosing handler.
    """
    futures: dict[int, tuple | None] = {}
    if pool is not None:
        for i, item in enumerate(items):
            try:
                futures[i] = pool.submit(worker_fn, (task, item, 0))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                # Pool broken at submit time; _run_item resubmits after
                # the rebuild.  Counted so a swallowed burst is visible.
                counters.incr("presubmit_failures")
                futures[i] = None
    results = []
    for i, item in enumerate(items):
        if should_stop is not None and should_stop():
            counters.incr("chunks_drained", i)
            raise KeyboardInterrupt(
                f"shutdown requested; drained {i}/{len(items)} "
                f"{phase} task(s)"
            )
        results.append(
            _run_item(
                worker_fn, task, item, i, policy, counters, pool, phase,
                skip_fn, futures.get(i),
            )
        )
        telemetry.tick(phase, total=len(items), unit="tasks")
        if on_item_done is not None:
            on_item_done(i)
    return results


# -- skip mode (Hadoop-style bad-record bisection) ---------------------------
def _account_skip(counters: Counters, policy: RetryPolicy, stats: dict) -> None:
    counters.merge(stats)
    if (
        policy.max_skipped_records is not None
        and counters["skipped_records"] > policy.max_skipped_records
    ):
        raise SkipBudgetExceeded(
            f"skipped {counters['skipped_records']} records, budget is "
            f"{policy.max_skipped_records}"
        )


def _skip_map_chunk(
    task: MapReduceTask, chunk: list[KV], policy: RetryPolicy, counters: Counters
) -> list[KV]:
    """Bisect a repeatedly failing map chunk, skipping poison records.

    Runs in the parent at attempt ``max_retries + 1``, so attempt-gated
    (transient) faults are already quiet and only genuinely poisonous
    records keep raising — those are isolated in O(k log n) mapper runs
    and counted as both consumed input and ``skipped_records``.
    """
    out: list[KV] = []
    post_retry_attempt = policy.max_retries + 1

    def rec(records: list[KV]) -> None:
        faults.set_current_attempt(post_retry_attempt)
        try:
            pairs, stats = _map_chunk((task, records))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            if len(records) == 1:
                _account_skip(
                    counters,
                    policy,
                    {"map_input_records": 1, "skipped_records": 1},
                )
                return
            mid = len(records) // 2
            rec(records[:mid])
            rec(records[mid:])
        else:
            counters.merge(stats)
            out.extend(pairs)

    try:
        rec(list(chunk))
    finally:
        faults.set_current_attempt(0)
    return out


def _skip_reduce_partition(
    task: MapReduceTask, partition, policy: RetryPolicy, counters: Counters
) -> list[KV]:
    """Bisect a failing reduce partition over its key groups.

    A poison *key* is skipped whole: its group never reaches the output
    and its records are counted as ``skipped_records``.
    """
    if isinstance(partition, SpilledPartition):
        partition = partition.load()
    groups = _group_by_key(partition)
    keys = _sorted_keys(groups)
    out: list[KV] = []
    post_retry_attempt = policy.max_retries + 1

    def rec(key_slice: list) -> None:
        faults.set_current_attempt(post_retry_attempt)
        produced: list[KV] = []
        try:
            for k in key_slice:
                produced.extend(task.reducer(k, groups[k]))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            if len(key_slice) == 1:
                k = key_slice[0]
                _account_skip(
                    counters,
                    policy,
                    {
                        "reduce_input_groups": 1,
                        "skipped_groups": 1,
                        "skipped_records": len(groups[k]),
                    },
                )
                return
            mid = len(key_slice) // 2
            rec(key_slice[:mid])
            rec(key_slice[mid:])
        else:
            counters.merge(
                {
                    "reduce_input_groups": len(key_slice),
                    "reduce_output_records": len(produced),
                }
            )
            out.extend(produced)

    try:
        rec(keys)
    finally:
        faults.set_current_attempt(0)
    return out


# -- the reliable job runner --------------------------------------------------
def run_task_reliable(
    task: MapReduceTask,
    inputs: Iterable[KV],
    n_workers: int = 1,
    n_partitions: int | None = None,
    counters: Counters | None = None,
    spill_dir: str | None = None,
    chunk_size: int = 4096,
    policy: RetryPolicy | None = None,
    backend="fork",
) -> list[KV]:
    """Execute one map-reduce job with retries, timeouts, and skip mode.

    Same dataflow and output contract as
    :func:`repro.mapreduce.engine.run_task` (keys reduced in sorted
    order, output concatenated in stable partition order), plus the
    recovery behavior described in the module docstring.

    ``backend`` (a registry name — ``"fork"`` by default — or a
    :class:`repro.distributed.Backend` instance) is the execution
    substrate under the recovery loop.  String-named backends are
    created and shut down here; instances are caller-owned.
    """
    inputs = list(inputs) if not isinstance(inputs, list) else inputs
    if counters is None:
        counters = telemetry.active_counters() or Counters()
    if n_partitions is None:
        n_partitions = max(1, n_workers)
    if policy is None:
        policy = RetryPolicy()

    chunks = [inputs[i : i + chunk_size] for i in range(0, len(inputs), chunk_size)]
    from ..distributed.backend import resolve_backend

    backend_obj, owned_backend = resolve_backend(backend, n_workers)
    # One pool serves both phases, so it is wanted when *either* has
    # enough items: a one-chunk map still needs it for straggler
    # re-execution across the reduce partitions.
    pool = (
        backend_obj
        if backend_obj.want_pool(n_workers, max(len(chunks), n_partitions))
        else None
    )
    try:
        with telemetry.span(
            "mapreduce.map", task=task.name, chunks=len(chunks)
        ):
            map_outs = _execute_phase(
                _map_attempt, task, chunks, policy, counters, pool, "map",
                _skip_map_chunk,
            )
        with telemetry.span("mapreduce.shuffle", task=task.name):
            partitions: list[list[KV]] = [[] for _ in range(n_partitions)]
            for pairs in map_outs:
                for k, v in pairs:
                    partitions[stable_partition(k, n_partitions)].append((k, v))

            items: list = partitions
            spills: list[SpilledPartition] | None = None
            if spill_dir is not None:
                items = spills = _spill_partitions(partitions, spill_dir)
                del partitions
                counters.incr("spilled_partitions", len(spills))
                counters.incr("spilled_pairs", sum(s.n_pairs for s in spills))
        on_done = (lambda i: spills[i].delete()) if spills is not None else None
        with telemetry.span(
            "mapreduce.reduce", task=task.name, partitions=n_partitions
        ):
            reduce_outs = _execute_phase(
                _reduce_attempt, task, items, policy, counters, pool, "reduce",
                _skip_reduce_partition, on_item_done=on_done,
            )
    finally:
        counters.merge(backend_obj.harvest())
        if owned_backend:
            backend_obj.shutdown()
    out: list[KV] = []
    for pairs in reduce_outs:
        out.extend(pairs)
    return out


def call_with_retries(
    fn: Callable[[], object],
    policy: RetryPolicy,
    counters: Counters | None = None,
    description: str = "operation",
):
    """Retry an arbitrary zero-arg callable under a :class:`RetryPolicy`.

    The function-level analogue of a task attempt, for monolithic
    stages (e.g. a whole-corrector fit) that are not chunked jobs.
    """
    last_exc: BaseException | None = None
    for attempt in range(policy.max_retries + 1):
        if attempt > 0:
            if counters is not None:
                counters.incr("retries")
            time.sleep(policy.backoff_seconds(attempt))
        if counters is not None:
            counters.incr("task_attempts")
        try:
            return fn()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as e:
            last_exc = e
            if counters is not None:
                counters.incr("attempt_failures")
    raise FatalTaskError(
        f"{description} failed after {policy.max_retries + 1} attempts"
    ) from last_exc


# -- CLI surface --------------------------------------------------------------
def add_reliability_flags(parser):
    """Attach the shared fault-tolerance flag group to an ArgumentParser;
    returns the group, for a tool with a flag of its own to file there."""
    g = parser.add_argument_group("fault tolerance")
    g.add_argument(
        "--max-retries", type=int, default=None,
        help="task attempts beyond the first for each map chunk / "
             "reduce partition (setting any retry flag enables the "
             "reliable execution path)",
    )
    g.add_argument(
        "--task-timeout", type=float, default=None,
        help="seconds before a pool attempt is re-executed as a straggler",
    )
    g.add_argument(
        "--no-skip-bad-records", action="store_true",
        help="fail the job instead of bisecting and skipping poison records",
    )
    g.add_argument(
        "--max-skipped-records", type=int, default=None,
        help="abort once more than this many records have been skipped",
    )
    g.add_argument(
        "--retry-seed", type=int, default=0,
        help="seed for deterministic backoff jitter",
    )
    return g


def policy_from_args(args) -> RetryPolicy | None:
    """Build a RetryPolicy from parsed flags; None if none were set."""
    if (
        args.max_retries is None
        and args.task_timeout is None
        and not args.no_skip_bad_records
        and args.max_skipped_records is None
    ):
        return None
    return RetryPolicy(
        max_retries=3 if args.max_retries is None else args.max_retries,
        task_timeout=args.task_timeout,
        skip_bad_records=not args.no_skip_bad_records,
        max_skipped_records=args.max_skipped_records,
        seed=args.retry_seed,
    )
