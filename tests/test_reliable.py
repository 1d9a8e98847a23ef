"""Tests for the fault-tolerant MapReduce layer (reliable + faults).

Every fault here is injected through a deterministic, seed-driven
:class:`FaultPlan`, so these tests exercise retries, skip mode,
straggler re-execution, worker-crash degradation, and checkpoint
resume without any flakiness.
"""

import numpy as np
import pytest

from repro.core.closet import tasks as T
from repro.mapreduce import (
    CORRUPTED,
    Counters,
    FatalTaskError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    MapReduceTask,
    Pipeline,
    RetryPolicy,
    SkipBudgetExceeded,
    run_task,
    run_task_reliable,
)

FAST = dict(backoff_base=0.001, backoff_jitter=0.0)


# Module-level functions so the multiprocess mode can pickle them.
def wc_mapper(key, value):
    for word in value.split():
        yield word, 1


def wc_reducer(key, values):
    yield key, sum(values)


WORDCOUNT = MapReduceTask("wordcount", wc_mapper, wc_reducer)


def wc_inputs(n=40):
    return [(i, "alpha beta gamma alpha") for i in range(n)]


def wc_expected(n=40):
    return {"alpha": 2 * n, "beta": n, "gamma": n}


# -- equivalence with the plain engine ---------------------------------------
def test_reliable_matches_plain_serial():
    plain = run_task(WORDCOUNT, wc_inputs())
    reliable = run_task_reliable(WORDCOUNT, wc_inputs(), policy=RetryPolicy())
    assert reliable == plain


def test_reliable_matches_plain_parallel():
    plain = dict(run_task(WORDCOUNT, wc_inputs(), n_workers=2))
    reliable = dict(
        run_task_reliable(
            WORDCOUNT, wc_inputs(), n_workers=2, policy=RetryPolicy(**FAST)
        )
    )
    assert reliable == plain == wc_expected()


def test_run_task_policy_param_routes_to_reliable():
    counters = Counters()
    out = run_task(
        WORDCOUNT, wc_inputs(), counters=counters, policy=RetryPolicy(**FAST)
    )
    assert dict(out) == wc_expected()
    assert counters["task_attempts"] >= 2  # map chunk + reduce partition


def test_reliable_empty_input():
    assert run_task_reliable(WORDCOUNT, [], policy=RetryPolicy(**FAST)) == []


# -- retries ------------------------------------------------------------------
def test_transient_map_faults_recovered_by_retry():
    plan = FaultPlan(
        seed=3,
        specs=(FaultSpec(kind="raise", phase="map", rate=0.3, max_attempt=1),),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        counters=counters,
        policy=RetryPolicy(max_retries=2, **FAST),
        chunk_size=5,
    )
    assert dict(out) == wc_expected()
    assert counters["retries"] > 0
    assert counters["skipped_records"] == 0


def test_transient_reduce_faults_recovered_by_retry():
    plan = FaultPlan(
        seed=0,
        specs=(
            FaultSpec(kind="raise", phase="reduce", keys=("beta",), max_attempt=1),
        ),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        counters=counters,
        policy=RetryPolicy(max_retries=2, **FAST),
    )
    assert dict(out) == wc_expected()
    assert counters["retries"] >= 1


def test_backoff_is_deterministic_and_grows():
    p = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, seed=7)
    assert p.backoff_seconds(1, salt=0) == p.backoff_seconds(1, salt=0)
    assert p.backoff_seconds(1, salt=0) != p.backoff_seconds(1, salt=1)
    assert p.backoff_seconds(3) > p.backoff_seconds(1)


# -- bad-record skip mode -----------------------------------------------------
def test_poison_map_record_skipped_and_isolated():
    plan = FaultPlan(
        specs=(FaultSpec(kind="raise", phase="map", keys=(7,), max_attempt=None),),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        counters=counters,
        policy=RetryPolicy(max_retries=1, **FAST),
        chunk_size=10,
    )
    n = len(wc_inputs())
    assert dict(out) == {"alpha": 2 * (n - 1), "beta": n - 1, "gamma": n - 1}
    assert counters["skipped_records"] == 1
    # Skipped records still count as consumed input.
    assert counters["map_input_records"] == n


def test_poison_reduce_key_skipped():
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="raise", phase="reduce", keys=("beta",), max_attempt=None),
        ),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        counters=counters,
        policy=RetryPolicy(max_retries=1, **FAST),
    )
    n = len(wc_inputs())
    assert dict(out) == {"alpha": 2 * n, "gamma": n}
    assert counters["skipped_groups"] == 1
    assert counters["skipped_records"] == n  # the whole 'beta' group


def test_skip_disabled_raises_fatal():
    plan = FaultPlan(
        specs=(FaultSpec(kind="raise", phase="map", keys=(7,), max_attempt=None),),
    )
    with pytest.raises(FatalTaskError):
        run_task_reliable(
            plan.wrap(WORDCOUNT),
            wc_inputs(),
            policy=RetryPolicy(max_retries=1, skip_bad_records=False, **FAST),
        )
    # A pooled run_task without a policy is the same runner at one
    # attempt: the mapper's own exception stays reachable.
    with pytest.raises(FatalTaskError) as failed:
        run_task(plan.wrap(WORDCOUNT), wc_inputs(), n_workers=2)
    assert isinstance(failed.value.__cause__, InjectedFault)


def test_skip_budget_enforced():
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind="raise", phase="map", keys=(1, 2, 3, 4), max_attempt=None
            ),
        ),
    )
    with pytest.raises(SkipBudgetExceeded):
        run_task_reliable(
            plan.wrap(WORDCOUNT),
            wc_inputs(),
            policy=RetryPolicy(max_retries=0, max_skipped_records=2, **FAST),
        )


# -- counters under partial failure (no double merge) -------------------------
@pytest.mark.parametrize("n_workers", [1, 2])
def test_map_input_records_exact_under_faults(n_workers):
    """Counters from failed attempts must never pollute the job totals."""
    n = 60
    plan = FaultPlan(
        seed=5,
        specs=(
            FaultSpec(kind="raise", phase="map", rate=0.25, max_attempt=1),
            FaultSpec(kind="raise", phase="map", keys=(11,), max_attempt=None),
        ),
    )
    counters = Counters()
    run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(n),
        n_workers=n_workers,
        counters=counters,
        policy=RetryPolicy(max_retries=3, **FAST),
        chunk_size=7,
    )
    assert counters["retries"] > 0
    assert counters["skipped_records"] == 1
    # Every input record is counted exactly once despite retried chunks.
    assert counters["map_input_records"] == n
    assert counters["map_output_records"] == 4 * (n - 1)


def test_counters_clean_run_unchanged_by_reliable_path():
    plain, reliable = Counters(), Counters()
    run_task(WORDCOUNT, wc_inputs(), counters=plain)
    run_task_reliable(
        WORDCOUNT, wc_inputs(), counters=reliable, policy=RetryPolicy(**FAST)
    )
    for key in ("map_input_records", "map_output_records",
                "reduce_input_groups", "reduce_output_records"):
        assert reliable[key] == plain[key]


# -- stragglers and dead workers ---------------------------------------------
def test_hanging_reducer_reexecuted_as_straggler():
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind="hang",
                phase="reduce",
                keys=("alpha",),
                max_attempt=1,
                hang_seconds=1.0,
            ),
        ),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        n_workers=2,
        counters=counters,
        policy=RetryPolicy(max_retries=2, task_timeout=0.25, **FAST),
    )
    assert dict(out) == wc_expected()
    assert counters["straggler_reexecutions"] >= 1


def test_crashed_worker_degrades_to_serial():
    plan = FaultPlan(
        specs=(FaultSpec(kind="crash", phase="map", keys=(3,), max_attempt=1),),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        n_workers=2,
        counters=counters,
        policy=RetryPolicy(max_retries=2, **FAST),
        chunk_size=10,
    )
    assert dict(out) == wc_expected()
    assert counters["worker_crashes"] >= 1
    assert counters["map_input_records"] == len(wc_inputs())


# -- fault plan determinism ---------------------------------------------------
def test_fault_plan_is_deterministic():
    spec = FaultSpec(kind="raise", phase="map", rate=0.3)
    plan_a = FaultPlan(seed=9, specs=(spec,))
    plan_b = FaultPlan(seed=9, specs=(spec,))
    keys = list(range(200)) + [f"k{i}" for i in range(200)]
    assert [plan_a.fires(spec, k) for k in keys] == [
        plan_b.fires(spec, k) for k in keys
    ]
    hit_rate = sum(plan_a.fires(spec, k) for k in keys) / len(keys)
    assert 0.15 < hit_rate < 0.45  # roughly the configured rate


def test_fault_plan_different_seeds_differ():
    spec = FaultSpec(kind="raise", phase="map", rate=0.3)
    keys = list(range(300))
    a = [FaultPlan(seed=1, specs=(spec,)).fires(spec, k) for k in keys]
    b = [FaultPlan(seed=2, specs=(spec,)).fires(spec, k) for k in keys]
    assert a != b


def test_corrupt_fault_emits_marker_pairs():
    plan = FaultPlan(
        specs=(FaultSpec(kind="corrupt", phase="map", keys=(0,), max_attempt=None),),
    )
    task = plan.wrap(MapReduceTask("id", lambda k, v: [(k, v)], wc_reducer))
    out = list(task.mapper(0, "value"))
    assert out == [(0, CORRUPTED)]
    assert list(task.mapper(1, "value")) == [(1, "value")]


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="explode")
    with pytest.raises(ValueError):
        FaultSpec(kind="raise", phase="shuffle")


# -- spill + recovery interplay ----------------------------------------------
def test_reliable_with_spill_and_poison_reduce_key(tmp_path):
    plan = FaultPlan(
        specs=(
            FaultSpec(kind="raise", phase="reduce", keys=("beta",), max_attempt=None),
        ),
    )
    counters = Counters()
    out = run_task_reliable(
        plan.wrap(WORDCOUNT),
        wc_inputs(),
        n_workers=2,
        counters=counters,
        spill_dir=str(tmp_path),
        policy=RetryPolicy(max_retries=1, **FAST),
    )
    n = len(wc_inputs())
    assert dict(out) == {"alpha": 2 * n, "gamma": n}
    assert counters["skipped_groups"] == 1
    assert list(tmp_path.iterdir()) == []  # spill files cleaned up


# -- acceptance: 3-stage CLOSET pipeline under a fault barrage ---------------
def _closet_inputs(n_reads=40, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (
            rid,
            np.unique(rng.integers(0, 400, size=30)).astype(np.uint64),
        )
        for rid in range(n_reads)
    ]


def _closet_stages():
    return [
        T.task_sketch_selection(modulus=8, residue=0, cmax=64),
        T.task_edge_generation(),
        T.task_redundant_removal(),
    ]


def _hang_key(inputs, modulus=8, residue=0):
    """A sketch hash that stage 1's reducer is guaranteed to see."""
    for _, hashes in inputs:
        sel = hashes[(hashes % np.uint64(modulus)) == np.uint64(residue)]
        if len(sel):
            return int(sel[0])
    raise AssertionError("no sketch hash matched the residue")


def test_closet_pipeline_completes_under_faults(tmp_path):
    """ISSUE acceptance: ~5% raising mappers + one hanging reducer + a
    poison record, 3 CLOSET stages, n_workers=4 — the job completes
    with correct output modulo the skipped record, and the counters
    show recovery actually happened."""
    inputs = _closet_inputs()
    poison_rid = 13
    plan = FaultPlan(
        seed=11,
        specs=(
            # ~5% of map records raise on their first attempt.
            FaultSpec(kind="raise", phase="map", rate=0.05, max_attempt=1),
            # One guaranteed transient map fault (stage 1 sees rid keys).
            FaultSpec(kind="raise", phase="map", keys=(2,), max_attempt=1),
            # One hanging reducer in stage 1.
            FaultSpec(
                kind="hang",
                phase="reduce",
                keys=(_hang_key(inputs),),
                max_attempt=1,
                hang_seconds=1.0,
            ),
            # One permanently poisonous input record.
            FaultSpec(
                kind="raise", phase="map", keys=(poison_rid,), max_attempt=None
            ),
        ),
    )
    policy = RetryPolicy(max_retries=2, task_timeout=0.3, **FAST)
    pipe = Pipeline(
        [plan.wrap(t) for t in _closet_stages()],
        n_workers=4,
        policy=policy,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    out = pipe.run(inputs)

    # Reference: the clean pipeline over the inputs minus the poison
    # record (its mapper contributions were skipped, nothing else).
    clean = Pipeline(_closet_stages())
    expected = clean.run([kv for kv in inputs if kv[0] != poison_rid])
    assert sorted(out, key=repr) == sorted(expected, key=repr)

    assert pipe.total_counter("retries") > 0
    assert pipe.total_counter("skipped_records") >= 1
    assert pipe.total_counter("straggler_reexecutions") >= 1
    assert pipe.total_counter("map_input_records") >= len(inputs)
    table = pipe.report_table()
    assert [row["stage"] for row in table] == [
        t.name for t in _closet_stages()
    ]


# -- checkpointing and crash resume ------------------------------------------
STAGE_RUNS: list[str] = []


def tracking_mapper(key, value, stage=""):
    STAGE_RUNS.append(stage)
    yield key, value


def sum_values_reducer(key, values):
    yield key, sum(v if isinstance(v, int) else 1 for v in values)


def _tracked_stage(stage_name):
    from functools import partial

    return MapReduceTask(
        stage_name,
        partial(tracking_mapper, stage=stage_name),
        sum_values_reducer,
    )


def test_pipeline_resumes_from_last_checkpoint_after_crash(tmp_path):
    """ISSUE acceptance: after a simulated crash, a re-invocation of
    Pipeline.run resumes from the last checkpointed stage, not stage 0."""
    STAGE_RUNS.clear()
    inputs = [(i, 1) for i in range(12)]
    poison = FaultPlan(
        specs=(FaultSpec(kind="raise", phase="map", rate=1.0, max_attempt=None),),
    )
    stages = [_tracked_stage("s0"), _tracked_stage("s1"), _tracked_stage("s2")]
    crashing = Pipeline(
        [stages[0], stages[1], poison.wrap(stages[2])],
        policy=RetryPolicy(max_retries=0, skip_bad_records=False, **FAST),
        checkpoint_dir=str(tmp_path),
    )
    with pytest.raises(FatalTaskError):
        crashing.run(inputs)
    runs_before = list(STAGE_RUNS)
    assert "s0" in runs_before and "s1" in runs_before

    # "Restart the process": a fresh Pipeline over the same checkpoint
    # dir, with the fault fixed, resumes past s0 and s1.
    STAGE_RUNS.clear()
    fixed = Pipeline(stages, checkpoint_dir=str(tmp_path))
    out = fixed.run(inputs)
    assert set(STAGE_RUNS) == {"s2"}  # earlier stages never re-ran
    assert [r.from_checkpoint for r in fixed.reports] == [True, True, False]

    # And the resumed output matches a from-scratch run.
    STAGE_RUNS.clear()
    scratch = Pipeline(stages).run(inputs)
    assert out == scratch


def test_pipeline_checkpoint_invalidated_by_input_change(tmp_path):
    stages = [_tracked_stage("a0"), _tracked_stage("a1")]
    pipe = Pipeline(stages, checkpoint_dir=str(tmp_path))
    pipe.run([(i, 1) for i in range(5)])
    pipe2 = Pipeline(stages, checkpoint_dir=str(tmp_path))
    pipe2.run([(i, 2) for i in range(5)])  # different inputs
    assert all(not r.from_checkpoint for r in pipe2.reports)


def test_pipeline_resume_flag_forces_rerun(tmp_path):
    stages = [_tracked_stage("b0")]
    inputs = [(0, 1)]
    Pipeline(stages, checkpoint_dir=str(tmp_path)).run(inputs)
    pipe = Pipeline(stages, checkpoint_dir=str(tmp_path))
    pipe.run(inputs, resume=False)
    assert not pipe.reports[0].from_checkpoint


def test_checkpoint_store_rejects_corrupt_manifest(tmp_path):
    from repro.mapreduce import CheckpointStore

    store = CheckpointStore(tmp_path)
    store.save("stage", 0, "fp", [1, 2, 3])
    assert store.load("stage", 0, "fp")[0] == [1, 2, 3]
    assert store.load("stage", 0, "other-fp") is None
    next(tmp_path.glob("*.json")).write_text("{not json")
    assert store.load("stage", 0, "fp") is None


# -- CLOSET driver integration ------------------------------------------------
def test_closet_driver_accepts_policy_and_checkpoint(tmp_path):
    from repro.core.closet import ClosetClusterer, ClosetParams, SketchParams
    from repro.io.readset import ReadSet

    rng = np.random.default_rng(0)
    seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 60)) for _ in range(12)]
    seqs += [s[:55] + "ACGTA" for s in seqs[:6]]  # similar pairs
    reads = ReadSet.from_strings(seqs)
    params = ClosetParams(
        sketch=SketchParams(k=9, modulus=4, rounds=2, cmin=0.3)
    )
    base = ClosetClusterer(params).run(
        reads, thresholds=[0.5], backend="mapreduce"
    )
    res = ClosetClusterer(params).run(
        reads,
        thresholds=[0.5],
        backend="mapreduce",
        policy=RetryPolicy(max_retries=1, **FAST),
        checkpoint_dir=str(tmp_path),
    )
    assert res.edge_result.n_confirmed == base.edge_result.n_confirmed
    assert {t: len(c) for t, c in res.clusters.items()} == {
        t: len(c) for t, c in base.clusters.items()
    }
    # Second run resumes the edge phase from the checkpoint.
    res2 = ClosetClusterer(params).run(
        reads,
        thresholds=[0.5],
        backend="mapreduce",
        checkpoint_dir=str(tmp_path),
    )
    assert res2.stage_seconds["sketching"] == 0.0
    assert res2.edge_result.n_confirmed == res.edge_result.n_confirmed
