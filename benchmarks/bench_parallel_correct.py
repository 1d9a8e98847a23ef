"""Extension — wall-clock scaling of the parallel batch-correction engine.

The repo's first hardware-scaling benchmark: one Reptile corrector is
fitted serially (phase 1), then the per-read correction phase runs
through :func:`repro.parallel.correct_in_parallel` at increasing worker
counts over the same shared spectrum.  Two claims are checked:

- **equivalence** — every parallel run must be bitwise identical to the
  serial whole-set correction (always asserted, at any scale);
- **speedup** — with enough physical cores, 4 workers must beat the
  serial path by >= 2x.  The speedup assertion is skipped (with a
  printed notice) when the machine exposes fewer cores than the worker
  count being judged — a 1-core container cannot demonstrate scaling,
  only correctness.

Runs under pytest (``python -m pytest benchmarks/bench_parallel_correct.py``)
or standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_correct.py [--smoke]

``--smoke`` is the CI bit-rot guard: a tiny dataset, 1 worker, full
equivalence checking, a few seconds end to end.

``--hotpath`` switches to the hot-path ablation: the scalar legacy
correction loop vs each fast path (batched tile kernels, tile memo
cache, Bloom prefilter) alone and combined, over one shared phase-1
fit.  Byte-equivalence with the scalar baseline is always asserted;
``--hotpath-report BENCH_hotpath.json`` emits the committed
``repro-bench-report/1`` perf-trajectory artifact (see
docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace

import numpy as np

from repro import telemetry
from repro.core import HotpathConfig
from repro.core.reptile import ReptileCorrector
from repro.parallel import correct_in_parallel
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads
from repro.telemetry.report import (
    BENCH_SCHEMA_VERSION,
    environment_info,
    validate_bench_report_dict,
)

#: Required speedup of 4 workers over serial (acceptance bar).
SPEEDUP_TARGET = 2.0

#: Required all-on speedup over the scalar baseline on the full bench
#: corpus (the committed BENCH_hotpath.json artifact).  CI runs the
#: same ablation on a small corpus with a more conservative floor.
HOTPATH_SPEEDUP_FLOOR = 3.0

#: The ablation grid: each fast path alone, then all together.  The
#: scalar baseline is the legacy per-tile path, instruction for
#: instruction (see docs/performance.md).
HOTPATH_CONFIGS: tuple[tuple[str, HotpathConfig], ...] = (
    ("scalar", HotpathConfig.all_off()),
    ("batch", replace(HotpathConfig.all_off(), batch=True)),
    ("memo", replace(HotpathConfig.all_off(), memo=True)),
    ("prefilter", replace(HotpathConfig.all_off(), prefilter=True)),
    ("all_on", HotpathConfig.all_on()),
)


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def build_dataset(
    genome_length: int, coverage: float, read_length: int = 36,
    error_rate: float = 0.008, seed: int = 7,
):
    rng = np.random.default_rng(seed)
    genome = simulate_genome(repeat_spec(genome_length, 0.0), rng)
    model = illumina_like_model(
        read_length, base_rate=error_rate, end_multiplier=4.0
    )
    return simulate_reads(
        genome, read_length, model, rng, coverage=coverage
    ).reads


def run_scaling(
    reads,
    workers_list: tuple[int, ...],
    chunk_size: int,
) -> list[dict]:
    """Fit once, correct at each worker count, return timing rows.

    Raises ``AssertionError`` if any run's output differs from the
    serial whole-set correction.
    """
    with telemetry.span("fit"):
        corrector = ReptileCorrector.fit(reads)
    with telemetry.span("serial_baseline"):
        t0 = time.perf_counter()
        baseline = corrector.correct(reads)
        serial_seconds = time.perf_counter() - t0

    rows = [
        {
            "workers": "serial",
            "mode": "whole-set",
            "seconds": round(serial_seconds, 3),
            "speedup": 1.0,
            "identical": True,
        }
    ]
    for w in workers_list:
        report = correct_in_parallel(
            corrector,
            reads,
            workers=w,
            chunk_size=chunk_size,
        )
        identical = bool(
            np.array_equal(report.reads.codes, baseline.codes)
            and np.array_equal(report.reads.lengths, baseline.lengths)
        )
        assert identical, (
            f"parallel output at {w} workers diverged from serial correction"
        )
        rows.append(
            {
                "workers": w,
                "mode": report.mode,
                "seconds": round(report.wall_seconds, 3),
                "speedup": round(serial_seconds / report.wall_seconds, 2),
                "identical": identical,
            }
        )
    return rows


def run_hotpath_ablation(reads, repeats: int = 1) -> list[dict]:
    """Time each hot-path configuration over the same phase-1 tables.

    Phase 1 (spectrum, tiles, thresholds) is fitted **once** with every
    fast path off; each ablation corrector is then rebuilt around the
    same shared structures, so the rows measure only the correction
    pass.  Every config's output is asserted byte-identical to the
    scalar baseline before any timing claim is recorded.
    """
    with telemetry.span("fit"):
        base = ReptileCorrector.fit(reads, hotpath=HotpathConfig.all_off())

    def _time(corrector):
        best, corrected = None, None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            corrected = corrector.correct(reads)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, corrected

    rows: list[dict] = []
    baseline_codes = baseline_lengths = baseline_seconds = None
    for name, hp in HOTPATH_CONFIGS:
        corrector = (
            base
            if name == "scalar"
            else ReptileCorrector(
                params=base.params,
                spectrum=base.spectrum,
                tiles=base.tiles,
                hotpath=hp,
            )
        )
        with telemetry.span(f"correct[{name}]"):
            seconds, corrected = _time(corrector)
        if name == "scalar":
            baseline_codes = corrected.codes
            baseline_lengths = corrected.lengths
            baseline_seconds = seconds
        identical = bool(
            np.array_equal(corrected.codes, baseline_codes)
            and np.array_equal(corrected.lengths, baseline_lengths)
        )
        assert identical, (
            f"hot-path config {name!r} diverged from the scalar baseline"
        )
        rows.append(
            {
                "name": name,
                "batch": hp.batch,
                "memo": hp.memo,
                "prefilter": hp.prefilter,
                "wall_seconds": round(seconds, 4),
                "reads_per_second": round(reads.n_reads / max(seconds, 1e-9), 1),
                "speedup_vs_baseline": round(baseline_seconds / max(seconds, 1e-9), 2),
                "equivalent_to_baseline": identical,
            }
        )
    return rows


def hotpath_report(
    rows: list[dict], corpus: dict, speedup_floor: float
) -> dict:
    """Assemble (and self-validate) a ``repro-bench-report/1`` document."""
    report = {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": "bench_parallel_correct/hotpath_ablation",
        "corpus": corpus,
        "environment": environment_info(),
        "baseline": "scalar",
        "speedup_floor": speedup_floor,
        "configs": rows,
    }
    problems = validate_bench_report_dict(report)
    assert not problems, f"bench report failed self-validation: {problems}"
    return report


def _check_hotpath_speedup(rows: list[dict], floor: float) -> None:
    all_on = next(r for r in rows if r["name"] == "all_on")
    assert all_on["speedup_vs_baseline"] >= floor, (
        f"all-on hot path is {all_on['speedup_vs_baseline']}x the scalar "
        f"baseline, below the {floor}x floor"
    )


def _print_rows(title: str, rows: list[dict]) -> None:
    print(f"\n=== {title} ===")
    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))


def _check_speedup(rows: list[dict], require: bool) -> None:
    at4 = [r for r in rows if r["workers"] == 4]
    if not at4:
        return
    cores = _effective_cores()
    if cores >= 4 or require:
        assert at4[0]["speedup"] >= SPEEDUP_TARGET, (
            f"4-worker speedup {at4[0]['speedup']}x below the "
            f"{SPEEDUP_TARGET}x target ({cores} cores available)"
        )
    else:
        print(
            f"[speedup assertion skipped: only {cores} CPU core(s) "
            f"visible — equivalence still verified]"
        )


def test_parallel_correct_scaling():
    reads = build_dataset(genome_length=12_000, coverage=30.0)
    rows = run_scaling(reads, workers_list=(1, 2, 4), chunk_size=1024)
    _print_rows(
        f"Parallel Reptile correction, {reads.n_reads} reads", rows
    )
    _check_speedup(rows, require=False)


def test_hotpath_ablation_equivalence_smoke():
    """Every ablation config is byte-identical to the scalar baseline
    and the emitted artifact satisfies repro-bench-report/1.  (Speedup
    is not asserted at smoke scale — the committed artifact and the CI
    bench job own that claim.)"""
    reads = build_dataset(genome_length=1_500, coverage=8.0, seed=11)
    rows = run_hotpath_ablation(reads)
    assert [r["name"] for r in rows] == [n for n, _ in HOTPATH_CONFIGS]
    assert all(r["equivalent_to_baseline"] for r in rows)
    report = hotpath_report(
        rows,
        {"genome_length": 1_500, "coverage": 8.0, "reads": reads.n_reads},
        HOTPATH_SPEEDUP_FLOOR,
    )
    assert validate_bench_report_dict(report) == []


def _main_hotpath(args: argparse.Namespace) -> int:
    """The ``--hotpath`` entry point: ablate, assert, emit artifact."""
    with telemetry.session("bench-hotpath-ablation"):
        with telemetry.span("build_dataset"):
            reads = build_dataset(args.genome_length, args.coverage)
        rows = run_hotpath_ablation(reads, repeats=args.hotpath_repeats)
    _print_rows(
        f"Hot-path ablation, {reads.n_reads} reads "
        f"({_effective_cores()} cores)",
        rows,
    )
    print("equivalence: all configs byte-identical to the scalar baseline")
    report = hotpath_report(
        rows,
        {
            "genome_length": args.genome_length,
            "coverage": args.coverage,
            "read_length": 36,
            "error_rate": 0.008,
            "seed": 7,
            "reads": reads.n_reads,
        },
        args.hotpath_floor,
    )
    if args.hotpath_report:
        with open(args.hotpath_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote bench report to {args.hotpath_report}")
    all_on = next(r for r in rows if r["name"] == "all_on")
    if args.require_hotpath_speedup:
        _check_hotpath_speedup(rows, args.hotpath_floor)
        print(
            f"speedup: all-on {all_on['speedup_vs_baseline']}x >= "
            f"{args.hotpath_floor}x floor"
        )
    else:
        print(
            f"speedup: all-on {all_on['speedup_vs_baseline']}x "
            f"(floor {args.hotpath_floor}x recorded, not asserted)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="tiny dataset, 1 worker — the CI bit-rot guard",
    )
    p.add_argument("--genome-length", type=int, default=12_000)
    p.add_argument("--coverage", type=float, default=30.0)
    p.add_argument("--chunk-size", type=int, default=1024)
    p.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="worker counts to measure",
    )
    p.add_argument(
        "--require-speedup", action="store_true",
        help="fail if 4 workers are not >= 2x serial even on a small "
             "machine (default: only asserted when >= 4 cores exist)",
    )
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a repro-run-report/1 JSON report (the same schema "
             "the CLI tools emit; scaling rows land in `extra`)",
    )
    p.add_argument(
        "--hotpath", action="store_true",
        help="run the hot-path ablation (scalar/batch/memo/prefilter/"
             "all_on) instead of the worker-scaling sweep",
    )
    p.add_argument(
        "--hotpath-report", default=None, metavar="PATH",
        help="write the ablation as a repro-bench-report/1 artifact "
             "(e.g. BENCH_hotpath.json)",
    )
    p.add_argument(
        "--hotpath-floor", type=float, default=HOTPATH_SPEEDUP_FLOOR,
        metavar="X",
        help=f"required all-on speedup over scalar "
             f"(default {HOTPATH_SPEEDUP_FLOOR}; CI uses a conservative "
             f"floor on its small corpus)",
    )
    p.add_argument(
        "--require-hotpath-speedup", action="store_true",
        help="fail the run if the all-on config misses --hotpath-floor "
             "(default: floor is printed, only the artifact records it)",
    )
    p.add_argument(
        "--hotpath-repeats", type=int, default=1, metavar="N",
        help="timing repeats per config (best-of-N; default 1)",
    )
    args = p.parse_args(argv)
    if args.smoke:
        args.genome_length = 1_500
        args.coverage = 8.0
        args.chunk_size = 128
        args.workers = [1]
    if args.hotpath:
        return _main_hotpath(args)
    with telemetry.session("bench-parallel-correct") as tel:
        with telemetry.span("build_dataset"):
            reads = build_dataset(args.genome_length, args.coverage)
        rows = run_scaling(
            reads,
            workers_list=tuple(args.workers),
            chunk_size=args.chunk_size,
        )
    _print_rows(
        f"Parallel Reptile correction, {reads.n_reads} reads "
        f"({_effective_cores()} cores)",
        rows,
    )
    _check_speedup(rows, require=args.require_speedup)
    print("equivalence: all runs bitwise identical to serial")
    if args.report:
        path = tel.report(
            argv=list(argv) if argv is not None else None,
            extra={"scaling_rows": rows},
        ).write(args.report)
        print(f"wrote run report to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
