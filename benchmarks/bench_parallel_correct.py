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
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro import telemetry
from repro.core.reptile import ReptileCorrector
from repro.parallel import correct_in_parallel
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads

#: Required speedup of 4 workers over serial (acceptance bar).
SPEEDUP_TARGET = 2.0


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
    args = p.parse_args(argv)
    if args.smoke:
        args.genome_length = 1_500
        args.coverage = 8.0
        args.chunk_size = 128
        args.workers = [1]
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
