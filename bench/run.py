#!/usr/bin/env python3
"""FASTQ-in → FASTQ-out benchmark of the real entry points.

One invocation measures one workload the way ``BENCHMARK.json`` says::

    python3 bench/run.py --workload lowrep_inmem --seed 7 --seconds 10 --trace 0

and prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).  Without
``--workload`` it runs every workload, untraced then traced, prints every
metric by name with its unit and writes one result file for
``bench/compare.py``::

    python3 bench/run.py --seed 7 --out bench/results/latest.json
    python3 bench/run.py --smoke --out /tmp/smoke.json

See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT,
    SRC,
    BenchError,
    fingerprint,
    pin_numpy_allocator,
)

RESULT_SCHEMA = "repro-fastq-bench/1"
#: Everything the benchmark writes (corpora, outputs, spools, logs) goes
#: under here and is removed after each run unless ``--keep``.
WORK_BASE = ROOT / "bench" / ".work"


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from None


def parse_args(argv: list[str] | None, contract: dict) -> argparse.Namespace:
    names = [w["name"] for w in contract["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, default=None,
                   help="measure this one workload (the driver's spelling)")
    p.add_argument("--workloads", default=None, metavar="A,B",
                   help="comma-separated subset, names unchanged")
    p.add_argument("--seed", type=int, default=7,
                   help="corpus seed: same seed, same inputs")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring window per workload "
                        f"(default {contract['run_seconds']})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, telemetry off; "
                        "1: per-layer metrics from the traced run; "
                        "default: both, one after the other")
    p.add_argument("--repeats", type=int, default=None,
                   help="timed CLI operations at least (default 3)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny corpora, one repeat: proves the plumbing")
    p.add_argument("--out", type=Path, default=None,
                   help="write the full result document (with spans) here")
    p.add_argument("--keep", action="store_true",
                   help="leave the work directory (corpora, outputs, logs)")
    args = p.parse_args(argv)
    if args.workload and args.workloads:
        p.error("--workload and --workloads are exclusive")
    selected = names
    if args.workload:
        selected = [args.workload]
    elif args.workloads:
        selected = [w for w in args.workloads.split(",") if w]
        unknown = sorted(set(selected) - set(names))
        if unknown:
            p.error(f"unknown workload(s): {', '.join(unknown)}")
    args.selected = selected
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(contract["run_seconds"])
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3
    if args.seconds <= 0 or args.repeats < 1:
        p.error("--seconds must be positive and --repeats at least 1")
    args.scale = "smoke" if args.smoke else "full"
    return args


def run_one(name: str, traced: bool, args: argparse.Namespace) -> dict:
    """One workload, one mode, in a work directory of its own that is
    removed afterwards (unless ``--keep``)."""
    from layers import trace_cli_workload
    from served import run_served
    from workloads import CLI_WORKLOADS, run_cli_workload

    WORK_BASE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(
        prefix=f"{name}-{'traced' if traced else 'e2e'}-", dir=WORK_BASE
    ))
    (work / "tmp").mkdir()
    try:
        if name in CLI_WORKLOADS:
            workload = CLI_WORKLOADS[name]
            if traced:
                return trace_cli_workload(workload, args.seed, args.scale, work)
            return run_cli_workload(
                workload, args.seed, args.seconds, args.repeats, args.scale,
                work,
            )
        return run_served(args.seed, args.seconds, args.scale, work, traced)
    finally:
        if args.keep:
            print(f"# kept {work}", file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)


def contract_metrics(result: dict, declared: list[dict], key: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.
    A per-layer metric the workload never exercises reads 0."""
    measured = result[key]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {unknown}")
    out = {}
    for m in declared:
        value = measured.get(m["name"], 0)
        if isinstance(value, tuple):
            value = value[0]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def print_table(name: str, mode: str, metrics: dict) -> None:
    print(f"== {name} [{mode}]")
    width = max(len(n) for n in metrics)
    for metric, v in metrics.items():
        print(f"  {metric:<{width}}  {v['value']:.6g} {v['unit']}")


def measure(name: str, mode: int, args: argparse.Namespace,
            contract: dict) -> dict:
    """One workload in one mode, in this process: the result-file entry."""
    result = run_one(name, bool(mode), args)
    key = "per_layer" if mode else "end_to_end"
    metrics = contract_metrics(result, contract[key], key)
    if not mode:
        for metric, (_, samples) in result[key].items():
            metrics[metric]["samples"] = samples
    print_table(name, key, metrics)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "corpora": result["corpora"],
        "metrics": metrics,
        **{k: result[k] for k in ("samples", "spans") if k in result},
    }


def measure_isolated(name: str, mode: int, args: argparse.Namespace) -> dict:
    """The same, in a harness process of its own — exactly the command
    the driver runs.  A harness grown by an earlier traced run would
    otherwise lend its RSS to every entry point it forks (exec folds the
    old image's high-water mark into the child's ``ru_maxrss``)."""
    key = "per_layer" if mode else "end_to_end"
    WORK_BASE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_BASE) as tmp:
        out = Path(tmp) / "result.json"
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--trace", str(mode),
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--repeats", str(args.repeats), "--out", str(out),
            *(["--smoke"] if args.smoke else []),
            *(["--keep"] if args.keep else []),
        ]
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, timeout=900
        )
        # The child's table, minus its "wrote" note and result line.
        print("\n".join(proc.stdout.splitlines()[:-2]))
        if proc.returncode != 0:
            raise BenchError(f"{name} [{key}] exited {proc.returncode}")
        with open(out) as fh:
            return json.load(fh)["workloads"][name][key]


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    pin_numpy_allocator()
    sys.path.insert(0, str(SRC))
    try:
        contract = load_contract()
        args = parse_args(argv, contract)
        modes = (0, 1) if args.trace is None else (args.trace,)
        pairs = [(name, mode) for name in args.selected for mode in modes]
        document = {
            "schema": RESULT_SCHEMA,
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "repeats": args.repeats,
            "fingerprint": fingerprint(),
            "workloads": {},
        }
        for name, mode in pairs:
            entry = document["workloads"].setdefault(name, {})
            entry["per_layer" if mode else "end_to_end"] = (
                measure(name, mode, args, contract) if len(pairs) == 1
                else measure_isolated(name, mode, args)
            )
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "w") as fh:
                json.dump(document, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"# wrote {args.out}")
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    runs = [
        run for entry in document["workloads"].values()
        for run in entry.values()
    ]
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        # One run: exactly the metrics BENCHMARK.json declares for it.
        "metrics": {
            name: {"value": v["value"], "unit": v["unit"]}
            for name, v in runs[0]["metrics"].items()
        } if len(runs) == 1 else {},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
