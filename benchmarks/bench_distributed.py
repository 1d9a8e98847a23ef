"""Extension — the pluggable distributed backend vs the local engine.

Two claims, one artifact:

- **equivalence** — routing the chunk loop through each backend
  (in-process threads, the default fork pool, socket-connected worker
  processes holding only spectrum *shards*) is bitwise identical to
  serial whole-set correction (always asserted, at any scale);
- **sharded-lookup throughput** — the figure that decides whether a
  sharded spectrum is usable at all: k-mer count lookups per second
  through a :class:`~repro.distributed.ShardRouter`, measured with all
  shards local, and with half the shards answered over real loopback
  RPC (Bloom-prefiltered, as correction runs it).

Runs under pytest (``python -m pytest benchmarks/bench_distributed.py``)
or standalone::

    PYTHONPATH=src python benchmarks/bench_distributed.py [--smoke]
        [--report BENCH_distributed.json]

``--smoke`` is the CI bit-rot guard: a tiny corpus, every backend
exercised end to end, equivalence asserted, no throughput floor.  The
committed ``BENCH_distributed.json`` is the full-scale
``repro-bench-report/1`` perf-trajectory artifact.
"""

from __future__ import annotations

import argparse
import json
import threading
import time

import numpy as np

from repro import telemetry
from repro.core.reptile import ReptileCorrector
from repro.distributed import ShardClientPool, ShardPlan, ShardRouter, split_spectrum
from repro.distributed.socket_backend import SocketBackend
from repro.distributed.worker import ShardServer
from repro.parallel import correct_in_parallel
from repro.simulate.errors import illumina_like_model
from repro.simulate.genome import repeat_spec, simulate_genome
from repro.simulate.illumina import simulate_reads
from repro.telemetry.report import (
    BENCH_SCHEMA_VERSION,
    environment_info,
    validate_bench_report_dict,
)


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


def run_backends(
    reads, workers: int, shards: int, chunk_size: int
) -> list[dict]:
    """Serial baseline, then each backend; assert equivalence."""
    with telemetry.span("fit"):
        corrector = ReptileCorrector.fit(reads)
    with telemetry.span("serial_baseline"):
        t0 = time.perf_counter()
        baseline = corrector.correct(reads)
        serial_seconds = time.perf_counter() - t0
    rows = [
        {
            "name": "serial",
            "workers": 1,
            "shards": 0,
            "wall_seconds": round(serial_seconds, 4),
            "reads_per_second": round(
                reads.n_reads / max(serial_seconds, 1e-9), 1
            ),
            "speedup_vs_baseline": 1.0,
            "equivalent_to_baseline": True,
        }
    ]

    def timed(name, shard_count, backend):
        with telemetry.span(f"backend_{name}"):
            t0 = time.perf_counter()
            report = correct_in_parallel(
                corrector, reads, workers=workers,
                chunk_size=chunk_size, backend=backend,
            )
            seconds = time.perf_counter() - t0
        identical = bool(
            np.array_equal(report.reads.codes, baseline.codes)
        )
        assert identical, f"{name} output diverged from serial"
        rows.append(
            {
                "name": name,
                "workers": workers,
                "shards": shard_count,
                "wall_seconds": round(seconds, 4),
                "reads_per_second": round(
                    reads.n_reads / max(seconds, 1e-9), 1
                ),
                "speedup_vs_baseline": round(
                    serial_seconds / max(seconds, 1e-9), 2
                ),
                "equivalent_to_baseline": identical,
            }
        )

    timed("threads", 0, "threads")
    timed("fork", 0, "fork")
    fleet = SocketBackend(workers=workers, shards=shards)
    try:
        timed(f"socket_{shards}shards", shards, fleet)
        # A second pass on the warm fleet (state already shipped) —
        # the steady-state number a long job actually sees.
        timed(f"socket_{shards}shards_warm", shards, fleet)
    finally:
        fleet.shutdown()
    return rows, corrector


def run_lookup_throughput(
    corrector, n_shards: int, batch: int = 4096, rounds: int = 50
) -> dict:
    """Lookups/second through a ShardRouter, local vs over loopback.

    The query mix mirrors correction's: mostly absent d-mutant
    candidates (the Bloom prefilter answers those) plus a slice of
    genuinely present k-mers that must reach a shard table.
    """
    spectrum = corrector.spectrum.with_prefilter()
    plan = ShardPlan.for_spectrum(spectrum.k, n_shards)
    shards = split_spectrum(spectrum, plan)
    rng = np.random.default_rng(13)
    present = rng.choice(spectrum.kmers, size=batch // 2)
    absent = rng.integers(
        0, 1 << min(2 * spectrum.k, 62), size=batch // 2, dtype=np.uint64
    )
    codes = np.concatenate([present, absent])
    rng.shuffle(codes)

    def timed_router(router):
        expect = spectrum.count(codes)
        t0 = time.perf_counter()
        for _ in range(rounds):
            got = router.count(codes)
        seconds = time.perf_counter() - t0
        assert np.array_equal(got, expect), "sharded lookups diverged"
        return round(rounds * codes.size / max(seconds, 1e-9), 1)

    local_router = ShardRouter(
        k=spectrum.k, plan=plan,
        local={s.shard_id: s for s in shards},
        prefilter=spectrum.prefilter, n_kmers=spectrum.kmers.size,
    )
    local_rate = timed_router(local_router)

    # Half the shards move behind a real loopback shard server.
    server = ShardServer()
    remote_ids = [s.shard_id for s in shards[: max(1, n_shards // 2)]]
    server.shards = {
        s.shard_id: s for s in shards if s.shard_id in remote_ids
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    clients = ShardClientPool(
        {sid: server.address for sid in remote_ids}
    )
    try:
        remote_router = ShardRouter(
            k=spectrum.k, plan=plan,
            local={
                s.shard_id: s
                for s in shards
                if s.shard_id not in remote_ids
            },
            clients=clients,
            prefilter=spectrum.prefilter, n_kmers=spectrum.kmers.size,
        )
        mixed_rate = timed_router(remote_router)
        counters = dict(remote_router.counters)
    finally:
        clients.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return {
        "n_shards": n_shards,
        "remote_shards": len(remote_ids),
        "batch_codes": int(codes.size),
        "local_lookups_per_second": local_rate,
        "mixed_remote_lookups_per_second": mixed_rate,
        "prefiltered_fraction": round(
            counters.get("shard.lookup_prefiltered", 0)
            / max(counters.get("shard.lookup_total", 1), 1),
            3,
        ),
        "rpc_calls": counters.get("shard.rpc_calls", 0),
    }


def bench_report(rows: list[dict], lookup: dict, corpus: dict) -> dict:
    """Assemble (and self-validate) a ``repro-bench-report/1`` doc."""
    report = {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": "bench_distributed/backends",
        "corpus": corpus,
        "environment": environment_info(),
        "baseline": "serial",
        "configs": rows,
        "shard_lookup": lookup,
    }
    problems = validate_bench_report_dict(report)
    assert not problems, f"bench report failed self-validation: {problems}"
    return report


def _print_rows(title: str, rows: list[dict]) -> None:
    print(f"\n=== {title} ===")
    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))


def test_distributed_bench_smoke():
    """All backends byte-identical on a tiny corpus; the emitted
    artifact satisfies repro-bench-report/1.  (No throughput floor at
    smoke scale — the committed artifact owns that claim.)"""
    reads = build_dataset(genome_length=1_500, coverage=8.0, seed=11)
    rows, corrector = run_backends(
        reads, workers=2, shards=2, chunk_size=128
    )
    assert all(r["equivalent_to_baseline"] for r in rows)
    lookup = run_lookup_throughput(corrector, n_shards=2, rounds=5)
    assert lookup["mixed_remote_lookups_per_second"] > 0
    report = bench_report(
        rows, lookup,
        {"genome_length": 1_500, "coverage": 8.0, "reads": reads.n_reads},
    )
    assert validate_bench_report_dict(report) == []


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, equivalence-only — the CI bit-rot guard",
    )
    p.add_argument("--genome-length", type=int, default=12_000)
    p.add_argument("--coverage", type=float, default=30.0)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--chunk-size", type=int, default=1024)
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the repro-bench-report/1 artifact to PATH",
    )
    args = p.parse_args(argv)
    if args.smoke:
        args.genome_length, args.coverage = 1_500, 8.0
        args.chunk_size = 128
        args.shards = min(args.shards, 2)
    with telemetry.session("bench-distributed"):
        with telemetry.span("build_dataset"):
            reads = build_dataset(args.genome_length, args.coverage)
        rows, corrector = run_backends(
            reads, args.workers, args.shards, args.chunk_size
        )
        with telemetry.span("shard_lookup_throughput"):
            lookup = run_lookup_throughput(
                corrector, args.shards, rounds=5 if args.smoke else 50
            )
    _print_rows(
        f"Backend equivalence + wall clock, {reads.n_reads} reads", rows
    )
    _print_rows("Sharded k-mer lookup throughput", [lookup])
    print("equivalence: every backend byte-identical to serial correction")
    if args.report:
        report = bench_report(
            rows, lookup,
            {
                "genome_length": args.genome_length,
                "coverage": args.coverage,
                "read_length": 36,
                "error_rate": 0.008,
                "seed": 7,
                "reads": reads.n_reads,
            },
        )
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote bench artifact to {args.report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
