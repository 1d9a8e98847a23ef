"""``repro cluster`` — CLOSET clustering of a read set.

Input FASTA or FASTQ; output a TSV of ``cluster_id<TAB>read_name`` per
threshold (one file per threshold), plus a stage-timing summary.

Run as ``python -m repro cluster …``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import telemetry
from ..io.atomic import atomic_writer
from .common import (
    add_reliability_flags,
    add_telemetry_flags,
    policy_from_args,
    positive_int,
    telemetry_session,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Cluster metagenomic reads with CLOSET (Yang 2011).",
    )
    p.add_argument("input", type=Path, help="input FASTA or FASTQ")
    p.add_argument("outdir", type=Path, help="output directory")
    p.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=[0.9, 0.7, 0.5],
        help="decreasing similarity levels (one clustering per level)",
    )
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--modulus", type=int, default=24, help="sketch density 1/M")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--gamma", type=float, default=2.0 / 3.0)
    p.add_argument("--backend", choices=["plain", "mapreduce"], default="plain")
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument(
        "--on-error",
        choices=["raise", "skip"],
        default="raise",
        help="skip (and count) malformed FASTQ records instead of aborting",
    )
    add_reliability_flags(p).add_argument(
        "--checkpoint-dir", default=None,
        help="directory for stage checkpoints; reruns resume from the "
             "last completed stage",
    )
    add_telemetry_flags(p)
    return p


def _load_reads(path: Path, on_error: str = "raise"):
    from ..io.fasta import parse_fasta
    from ..io.fastq import read_fastq
    from ..io.readset import ReadSet

    if path.suffix.lower() in (".fa", ".fasta", ".fna"):
        names, seqs = [], []
        for name, seq in parse_fasta(path):
            names.append(name)
            seqs.append(seq)
        return ReadSet.from_strings(seqs, names=names)
    error_counts: dict = {}
    reads = read_fastq(path, on_error=on_error, error_counts=error_counts)
    telemetry.merge_counters(error_counts)
    skipped = error_counts.get("skipped_records", 0)
    truncated = error_counts.get("truncated_records", 0)
    if skipped or truncated:
        print(
            f"tolerant parse: skipped {skipped} malformed record(s), "
            f"{truncated} truncated at EOF"
        )
    return reads


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    with telemetry_session(args, tool="cluster", argv=argv) as tel:
        return _run(args, tel)


def _run(args: argparse.Namespace, tel) -> int:
    from ..core.closet import ClosetClusterer, ClosetParams, SketchParams

    with telemetry.span("read_input", path=str(args.input)):
        reads = _load_reads(args.input, on_error=args.on_error)
    names = reads.names or [f"read{i}" for i in range(reads.n_reads)]
    print(f"clustering {reads.n_reads} reads at thresholds {args.thresholds}")
    tel.registry.gauge("reads_input", reads.n_reads)

    params = ClosetParams(
        sketch=SketchParams(
            k=args.k,
            modulus=args.modulus,
            rounds=args.rounds,
            cmin=min(args.thresholds),
        ),
        gamma=args.gamma,
    )
    policy = policy_from_args(args)
    if policy is not None:
        print(
            f"fault tolerance: max_retries={policy.max_retries} "
            f"timeout={policy.task_timeout} skip={policy.skip_bad_records}"
        )
    with telemetry.span(
        "cluster", backend=args.backend, thresholds=len(args.thresholds)
    ):
        result = ClosetClusterer(params).run(
            reads,
            thresholds=args.thresholds,
            backend=args.backend,
            n_workers=args.workers,
            policy=policy,
            checkpoint_dir=args.checkpoint_dir,
        )

    with telemetry.span("write_output", outdir=str(args.outdir)):
        args.outdir.mkdir(parents=True, exist_ok=True)
        for t, clusters in result.clusters.items():
            out = args.outdir / f"clusters_t{t:g}.tsv"
            with atomic_writer(out, "wt") as fh:
                for ci, members in enumerate(clusters):
                    for m in members.tolist():
                        fh.write(f"{ci}\t{names[m]}\n")
            print(f"threshold {t:g}: {len(clusters)} clusters -> {out}")
            tel.registry.gauge(f"clusters_t{t:g}", len(clusters))

    er = result.edge_result
    print(
        f"edges: predicted={er.n_predicted} unique={er.n_unique} "
        f"confirmed={er.n_confirmed}"
    )
    tel.registry.gauge("edges_predicted", er.n_predicted)
    tel.registry.gauge("edges_unique", er.n_unique)
    tel.registry.gauge("edges_confirmed", er.n_confirmed)
    for stage, secs in result.stage_seconds.items():
        print(f"  {stage:24s} {secs:8.2f}s")
    return 0

