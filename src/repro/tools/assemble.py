"""``repro assemble`` — de Bruijn unitig assembly.

FASTQ in, contig FASTA out, stats to stdout.  Pairs with
``repro correct`` to demonstrate the correction→assembly improvement
the thesis is motivated by.

Run as ``python -m repro assemble …``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import telemetry
from .common import (
    add_telemetry_flags,
    positive_int,
    telemetry_session,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-assemble",
        description="Unitig assembly over the read de Bruijn graph.",
    )
    p.add_argument("input", type=Path, help="input FASTQ")
    p.add_argument("output", type=Path, help="contig FASTA")
    p.add_argument("--k", type=positive_int, default=15)
    p.add_argument("--min-count", type=int, default=1,
                   help="drop k-mers below this multiplicity")
    p.add_argument("--min-length", type=int, default=None,
                   help="drop contigs shorter than this (default 2k)")
    add_telemetry_flags(p)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    with telemetry_session(args, tool="assemble", argv=argv) as tel:
        return _run(args, tel)


def _run(args: argparse.Namespace, tel) -> int:
    from ..assembly import assembly_stats, build_debruijn_graph, extract_unitigs
    from ..io.fasta import write_fasta
    from ..io.fastq import read_fastq
    from ..seq.alphabet import decode

    with telemetry.span("read_input", path=str(args.input)):
        reads = read_fastq(args.input)
    tel.registry.gauge("reads_input", reads.n_reads)
    with telemetry.span("build_graph", k=args.k):
        graph = build_debruijn_graph(reads, args.k, min_count=args.min_count)
    min_length = args.min_length or 2 * args.k
    with telemetry.span("extract_unitigs", min_length=min_length):
        unitigs = extract_unitigs(graph, min_length=min_length)
    stats = assembly_stats(unitigs)
    with telemetry.span("write_output", path=str(args.output)):
        write_fasta(
            [(f"contig{i}", decode(u)) for i, u in enumerate(unitigs)],
            args.output,
        )
    tel.registry.gauge("graph_edges", graph.n_edges)
    tel.registry.gauge("contigs", stats["n_contigs"])
    tel.registry.gauge("n50", stats["n50"])
    print(
        f"k={args.k} graph_edges={graph.n_edges} "
        f"contigs={stats['n_contigs']} total={stats['total_bases']}bp "
        f"longest={stats['longest']} N50={stats['n50']}"
    )
    return 0

