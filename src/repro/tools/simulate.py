"""``repro simulate`` — write a simulated dataset.

Produces a reference genome (FASTA), an Illumina-style read set
(FASTQ), and a truth file (FASTQ of the error-free reads) so the
correction tools can be scored end to end.

Run as ``python -m repro simulate …``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .. import telemetry
from ..io.fasta import write_fasta
from ..io.fastq import write_fastq
from ..io.readset import ReadSet
from ..simulate.errors import illumina_like_model
from ..simulate.genome import repeat_spec, simulate_genome
from ..simulate.illumina import simulate_reads
from .common import add_telemetry_flags, telemetry_session


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate a reference genome and an Illumina run.",
    )
    p.add_argument("outdir", type=Path, help="output directory")
    p.add_argument("--genome-length", type=int, default=20_000)
    p.add_argument("--repeat-fraction", type=float, default=0.0)
    p.add_argument("--repeat-unit", type=int, default=200)
    p.add_argument("--read-length", type=int, default=36)
    p.add_argument("--coverage", type=float, default=60.0)
    p.add_argument("--error-rate", type=float, default=0.005,
                   help="5'-end base error rate (ramps up toward 3')")
    p.add_argument("--seed", type=int, default=0)
    add_telemetry_flags(p)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    with telemetry_session(args, tool="simulate", argv=argv) as tel:
        return _run(args, tel)


def _run(args: argparse.Namespace, tel) -> int:
    rng = np.random.default_rng(args.seed)
    args.outdir.mkdir(parents=True, exist_ok=True)

    with telemetry.span("simulate_genome", length=args.genome_length):
        genome = simulate_genome(
            repeat_spec(
                args.genome_length,
                args.repeat_fraction,
                unit_length=args.repeat_unit,
            ),
            rng,
        )
    model = illumina_like_model(
        args.read_length, base_rate=args.error_rate, end_multiplier=4.0
    )
    with telemetry.span("simulate_reads", coverage=args.coverage):
        sim = simulate_reads(
            genome, args.read_length, model, rng, coverage=args.coverage
        )
    sim.reads.names = [f"read{i}" for i in range(sim.n_reads)]

    with telemetry.span("write_output", outdir=str(args.outdir)):
        write_fasta(
            [("genome", genome.sequence())], args.outdir / "genome.fasta"
        )
        write_fastq(sim.reads, args.outdir / "reads.fastq")
        truth = ReadSet(
            codes=sim.true_codes,
            lengths=sim.reads.lengths.copy(),
            quals=sim.reads.quals,
            names=list(sim.reads.names),
        )
        write_fastq(truth, args.outdir / "truth.fastq")
    tel.registry.gauge("reads_simulated", sim.n_reads)
    tel.registry.gauge("genome_length", genome.length)
    print(
        f"wrote {sim.n_reads} reads "
        f"({args.coverage:.0f}x of {genome.length} bp) to {args.outdir}"
    )
    return 0

