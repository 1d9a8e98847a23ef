"""``repro correct`` — correct a FASTQ file.

Methods come from the :mod:`repro.core.api` registry: ``reptile``
(default), ``redeem``, ``hybrid``, ``shrec``, ``sap``.  Optionally
scores the output against a truth FASTQ (as written by
``repro simulate``).  Chunk-capable correctors always run through the
parallel engine's chunk loop (serial in-process at ``--workers 1``),
so serial and parallel runs report identical counters and produce
bitwise-identical output.

Run as ``python -m repro correct …``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import telemetry
from ..core.api import available_methods, build_corrector, supports_chunking
from ..mapreduce.reliable import add_reliability_flags, policy_from_args
from .common import (
    add_parallel_flags,
    add_telemetry_flags,
    backend_from_args,
    memory_size,
    telemetry_session,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-correct",
        description="Error-correct short reads (Yang 2011 algorithms).",
    )
    p.add_argument("input", type=Path, help="input FASTQ")
    p.add_argument("output", type=Path, help="corrected FASTQ")
    p.add_argument(
        "--method",
        choices=available_methods(),
        default="reptile",
    )
    p.add_argument("--k", type=int, default=None, help="k-mer size")
    p.add_argument("--genome-length", type=int, default=None,
                   help="genome size estimate (guides k selection)")
    p.add_argument("--truth", type=Path, default=None,
                   help="truth FASTQ for scoring")
    p.add_argument(
        "--on-error",
        choices=["raise", "skip"],
        default="raise",
        help="skip (and count) malformed FASTQ records instead of aborting",
    )
    g = p.add_argument_group("out-of-core streaming")
    g.add_argument(
        "--stream", action="store_true",
        help="never hold the read set in memory: streamed phase-1 "
             "passes build the spectrum/tiles, then reads are "
             "corrected and written chunk by chunk (reptile only; "
             "output is bitwise identical to the in-memory path)",
    )
    g.add_argument(
        "--max-memory", type=memory_size, default=None, metavar="SIZE",
        help="k-mer/tile counting memory budget (e.g. 64M, 2G); "
             "partial tables beyond it spill to sorted disk runs "
             "(implies --stream)",
    )
    g.add_argument(
        "--tmp-dir", type=Path, default=None,
        help="directory for spill files (default: system temp)",
    )
    add_parallel_flags(p)
    add_reliability_flags(p)
    add_telemetry_flags(p)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_memory is not None:
        args.stream = True
    if args.stream:
        if args.method != "reptile":
            parser.error(
                f"--stream supports the reptile method only "
                f"({args.method} has no streaming phase 1)"
            )
        if args.truth is not None:
            parser.error("--stream does not support --truth scoring")
        if args.checkpoint_dir:
            parser.error("--stream does not support --checkpoint-dir")
    backend = backend_from_args(parser, args)
    try:
        with telemetry_session(args, tool="correct", argv=argv) as tel:
            if args.stream:
                return _run_stream(args, tel, backend)
            return _run(args, tel, backend)
    finally:
        backend.shutdown()


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if the
    platform exposes no ``resource`` module)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(kb) * 1024


def _run_stream(args: argparse.Namespace, tel, backend) -> int:
    """Out-of-core correction: three streamed passes over the FASTQ.

    Passes A and B are :meth:`ReptileCorrector.fit_streaming` (quality
    histogram, then spectrum and tile table through the balanced /
    disk-spill accumulators); pass C corrects chunk by chunk through
    the parallel engine's chunk loop and writes corrected FASTQ
    incrementally.  At no point is the read set resident; the output
    is bitwise identical to the in-memory path.
    """
    from ..core.reptile import ReptileCorrector
    from ..io.atomic import atomic_writer
    from ..io.fastq import read_fastq_chunks, write_fastq
    from ..parallel import correct_stream

    block_reads = args.chunk_size * args.workers

    def chunks(error_counts=None):
        return read_fastq_chunks(
            args.input,
            block_reads,
            on_error=args.on_error,
            error_counts=error_counts,
        )

    with telemetry.span("fit", method=args.method):
        corrector, meta = ReptileCorrector.fit_streaming(
            chunks,
            k=args.k,
            genome_length_estimate=args.genome_length,
            max_memory_bytes=args.max_memory,
            tmp_dir=args.tmp_dir,
        )
    print(f"streaming {meta['n_reads']} reads from {args.input} "
          f"(blocks of {block_reads})")
    tel.registry.gauge("reads_input", meta["n_reads"])
    tel.registry.gauge("spill_bytes", meta["spill_bytes"])
    tel.registry.gauge("counting_peak_bytes", meta["counting_peak_bytes"])
    print(
        f"phase 1: {corrector.spectrum.n_kmers} k-mers "
        f"(k={corrector.params.k}), {corrector.tiles.n_tiles} tiles, "
        f"spilled {meta['spill_bytes']} bytes"
    )

    # Pass C — chunked correction, incrementally written.
    policy = policy_from_args(args)
    error_counts: dict = {}
    n_changed = 0
    n_out = 0
    # The incremental output is staged through the atomic writer: the
    # final path appears only once every block has been written, so a
    # mid-run kill never leaves a truncated FASTQ behind.
    with telemetry.span("correct", method=args.method, stream=True):
        with atomic_writer(args.output, "wt") as out_handle:
            for block, report in correct_stream(
                corrector,
                chunks(error_counts),
                workers=args.workers,
                chunk_size=args.chunk_size,
                policy=policy,
                backend=backend,
            ):
                n_changed += int((report.reads.codes != block.codes).sum())
                n_out += block.n_reads
                write_fastq(report.reads, out_handle)
    if args.on_error == "skip":
        tel.registry.merge(error_counts)
        skipped = error_counts.get("skipped_records", 0)
        truncated = error_counts.get("truncated_records", 0)
        if skipped or truncated:
            print(
                f"tolerant parse: skipped {skipped} malformed record(s), "
                f"{truncated} truncated at EOF"
            )
    tel.registry.gauge("bases_changed", n_changed)
    tel.registry.gauge("peak_rss_bytes", _peak_rss_bytes())
    print(
        f"{args.method}: changed {n_changed} bases across {n_out} "
        f"streamed reads; wrote {args.output}"
    )
    return 0


def _run(args: argparse.Namespace, tel, backend) -> int:
    import hashlib

    from ..io.atomic import update_hash_from_file
    from ..io.fastq import read_fastq, write_fastq
    from ..mapreduce import CheckpointStore
    from ..mapreduce.reliable import call_with_retries
    from ..parallel import correct_in_parallel

    error_counts: dict = {}
    with telemetry.span("read_input", path=str(args.input)):
        reads = read_fastq(
            args.input, on_error=args.on_error, error_counts=error_counts
        )
    print(f"read {reads.n_reads} reads from {args.input}")
    tel.registry.gauge("reads_input", reads.n_reads)
    if args.on_error == "skip":
        tel.registry.merge(error_counts)
        skipped = error_counts.get("skipped_records", 0)
        truncated = error_counts.get("truncated_records", 0)
        if skipped or truncated:
            print(
                f"tolerant parse: skipped {skipped} malformed record(s), "
                f"{truncated} truncated at EOF"
            )

    policy = policy_from_args(args)

    def _correct():
        with telemetry.span("fit", method=args.method):
            corrector = build_corrector(
                args.method,
                reads,
                k=args.k,
                genome_length=args.genome_length,
            )
        if supports_chunking(corrector):
            # The chunk loop is bitwise identical to whole-set
            # correction at any worker count, and it produces the same
            # counters serially and in parallel — so every chunk-capable
            # run goes through it, making serial/parallel reports
            # directly comparable.
            with telemetry.span("correct", method=args.method):
                report = correct_in_parallel(
                    corrector,
                    reads,
                    workers=args.workers,
                    chunk_size=args.chunk_size,
                    policy=policy,
                    backend=backend,
                )
            s = report.summary()
            print(
                f"correction: mode={s['mode']} "
                f"workers={s['workers']} chunks={s['chunks']} "
                f"wall={s['wall_seconds']}s"
            )
            return report.reads
        if args.workers != 1:
            print(
                f"{args.method} does not support chunked correction; "
                "running serially"
            )
        with telemetry.span("correct", method=args.method):
            return corrector.correct(reads)

    store = (
        CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    fingerprint = ""
    if store is not None:
        # The input *file* (names and qualities included) plus every
        # flag that changes the corrected reads.
        flags = (args.method, args.k, args.genome_length, args.on_error)
        h = hashlib.sha256(repr(flags).encode())
        update_hash_from_file(h, args.input)
        fingerprint = h.hexdigest()
    cached = store.load("corrected", 0, fingerprint) if store else None
    if cached is not None:
        corrected = cached[0]
        telemetry.count("checkpoint_resumes")
        print("resumed corrected reads from checkpoint")
    else:
        if policy is not None:
            corrected = call_with_retries(
                _correct, policy, counters=tel.registry,
                description=f"{args.method} correction",
            )
        else:
            corrected = _correct()
        if store is not None:
            with telemetry.span("checkpoint_save"):
                store.save("corrected", 0, fingerprint, corrected)
    n_changed = int((corrected.codes != reads.codes).sum())
    with telemetry.span("write_output", path=str(args.output)):
        write_fastq(corrected, args.output)
    tel.registry.gauge("bases_changed", n_changed)
    print(f"{args.method}: changed {n_changed} bases; wrote {args.output}")

    if args.truth is not None:
        from ..eval.correction import evaluate_correction

        with telemetry.span("score", truth=str(args.truth)):
            truth = read_fastq(args.truth)
            m = evaluate_correction(
                reads.codes, corrected.codes, truth.codes,
                lengths=reads.lengths,
            )
        tel.registry.gauge("gain", m.gain)
        tel.registry.gauge("sensitivity", m.sensitivity)
        tel.registry.gauge("specificity", m.specificity)
        tel.registry.gauge("eba", m.eba)
        print(
            f"gain={m.gain:.3f} sensitivity={m.sensitivity:.3f} "
            f"specificity={m.specificity:.5f} EBA={m.eba:.4f}"
        )
    return 0
