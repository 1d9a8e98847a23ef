"""``repro correct`` — correct a FASTQ file.

Methods come from the :mod:`repro.core.api` registry: ``reptile``
(default), ``redeem``, ``hybrid``, ``shrec``, ``sap``.  Optionally
scores the output against a truth FASTQ (as written by
``repro simulate``).  The flags describe one
:class:`~repro.tools.job.JobSpec`, which
:func:`~repro.tools.job.run_job` — the body the serve worker runs too —
executes: chunk-capable correctors always go through the parallel
engine's chunk loop (serial in-process at ``--workers 1``), so serial
and parallel runs report identical counters and produce
bitwise-identical output.

Run as ``python -m repro correct …``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .. import telemetry
from ..io.fastq import read_fastq
from ..mapreduce.reliable import (
    add_reliability_flags,
    call_with_retries,
    policy_from_args,
)
from .common import (
    add_backend_flags,
    add_telemetry_flags,
    backend_from_args,
    telemetry_session,
)
from .job import add_spec_flags, run_job, spec_from_args


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-correct",
        description="Error-correct short reads (Yang 2011 algorithms).",
    )
    add_spec_flags(p, "input", "output", "--method", "--k", "--genome-length")
    p.add_argument("--truth", type=Path, default=None,
                   help="truth FASTQ for scoring")
    add_spec_flags(p, "--on-error")
    g = p.add_argument_group("out-of-core streaming")
    add_spec_flags(g, "--stream", "--max-memory")
    g.add_argument(
        "--tmp-dir", type=Path, default=None,
        help="directory for spill files (default: system temp)",
    )
    g = p.add_argument_group("parallel execution")
    add_spec_flags(g, "--workers", "--chunk-size")
    add_backend_flags(g)
    add_reliability_flags(p)
    add_telemetry_flags(p)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
    except ValueError as e:
        parser.error(str(e))
    if spec.stream and args.truth is not None:
        parser.error("--stream does not support --truth scoring")
    policy = policy_from_args(args)
    backend = backend_from_args(parser, args)

    def run() -> dict:
        return run_job(
            spec, backend=backend, policy=policy, tmp_dir=args.tmp_dir
        )

    try:
        with telemetry_session(args, tool="correct", argv=argv) as tel:
            if policy is not None:
                result = call_with_retries(
                    run, policy, counters=tel.registry,
                    description=f"{spec.method} correction",
                )
            else:
                result = run()
            if spec.stream:
                tel.registry.gauge("peak_rss_bytes", _peak_rss_bytes())
            _print_summary(spec, result)
            if args.truth is not None:
                _score(spec, args.truth, tel)
    finally:
        backend.shutdown()
    return 0


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if the
    platform exposes no ``resource`` module)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(kb) * 1024


def _print_summary(spec, result: dict) -> None:
    how = "streamed" if spec.stream else "read"
    print(f"{how} {result['reads']} reads from {spec.input}")
    skipped = result.get("skipped_records", 0)
    truncated = result.get("truncated_records", 0)
    if skipped or truncated:
        print(
            f"tolerant parse: skipped {skipped} malformed record(s), "
            f"{truncated} truncated at EOF"
        )
    print(
        f"{spec.method}: changed {result['bases_changed']} bases; "
        f"wrote {spec.output}"
    )


def _score(spec, truth_path: Path, tel) -> None:
    """Gain / sensitivity / specificity / EBA of the files just written."""
    from ..eval.correction import evaluate_correction

    with telemetry.span("score", truth=str(truth_path)):
        reads = read_fastq(spec.input, on_error=spec.on_error)
        corrected = read_fastq(spec.output)
        truth = read_fastq(truth_path)
        m = evaluate_correction(
            reads.codes, corrected.codes, truth.codes, lengths=reads.lengths,
        )
    tel.registry.gauge("gain", m.gain)
    tel.registry.gauge("sensitivity", m.sensitivity)
    tel.registry.gauge("specificity", m.specificity)
    tel.registry.gauge("eba", m.eba)
    print(
        f"gain={m.gain:.3f} sensitivity={m.sensitivity:.3f} "
        f"specificity={m.specificity:.5f} EBA={m.eba:.4f}"
    )
