"""``python -m repro`` — the unified command-line entry point.

One console surface over every tool::

    python -m repro simulate out/ --genome-length 20000
    python -m repro correct out/reads.fastq out/corrected.fastq \\
        --workers 4 --report run.json
    python -m repro cluster sample.fastq clusters/ --progress
    python -m repro assemble out/corrected.fastq out/contigs.fasta
    python -m repro validate-report run.json

Every subcommand keeps its full parser (``python -m repro correct
--help``), including the shared reliability / parallel / telemetry
flag groups from :mod:`repro.tools.common`.
"""

from __future__ import annotations

import importlib
import sys

from . import __version__

#: subcommand -> module exposing ``main(argv) -> int``.
COMMANDS: dict[str, tuple[str, str]] = {
    "simulate": ("repro.tools.simulate", "simulate a reference genome and reads"),
    "correct": ("repro.tools.correct", "error-correct a FASTQ file"),
    "cluster": ("repro.tools.cluster", "CLOSET-cluster a read set"),
    "assemble": ("repro.tools.assemble", "unitig-assemble corrected reads"),
    "validate-report": (
        "repro.telemetry.validate",
        "validate run-report JSON against the schema",
    ),
    "lint": (
        "repro.analysis.cli",
        "static analysis: determinism / resources / fork safety",
    ),
    "serve": (
        "repro.service.serve",
        "run a durable correction job worker over a spool",
    ),
    "serve-http": (
        "repro.service.http",
        "serve the HTTP/JSON job API (plus embedded workers)",
    ),
    "jobs": (
        "repro.service.cli",
        "submit / inspect / retry durable correction jobs",
    ),
    "validate-job": (
        "repro.service.spec",
        "validate repro-job/1 wire JSON against the schema",
    ),
}


def _usage() -> str:
    lines = [
        "usage: python -m repro <command> [options]",
        "",
        "commands:",
    ]
    for name, (_mod, help_text) in COMMANDS.items():
        lines.append(f"  {name:<17s} {help_text}")
    lines += [
        "",
        "run `python -m repro <command> --help` for per-command options",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv:
        print(_usage(), file=sys.stderr)
        return 2
    head = argv[0]
    if head in ("-h", "--help", "help"):
        print(_usage())
        return 0
    if head in ("-V", "--version"):
        print(f"repro {__version__}")
        return 0
    if head not in COMMANDS:
        print(f"unknown command {head!r}\n\n{_usage()}", file=sys.stderr)
        return 2
    module = importlib.import_module(COMMANDS[head][0])
    return module.main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
