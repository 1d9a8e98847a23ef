"""Shared CLI plumbing for the ``repro`` tools.

All four tools compose their parsers from the same flag groups:

- **reliability** — re-exported from
  :func:`repro.mapreduce.reliable.add_reliability_flags`;
- **parallel execution** — ``--workers`` / ``--chunk-size`` are two of
  :data:`repro.tools.job.SPEC_FLAGS`; :func:`add_backend_flags` adds
  ``--backend`` / ``--shards`` beside them (argparse-level ``>= 1``
  validation throughout);
- **telemetry** — :func:`add_telemetry_flags`
  (``--report`` / ``--progress`` / ``--profile`` /
  ``--heartbeat-interval``) plus :func:`telemetry_session`, the
  context manager every tool ``main`` runs under: it opens the ambient
  :mod:`repro.telemetry` session and always writes the JSON run report
  (status ``ok`` or ``error``) when ``--report`` was given.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager

from .. import telemetry
from ..mapreduce.reliable import add_reliability_flags, policy_from_args

__all__ = [
    "positive_int",
    "memory_size",
    "add_backend_flags",
    "backend_from_args",
    "add_telemetry_flags",
    "add_reliability_flags",
    "policy_from_args",
    "telemetry_session",
]


def positive_int(text: str) -> int:
    """argparse type: integer >= 1, rejected with a clear message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {value}"
        )
    return value


def memory_size(text: str) -> int:
    """argparse type: a byte count with optional K/M/G suffix.

    Accepts ``8388608``, ``8M``, ``64m``, ``2G``, ``512K`` (binary
    multiples); rejects anything below 4 KiB — smaller budgets cannot
    hold one merge block per spilled run.
    """
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    raw = text.strip().lower().removesuffix("b")
    mult = 1
    if raw and raw[-1] in units:
        mult = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * mult)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte size like 64M or 2G, got {text!r}"
        ) from None
    if value < 4096:
        raise argparse.ArgumentTypeError(
            f"memory budget must be >= 4096 bytes, got {value}"
        )
    return value


def add_backend_flags(group) -> None:
    """Attach ``--backend`` / ``--shards`` to the parallel-execution group."""
    group.add_argument(
        "--backend", choices=["threads", "fork", "socket"], default="fork",
        help="execution substrate for the chunk loop (default: fork); "
             "'socket' runs separate worker processes owning spectrum "
             "shards",
    )
    group.add_argument(
        "--shards", type=positive_int, default=None,
        help="spectrum shards for --backend socket "
             "(default: one per worker)",
    )


def backend_from_args(parser: argparse.ArgumentParser, args):
    """Build the backend selected by ``--backend`` / ``--shards``.

    A flag conflict is a usage error (``parser.error``, exit 2).  The
    returned instance is caller-owned: shut it down when done.
    """
    if args.shards is not None and args.backend != "socket":
        parser.error("--shards requires --backend socket")
    from ..distributed.backend import create_backend

    return create_backend(
        args.backend, workers=args.workers, shards=args.shards or 0
    )


def add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared telemetry flag group."""
    g = parser.add_argument_group("telemetry")
    g.add_argument(
        "--report", default=None, metavar="PATH",
        help="write a repro-run-report/1 JSON execution report "
             "(spans, counters, environment) to PATH",
    )
    g.add_argument(
        "--progress", action="store_true",
        help="emit throttled progress heartbeats to stderr",
    )
    g.add_argument(
        "--profile", action="store_true",
        help="cProfile each top-level stage; top functions land in "
             "the run report",
    )
    g.add_argument(
        "--heartbeat-interval", type=float, default=2.0,
        help="seconds between progress heartbeats",
    )


@contextmanager
def telemetry_session(args: argparse.Namespace, tool: str,
                      argv: list[str] | None = None):
    """Run a tool body under an ambient telemetry session.

    Yields the :class:`repro.telemetry.Telemetry`.  When ``--report``
    was given, the JSON report is written even if the body raises
    (with ``status: "error"`` and the exception recorded), so failed
    runs leave evidence too.
    """
    report_path = getattr(args, "report", None)
    tel = None
    try:
        with telemetry.session(
            tool,
            progress=getattr(args, "progress", False),
            profile=getattr(args, "profile", False),
            heartbeat_interval=getattr(args, "heartbeat_interval", 2.0),
        ) as tel:
            yield tel
    finally:
        if tel is not None and report_path:
            path = tel.report(argv=argv).write(report_path)
            print(f"wrote run report to {path}")
