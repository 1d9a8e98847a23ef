"""Structured observability for every repro runtime layer.

One subsystem replaces the three disjoint reporting mechanisms that
grew with PRs 1–2 (``mapreduce.types.Counters`` merges,
``parallel.engine.ParallelRunReport``, ad-hoc tool prints):

- **spans** (:mod:`~repro.telemetry.spans`) — nested wall+CPU timers
  forming one execution tree per run, with optional per-stage cProfile
  capture;
- **metrics** (:mod:`~repro.telemetry.metrics`) — a single
  Counters-compatible registry (integer counters + float gauges) that
  the MapReduce engine, reliable layer, and parallel correction engine
  all feed;
- **progress** (:mod:`~repro.telemetry.progress`) — throttled
  heartbeats (reads/sec, chunks done/total) from the innermost task
  loops;
- **report** (:mod:`~repro.telemetry.report`) — the versioned
  ``repro-run-report/1`` JSON document every CLI run and benchmark
  serializes to, with a dependency-free schema validator
  (``python -m repro.telemetry.validate run.json``).

The ambient helpers (:func:`span`, :func:`count`, :func:`tick`, …)
are cheap no-ops unless a :func:`session` is active, so instrumented
library code costs nothing for callers who never ask for telemetry.
This package intentionally imports nothing from the rest of repro.
"""

from .context import (
    Telemetry,
    active_counters,
    count,
    current,
    gauge,
    merge_counters,
    session,
    span,
    tick,
    timing,
)
from .metrics import MetricsRegistry
from .progress import Heartbeat
from .report import (
    JSON_SCHEMA,
    SCHEMA_VERSION,
    RunReport,
    validate_report_dict,
    validate_report_file,
)
from .spans import SpanCollector, SpanRecord

__all__ = [
    "Telemetry",
    "session",
    "current",
    "span",
    "count",
    "gauge",
    "timing",
    "tick",
    "merge_counters",
    "active_counters",
    "MetricsRegistry",
    "Heartbeat",
    "RunReport",
    "SCHEMA_VERSION",
    "JSON_SCHEMA",
    "validate_report_dict",
    "validate_report_file",
    "SpanCollector",
    "SpanRecord",
]
