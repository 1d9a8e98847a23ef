"""Versioned, machine-readable run reports.

Every run — a CLI invocation, a benchmark, a pipeline — serializes to
one JSON document in the ``repro-run-report/1`` schema so perf numbers
are diffable across commits.

Top-level document::

    {
      "schema": "repro-run-report/1",
      "tool": "correct",                  # logical run name
      "status": "ok" | "error",
      "argv": ["reads.fastq", "out.fastq", "--workers", "4"],
      "started_at": 1770000000.0,         # epoch seconds
      "finished_at": 1770000012.5,
      "wall_seconds": 12.5,               # whole-run wall time
      "cpu_seconds": 11.9,                # parent-process CPU time
      "counters": {"reads_corrected": 1040, ...},    # ints
      "gauges": {"bases_changed": 163.0, ...},       # floats
      "stages": [                          # depth-1 spans, flattened
        {"name": "fit", "wall_seconds": 8.1, "cpu_seconds": 8.0,
         "fraction": 0.65},
        ...
      ],
      "spans": {...},                      # full nested span tree
      "environment": {"python": "3.11.8", "platform": "...",
                       "cpu_count": 8, "pid": 1234},
      "extra": {...}                       # tool-specific payload
    }

Validation is hand-rolled (``validate_report_dict``) so the schema
check runs everywhere the package does, with no jsonschema dependency;
:data:`JSON_SCHEMA` mirrors the same rules in JSON-Schema form for
external tooling.
"""

from __future__ import annotations

import json
import numbers
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .spans import SpanRecord

#: Current report schema identifier; bump the suffix on breaking change.
SCHEMA_VERSION = "repro-run-report/1"

#: JSON-Schema rendering of the same contract, for external validators.
JSON_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://repro.invalid/schemas/run-report-v1.json",
    "title": "repro run report v1",
    "type": "object",
    "required": [
        "schema", "tool", "status", "argv", "started_at", "finished_at",
        "wall_seconds", "cpu_seconds", "counters", "gauges", "stages",
        "spans", "environment",
    ],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "tool": {"type": "string", "minLength": 1},
        "status": {"enum": ["ok", "error"]},
        "argv": {"type": "array", "items": {"type": "string"}},
        "started_at": {"type": "number"},
        "finished_at": {"type": "number"},
        "wall_seconds": {"type": "number", "minimum": 0},
        "cpu_seconds": {"type": "number", "minimum": 0},
        "counters": {
            "type": "object", "additionalProperties": {"type": "integer"},
        },
        "gauges": {
            "type": "object", "additionalProperties": {"type": "number"},
        },
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "wall_seconds"],
                "properties": {
                    "name": {"type": "string"},
                    "wall_seconds": {"type": "number", "minimum": 0},
                    "cpu_seconds": {"type": "number", "minimum": 0},
                    "fraction": {"type": "number"},
                },
            },
        },
        "spans": {"$ref": "#/$defs/span"},
        "environment": {"type": "object"},
        "extra": {"type": "object"},
        "error": {"type": "string"},
    },
    "$defs": {
        "span": {
            "type": "object",
            "required": ["name", "wall_seconds", "cpu_seconds"],
            "properties": {
                "name": {"type": "string"},
                "started_at": {"type": "number"},
                "wall_seconds": {"type": "number", "minimum": 0},
                "cpu_seconds": {"type": "number", "minimum": 0},
                "meta": {"type": "object"},
                "profile": {"type": "array"},
                "children": {
                    "type": "array", "items": {"$ref": "#/$defs/span"},
                },
            },
        },
    },
}


def environment_info() -> dict[str, Any]:
    """The run's execution environment (stamped into every report)."""
    try:
        cpu_count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpu_count = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": cpu_count,
        "pid": os.getpid(),
        "argv0": sys.argv[0] if sys.argv else "",
    }


@dataclass
class RunReport:
    """One run's complete execution record, JSON round-trippable."""

    tool: str
    argv: list[str] = field(default_factory=list)
    status: str = "ok"
    started_at: float = 0.0
    finished_at: float = 0.0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    stages: list[dict[str, Any]] = field(default_factory=list)
    spans: dict[str, Any] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    schema: str = SCHEMA_VERSION

    # -- construction -------------------------------------------------
    @classmethod
    def from_span_tree(
        cls,
        tool: str,
        root: SpanRecord,
        counters: dict[str, int] | None = None,
        gauges: dict[str, float] | None = None,
        argv: list[str] | None = None,
        status: str = "ok",
        error: str | None = None,
        extra: dict[str, Any] | None = None,
    ) -> "RunReport":
        """Build a report from a finished span tree + metric snapshots."""
        total = root.wall_seconds
        stages = [
            {
                "name": c.name,
                "wall_seconds": round(c.wall_seconds, 6),
                "cpu_seconds": round(c.cpu_seconds, 6),
                "fraction": round(c.wall_seconds / total, 4) if total > 0 else 0.0,
            }
            for c in root.children
        ]
        return cls(
            tool=tool,
            argv=[str(a) for a in (argv or [])],
            status=status,
            started_at=root.started_at,
            finished_at=root.started_at + root.wall_seconds,
            wall_seconds=round(root.wall_seconds, 6),
            cpu_seconds=round(root.cpu_seconds, 6),
            counters={k: int(v) for k, v in (counters or {}).items()},
            gauges={k: float(v) for k, v in (gauges or {}).items()},
            stages=stages,
            spans=root.as_dict(),
            environment=environment_info(),
            extra=dict(extra or {}),
            error=error,
        )

    # -- derived ------------------------------------------------------
    def stage_fraction(self) -> float:
        """Fraction of the run's wall time covered by its stages."""
        if self.wall_seconds <= 0:
            return 0.0
        return sum(s["wall_seconds"] for s in self.stages) / self.wall_seconds

    def span_tree(self) -> SpanRecord:
        return SpanRecord.from_dict(self.spans)

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "schema": self.schema,
            "tool": self.tool,
            "status": self.status,
            "argv": list(self.argv),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "stages": list(self.stages),
            "spans": dict(self.spans),
            "environment": dict(self.environment),
            "extra": dict(self.extra),
        }
        if self.error is not None:
            d["error"] = self.error
        return d

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str | Path) -> Path:
        """Atomically and durably write the report JSON to ``path``.

        Same temp-file + fsync + rename discipline as
        :mod:`repro.io.atomic` (inlined here because telemetry
        deliberately imports nothing from the rest of repro): a crash
        mid-write never leaves a truncated report at the final path.
        """
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        with open(tmp, "wt") as fh:
            fh.write(self.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunReport":
        return cls(
            tool=d["tool"],
            argv=list(d.get("argv", [])),
            status=d.get("status", "ok"),
            started_at=float(d.get("started_at", 0.0)),
            finished_at=float(d.get("finished_at", 0.0)),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            cpu_seconds=float(d.get("cpu_seconds", 0.0)),
            counters=dict(d.get("counters", {})),
            gauges=dict(d.get("gauges", {})),
            stages=list(d.get("stages", [])),
            spans=dict(d.get("spans", {})),
            environment=dict(d.get("environment", {})),
            extra=dict(d.get("extra", {})),
            error=d.get("error"),
            schema=d.get("schema", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        return cls.from_json(Path(path).read_text())


# -- validation ---------------------------------------------------------------
def _is_number(x: object) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_span(
    span: Any, where: str, problems: list[str], depth: int = 0
) -> None:
    if depth > 64:
        problems.append(f"{where}: span tree deeper than 64 levels")
        return
    if not isinstance(span, dict):
        problems.append(f"{where}: span must be an object")
        return
    if not isinstance(span.get("name"), str) or not span.get("name"):
        problems.append(f"{where}: span missing non-empty 'name'")
    for key in ("wall_seconds", "cpu_seconds"):
        v = span.get(key)
        if not _is_number(v) or v < 0:
            problems.append(f"{where}: span {key!r} must be a number >= 0")
    children = span.get("children", [])
    if not isinstance(children, list):
        problems.append(f"{where}: span 'children' must be a list")
        return
    for i, child in enumerate(children):
        _check_span(child, f"{where}.children[{i}]", problems, depth + 1)


def validate_report_dict(data: object) -> list[str]:
    """Check ``data`` against the run-report schema; return problems.

    An empty list means the document is schema-valid.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["report must be a JSON object"]
    if data.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema must be {SCHEMA_VERSION!r}, got {data.get('schema')!r}"
        )
    if not isinstance(data.get("tool"), str) or not data.get("tool"):
        problems.append("'tool' must be a non-empty string")
    if data.get("status") not in ("ok", "error"):
        problems.append("'status' must be 'ok' or 'error'")
    if not isinstance(data.get("argv"), list) or any(
        not isinstance(a, str) for a in data.get("argv", [])
    ):
        problems.append("'argv' must be a list of strings")
    for key in ("started_at", "finished_at"):
        if not _is_number(data.get(key)):
            problems.append(f"'{key}' must be a number")
    for key in ("wall_seconds", "cpu_seconds"):
        v = data.get(key)
        if not _is_number(v) or v < 0:
            problems.append(f"'{key}' must be a number >= 0")
    counters = data.get("counters")
    if not isinstance(counters, dict):
        problems.append("'counters' must be an object")
    else:
        for k, v in counters.items():
            if not isinstance(v, int) or isinstance(v, bool):
                problems.append(f"counter {k!r} must be an integer, got {v!r}")
    gauges = data.get("gauges")
    if not isinstance(gauges, dict):
        problems.append("'gauges' must be an object")
    else:
        for k, v in gauges.items():
            if not _is_number(v):
                problems.append(f"gauge {k!r} must be a number, got {v!r}")
    stages = data.get("stages")
    if not isinstance(stages, list):
        problems.append("'stages' must be a list")
    else:
        for i, s in enumerate(stages):
            if not isinstance(s, dict):
                problems.append(f"stages[{i}] must be an object")
                continue
            if not isinstance(s.get("name"), str):
                problems.append(f"stages[{i}] missing string 'name'")
            if not _is_number(s.get("wall_seconds")):
                problems.append(f"stages[{i}] missing numeric 'wall_seconds'")
    if "spans" not in data:
        problems.append("'spans' (root span tree) is required")
    else:
        _check_span(data["spans"], "spans", problems)
    if not isinstance(data.get("environment"), dict):
        problems.append("'environment' must be an object")
    if "extra" in data and not isinstance(data["extra"], dict):
        problems.append("'extra' must be an object")
    return problems


def validate_report_file(path: str | Path) -> list[str]:
    """Validate one report file; unreadable/unparsable counts as invalid."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        return [f"cannot read {path}: {e}"]
    except json.JSONDecodeError as e:
        return [f"{path} is not valid JSON: {e}"]
    return validate_report_dict(data)
