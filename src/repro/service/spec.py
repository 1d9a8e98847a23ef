"""The ``repro-job/1`` wire schema around a :class:`JobSpec`.

A :class:`~repro.tools.job.JobSpec` (re-exported here) is the JSON
payload stored in the job store's ``spec`` column — everything
:func:`repro.tools.job.run_job` needs to run one correction, and
nothing about *how* the run is scheduled (states, attempts, and leases
belong to :mod:`repro.service.store`).

This module owns the **``repro-job/1`` wire schema**: the
versioned JSON documents the HTTP API (:mod:`repro.service.http`), the
client (:mod:`repro.service.client`), and the store all round-trip
through.  Every wire document is an *envelope* —

``{"schema": "repro-job/1", "<payload key>": ...}``

with exactly one payload key out of ``submit`` (job submission
request), ``job`` (one job row), ``jobs`` (a listing, plus per-state
``counts``), ``error`` (machine-readable failure), ``health`` and
``metrics``.  Validation follows the ``repro-run-report/1`` pattern
(:mod:`repro.telemetry.report`): dependency-free, returns a list of
human-readable problems, and is exposed on the command line as
``python -m repro validate-job``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..tools.job import JobSpec

#: Version tag carried by every wire document (requests *and*
#: responses); bump only with a parallel ``repro-job/2`` validator.
JOB_SCHEMA_VERSION = "repro-job/1"

#: Canonical job states as they appear on the wire.  The store derives
#: its state constants from the same vocabulary (a test pins the two
#: in sync) — the wire schema owns the names because clients must be
#: able to validate a payload without importing the store.
JOB_STATES = ("pending", "running", "succeeded", "failed", "cancelled")

#: Tenant jobs are filed under when the submitter names none.
DEFAULT_TENANT = "default"

#: Tenant names are path- and metric-safe identifiers.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant(name: str) -> str:
    """Return ``name`` if it is a legal tenant id, else raise ValueError."""
    if not isinstance(name, str) or not _TENANT_RE.match(name):
        raise ValueError(
            f"tenant must match {_TENANT_RE.pattern}, got {name!r}"
        )
    return name


# ---------------------------------------------------------------------------
# repro-job/1 wire documents: builders
# ---------------------------------------------------------------------------

#: Envelope payload keys; every document carries exactly one (``jobs``
#: envelopes additionally carry ``counts``).
ENVELOPE_KEYS = ("submit", "job", "jobs", "error", "health", "metrics")

#: Keys of one job payload — exactly ``JobRecord.as_dict()``'s shape.
JOB_KEYS = (
    "id", "state", "tenant", "attempts", "claim_seq", "max_attempts",
    "not_before", "lease_owner", "lease_expires", "submitted_at",
    "started_at", "finished_at", "error", "result", "spec",
)

#: Documentation-oriented JSON-Schema rendering of the wire format
#: (the executable truth is the validators below, same split as
#: ``repro-run-report/1``).
JOB_JSON_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://repro.invalid/schemas/repro-job-1.json",
    "title": "repro-job/1 wire envelope",
    "type": "object",
    "required": ["schema"],
    "properties": {
        "schema": {"const": JOB_SCHEMA_VERSION},
        "submit": {
            "type": "object",
            "required": ["spec"],
            "properties": {
                "spec": {"type": "object"},
                "tenant": {"type": "string",
                           "pattern": _TENANT_RE.pattern},
                "max_attempts": {"type": "integer", "minimum": 1},
                "job_id": {"type": ["string", "null"]},
            },
            "additionalProperties": False,
        },
        "job": {"$ref": "#/$defs/job"},
        "jobs": {"type": "array", "items": {"$ref": "#/$defs/job"}},
        "counts": {"type": "object",
                   "additionalProperties": {"type": "integer"}},
        "error": {
            "type": "object",
            "required": ["code", "message"],
            "properties": {
                "code": {"type": "string"},
                "message": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "health": {
            "type": "object",
            "required": ["status", "counts"],
            "properties": {
                "status": {"const": "ok"},
                "counts": {"type": "object"},
            },
        },
        "metrics": {
            "type": "object",
            "required": ["counters", "gauges"],
            "properties": {
                "counters": {"type": "object"},
                "gauges": {"type": "object"},
            },
        },
    },
    "$defs": {
        "job": {
            "type": "object",
            "required": list(JOB_KEYS),
            "properties": {
                "id": {"type": "string"},
                "state": {"enum": list(JOB_STATES)},
                "tenant": {"type": "string"},
                "attempts": {"type": "integer", "minimum": 0},
                "claim_seq": {"type": "integer", "minimum": 0},
                "max_attempts": {"type": "integer", "minimum": 1},
                "not_before": {"type": "number"},
                "lease_owner": {"type": ["string", "null"]},
                "lease_expires": {"type": ["number", "null"]},
                "submitted_at": {"type": "number"},
                "started_at": {"type": ["number", "null"]},
                "finished_at": {"type": ["number", "null"]},
                "error": {"type": ["string", "null"]},
                "result": {"type": ["object", "null"]},
                "spec": {"type": "object"},
            },
            "additionalProperties": False,
        },
    },
}


def submit_document(
    spec: "JobSpec | dict",
    tenant: str = DEFAULT_TENANT,
    max_attempts: int = 3,
    job_id: str | None = None,
) -> dict:
    """The repro-job/1 submission request for ``POST /v1/jobs``."""
    spec_dict = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
    doc: dict = {
        "schema": JOB_SCHEMA_VERSION,
        "submit": {
            "spec": spec_dict,
            "tenant": tenant,
            "max_attempts": max_attempts,
        },
    }
    if job_id is not None:
        doc["submit"]["job_id"] = job_id
    return doc


def job_envelope(job: dict) -> dict:
    """Wrap one ``JobRecord.as_dict()`` payload for the wire."""
    return {"schema": JOB_SCHEMA_VERSION, "job": job}


def jobs_envelope(jobs: list[dict], counts: dict[str, int]) -> dict:
    """A job listing plus the store's per-state totals."""
    return {"schema": JOB_SCHEMA_VERSION, "jobs": jobs, "counts": counts}


def error_envelope(code: str, message: str) -> dict:
    """Machine-readable failure (HTTP 4xx/5xx bodies)."""
    return {
        "schema": JOB_SCHEMA_VERSION,
        "error": {"code": code, "message": message},
    }


def health_envelope(counts: dict[str, int]) -> dict:
    return {
        "schema": JOB_SCHEMA_VERSION,
        "health": {"status": "ok", "counts": counts},
    }


def metrics_envelope(snapshot: dict) -> dict:
    """Wrap a :meth:`MetricsRegistry.snapshot` dump for the wire."""
    counters = dict(snapshot.get("counters", {}))
    gauges = dict(snapshot.get("gauges", {}))
    return {
        "schema": JOB_SCHEMA_VERSION,
        "metrics": {"counters": counters, "gauges": gauges},
    }


# ---------------------------------------------------------------------------
# repro-job/1 wire documents: validators
# ---------------------------------------------------------------------------

def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_job_dict(job: object, where: str = "job") -> list[str]:
    """Problems with one job payload (empty list = valid)."""
    if not isinstance(job, dict):
        return [f"{where}: expected an object, got {type(job).__name__}"]
    problems: list[str] = []
    missing = [k for k in JOB_KEYS if k not in job]
    if missing:
        problems.append(f"{where}: missing key(s): {', '.join(missing)}")
    unknown = sorted(set(job) - set(JOB_KEYS))
    if unknown:
        problems.append(f"{where}: unknown key(s): {', '.join(unknown)}")

    def bad(key: str, expected: str) -> None:
        problems.append(
            f"{where}.{key}: expected {expected}, "
            f"got {type(job[key]).__name__}"
        )

    if "id" in job and (not isinstance(job["id"], str) or not job["id"]):
        bad("id", "non-empty string")
    if "state" in job and job["state"] not in JOB_STATES:
        problems.append(
            f"{where}.state: {job['state']!r} not one of {JOB_STATES}"
        )
    if "tenant" in job:
        try:
            validate_tenant(job["tenant"])
        except ValueError as e:
            problems.append(f"{where}.tenant: {e}")
    for key, minimum in (("attempts", 0), ("claim_seq", 0),
                         ("max_attempts", 1)):
        if key in job:
            if not _is_int(job[key]):
                bad(key, "integer")
            elif job[key] < minimum:
                problems.append(f"{where}.{key}: must be >= {minimum}")
    for key in ("not_before", "submitted_at"):
        if key in job and not _is_number(job[key]):
            bad(key, "number")
    for key in ("lease_expires", "started_at", "finished_at"):
        if key in job and job[key] is not None and not _is_number(job[key]):
            bad(key, "number or null")
    for key in ("lease_owner", "error"):
        if key in job and job[key] is not None \
                and not isinstance(job[key], str):
            bad(key, "string or null")
    if "result" in job and job["result"] is not None \
            and not isinstance(job["result"], dict):
        bad("result", "object or null")
    if "spec" in job:
        if not isinstance(job["spec"], dict):
            bad("spec", "object")
        else:
            try:
                JobSpec.from_dict(job["spec"])
            except (TypeError, ValueError) as e:
                problems.append(f"{where}.spec: {e}")
    return problems


def _validate_submit_payload(submit: object) -> list[str]:
    if not isinstance(submit, dict):
        return [f"submit: expected an object, got {type(submit).__name__}"]
    problems: list[str] = []
    allowed = {"spec", "tenant", "max_attempts", "job_id"}
    unknown = sorted(set(submit) - allowed)
    if unknown:
        problems.append(f"submit: unknown key(s): {', '.join(unknown)}")
    if "spec" not in submit:
        problems.append("submit: missing required key: spec")
    elif not isinstance(submit["spec"], dict):
        problems.append("submit.spec: expected an object")
    else:
        try:
            JobSpec.from_dict(submit["spec"])
        except (TypeError, ValueError) as e:
            problems.append(f"submit.spec: {e}")
    if "tenant" in submit:
        try:
            validate_tenant(submit["tenant"])
        except ValueError as e:
            problems.append(f"submit.tenant: {e}")
    if "max_attempts" in submit:
        if not _is_int(submit["max_attempts"]):
            problems.append("submit.max_attempts: expected integer")
        elif submit["max_attempts"] < 1:
            problems.append("submit.max_attempts: must be >= 1")
    if "job_id" in submit and submit["job_id"] is not None \
            and not isinstance(submit["job_id"], str):
        problems.append("submit.job_id: expected string or null")
    return problems


def validate_envelope_dict(data: object) -> list[str]:
    """Problems with any repro-job/1 wire document (empty = valid)."""
    if not isinstance(data, dict):
        return [f"expected a JSON object, got {type(data).__name__}"]
    problems: list[str] = []
    if data.get("schema") != JOB_SCHEMA_VERSION:
        problems.append(
            f"schema: expected {JOB_SCHEMA_VERSION!r}, "
            f"got {data.get('schema')!r}"
        )
    payloads = [k for k in ENVELOPE_KEYS if k in data]
    if len(payloads) != 1:
        problems.append(
            "envelope must carry exactly one of "
            f"{ENVELOPE_KEYS}, got {payloads or 'none'}"
        )
        return problems
    kind = payloads[0]
    extra_ok = {"schema", kind} | ({"counts"} if kind == "jobs" else set())
    unknown = sorted(set(data) - extra_ok)
    if unknown:
        problems.append(f"unknown envelope key(s): {', '.join(unknown)}")

    if kind == "submit":
        problems.extend(_validate_submit_payload(data["submit"]))
    elif kind == "job":
        problems.extend(validate_job_dict(data["job"]))
    elif kind == "jobs":
        if not isinstance(data["jobs"], list):
            problems.append("jobs: expected an array")
        else:
            for i, job in enumerate(data["jobs"]):
                problems.extend(validate_job_dict(job, where=f"jobs[{i}]"))
        counts = data.get("counts")
        if counts is not None:
            if not isinstance(counts, dict) or not all(
                isinstance(k, str) and _is_int(v)
                for k, v in counts.items()
            ):
                problems.append("counts: expected {state: integer}")
    elif kind == "error":
        err = data["error"]
        if not isinstance(err, dict) or set(err) != {"code", "message"} \
                or not all(isinstance(err[k], str)
                           for k in ("code", "message")):
            problems.append("error: expected {code: str, message: str}")
    elif kind == "health":
        health = data["health"]
        if not isinstance(health, dict) or health.get("status") != "ok" \
                or not isinstance(health.get("counts"), dict):
            problems.append("health: expected {status: 'ok', counts: {...}}")
    elif kind == "metrics":
        metrics = data["metrics"]
        if not isinstance(metrics, dict) \
                or not isinstance(metrics.get("counters"), dict) \
                or not isinstance(metrics.get("gauges"), dict):
            problems.append(
                "metrics: expected {counters: {...}, gauges: {...}}"
            )
    return problems


def validate_job_file(path: str | Path) -> list[str]:
    """Validate one JSON file holding a repro-job/1 document."""
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        return [f"cannot read file: {e}"]
    except ValueError as e:
        return [f"not valid JSON: {e}"]
    return validate_envelope_dict(data)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro validate-job`` — check wire documents."""
    import argparse
    import sys

    p = argparse.ArgumentParser(
        prog="repro-validate-job",
        description="Validate JSON documents against the repro-job/1 "
                    "wire schema (submissions, job envelopes, listings).",
    )
    p.add_argument("documents", nargs="*", type=Path,
                   help="JSON files to validate")
    p.add_argument("--print-schema", action="store_true",
                   help="print the JSON-Schema document and exit")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress per-file OK lines (problems always print)")
    args = p.parse_args(argv)
    if args.print_schema:
        print(json.dumps(JOB_JSON_SCHEMA, indent=2))
        return 0
    if not args.documents:
        print("no documents given", file=sys.stderr)
        return 2
    failed = 0
    for path in args.documents:
        problems = validate_job_file(path)
        if problems:
            failed += 1
            print(f"INVALID {path}", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        elif not args.quiet:
            print(f"ok {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
