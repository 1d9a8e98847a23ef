"""``repro jobs`` — submit and operate on durable correction jobs.

The operator surface of the service, now a thin skin over
:class:`repro.service.client.JobsClient`::

    python -m repro jobs --spool spool/ submit in.fastq out.fastq \\
        --stream --workers 4 --max-attempts 5
    python -m repro jobs --url http://127.0.0.1:8765 list
    python -m repro jobs --spool spool/ status job-000001 --json
    python -m repro jobs --url http://127.0.0.1:8765 result job-000001 out.fastq
    python -m repro jobs --spool spool/ retry job-000001
    python -m repro jobs --spool spool/ cancel job-000002

``--spool DIR`` operates the store in-process (no server needed);
``--url BASE`` sends the same verbs to a ``repro serve-http`` server —
output is identical either way, because both paths run the same
:class:`~repro.service.http.ServiceAPI` verbs and ``repro-job/1``
envelopes.  ``submit`` takes ``repro correct``'s spec-backed flags
(:data:`repro.tools.job.SPEC_FLAGS` — a job spec *is* a serialized
correct invocation); the remaining verbs are single service calls,
safe to run while workers are live.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..tools.job import SPEC_FLAGS, add_spec_flags, spec_from_args
from .client import HTTPTransport, JobsClient, LocalTransport, \
    ServiceError, TransportError
from .spec import DEFAULT_TENANT
from .store import STATES
from .worker import SpoolError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-jobs",
        description="Operate the durable correction job queue.",
    )
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument(
        "--spool", type=Path, default=None,
        help="spool directory holding the job store (operated "
             "in-process; created if missing)",
    )
    where.add_argument(
        "--url", default=None, metavar="BASE_URL",
        help="base URL of a `repro serve-http` server "
             "(e.g. http://127.0.0.1:8765)",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    s = sub.add_parser("submit", help="enqueue one correction job")
    add_spec_flags(s, *SPEC_FLAGS)
    s.add_argument("--report", default=None,
                   help="write a repro-run-report/1 JSON here on finish")
    s.add_argument("--max-attempts", type=int, default=3,
                   help="attempts before the job fails for good")
    s.add_argument("--tenant", default=DEFAULT_TENANT,
                   help="tenant queue to file the job under "
                        "(fair-share claiming; default %(default)r)")
    s.add_argument("--label", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="free-form label (repeatable)")

    g = sub.add_parser("status", help="show one job")
    g.add_argument("job_id")
    g.add_argument("--json", action="store_true")

    ls = sub.add_parser("list", help="list jobs (optionally by state)")
    ls.add_argument("--state", choices=list(STATES), default=None)
    ls.add_argument("--tenant", default=None,
                    help="only this tenant's jobs")
    ls.add_argument("--json", action="store_true")

    r = sub.add_parser("retry", help="requeue a failed/cancelled job")
    r.add_argument("job_id")

    c = sub.add_parser("cancel", help="cancel a pending/running job")
    c.add_argument("job_id")

    res = sub.add_parser(
        "result", help="fetch a succeeded job's corrected FASTQ"
    )
    res.add_argument("job_id")
    res.add_argument("dest", type=Path,
                     help="write the corrected reads here (atomically)")
    return p


def _parse_labels(pairs: list[str]) -> dict:
    labels = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--label must be KEY=VALUE, got {pair!r}")
        labels[key] = value
    return labels


def _render(record) -> str:
    """One status line for a client Job."""
    lease = ""
    if record.lease_owner:
        lease = f" lease={record.lease_owner}"
    err = f" error={record.error!r}" if record.error else ""
    return (
        f"{record.id}  {record.state:<9s} "
        f"attempt {record.attempts}/{record.max_attempts}{lease}{err}  "
        f"{record.spec.input} -> {record.spec.output}"
    )


def _client_for(args: argparse.Namespace) -> JobsClient:
    if args.url is not None:
        return JobsClient(HTTPTransport(args.url))
    from .http import ServiceAPI

    return JobsClient(LocalTransport(ServiceAPI(args.spool)))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        client = _client_for(args)
    except SpoolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _run(args, client)
    except TransportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        api = getattr(getattr(client, "transport", None), "api", None)
        if api is not None:
            api.close()


def _run(args: argparse.Namespace, client: JobsClient) -> int:
    """Execute one verb through the client."""
    if args.verb == "submit":
        try:
            spec = spec_from_args(
                args, report=args.report, labels=_parse_labels(args.label)
            )
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        try:
            job = client.submit(
                spec, tenant=args.tenant, max_attempts=args.max_attempts
            )
        except ServiceError as e:
            print(f"error: {e.message}", file=sys.stderr)
            return 1
        print(job.id)
        return 0

    if args.verb == "status":
        try:
            job = client.get(args.job_id)
        except ServiceError:
            print(f"no such job: {args.job_id}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(job.raw, indent=2, sort_keys=True))
        else:
            print(_render(job))
        return 0

    if args.verb == "list":
        jobs, counts = client.list(state=args.state, tenant=args.tenant)
        if args.json:
            print(json.dumps(
                [job.raw for job in jobs], indent=2, sort_keys=True
            ))
        else:
            for job in jobs:
                print(_render(job))
            print(
                "totals: "
                + " ".join(f"{s}={n}" for s, n in counts.items() if n)
            )
        return 0

    if args.verb == "retry":
        try:
            client.retry(args.job_id)
        except ServiceError:
            print(
                f"{args.job_id}: not retryable (must exist and be "
                "failed/cancelled)",
                file=sys.stderr,
            )
            return 1
        print(f"{args.job_id} requeued")
        return 0

    if args.verb == "cancel":
        try:
            client.cancel(args.job_id)
        except ServiceError:
            print(
                f"{args.job_id}: not cancellable (must exist and be "
                "pending/running)",
                file=sys.stderr,
            )
            return 1
        print(f"{args.job_id} cancelled")
        return 0

    if args.verb == "result":
        try:
            dest = client.result(args.job_id, args.dest)
        except ServiceError as e:
            print(f"error: {e.message}", file=sys.stderr)
            return 1
        print(dest)
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    raise SystemExit(main())
