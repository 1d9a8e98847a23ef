"""Execute one claimed correction job.

The runner is the bridge between the durable job store and
:func:`repro.tools.job.run_job` — the body ``repro correct`` runs too.
It takes a claimed :class:`~repro.service.store.JobRecord`, opens the
job's telemetry session, hands the spec, the job's work directory, its
``claim_seq`` fence, the worker's heartbeat and the warm pool to
``run_job``, and returns the result payload recorded on the job row.
The crash-safety contract (atomic batch output, fenced partial +
block checkpoints for stream jobs, the scripted kill points) is
documented and implemented in :mod:`repro.tools.job`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .. import telemetry
from ..mapreduce.faults import hit_fault_point
from ..tools.job import run_job
from .pool import SpectrumPool
from .store import JobRecord


def job_workdir(spool: str | Path, job_id: str) -> Path:
    """Per-job scratch directory under the spool (partial + checkpoint)."""
    return Path(spool) / "work" / job_id


def execute_job(
    record: JobRecord,
    workdir: str | Path,
    tick: Callable[[], None] | None = None,
    pool: SpectrumPool | None = None,
) -> dict:
    """Run one claimed job to completion; returns the result payload.

    ``tick`` (the worker's heartbeat hook) and ``pool`` (the
    process-wide warm-spectrum cache) are :func:`~repro.tools.job.
    run_job`'s; the job's report, if its spec names one, is written
    whether the attempt succeeds or not.
    """
    spec = record.spec
    hit_fault_point("service.claimed")
    tel = None
    try:
        with telemetry.session("serve") as tel:
            telemetry.gauge("job_attempt", record.attempts)
            result = run_job(
                spec,
                workdir=workdir,
                claim_seq=record.claim_seq,
                tick=tick,
                pool=pool,
            )
            if pool is not None:
                for name, value in pool.stats().items():
                    telemetry.gauge(f"pool_{name}", value)
    finally:
        if tel is not None and spec.report:
            tel.report().write(spec.report)
    return result
