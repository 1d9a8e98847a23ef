"""End-to-end chaos tests for the durable correction service.

Real worker subprocesses are SIGKILLed at scripted kill points
(``REPRO_FAULT_POINTS``), then a fresh worker over the same spool must
reclaim the expired lease, resume from the last durable checkpoint,
and produce output **byte-identical** to an uninterrupted run — with
no partial artifact ever visible at the final output path.  Graceful
shutdown (SIGTERM) is tested the same way: exit 0, lease released,
attempt refunded, resumable.

These tests spawn real ``python -m repro serve`` processes; they are
the slowest in the suite but the only ones that exercise the full
kill -9 → reap → resume story the service exists for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import DB_NAME, PENDING, SUCCEEDED, JobStore
from repro.service.cli import main as jobs_main
from repro.service.runner import job_workdir
from repro.tools.correct import main as correct_main
from repro.tools.job import checkpoint_path, latest_checkpoint
from repro.tools.simulate import main as simulate_main

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env(fault_points: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_POINTS", None)
    if fault_points is not None:
        env["REPRO_FAULT_POINTS"] = fault_points
    return env


def _serve(spool, fault_points=None, lease="1.5", timeout=120, extra=()):
    """Run one worker subprocess to drain the spool; returns the proc."""
    return subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", str(spool),
            "--idle-exit",
            "--lease-seconds", lease,
            "--poll-seconds", "0.05",
            *extra,
        ],
        env=_env(fault_points),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos-data")
    rc = simulate_main([
        str(out), "--genome-length", "2000", "--coverage", "8",
        "--seed", "7",
    ])
    assert rc == 0
    return out / "reads.fastq"


@pytest.fixture(scope="module")
def stream_reference(dataset, tmp_path_factory):
    """Bytes of an uninterrupted streamed correction of the dataset."""
    out = tmp_path_factory.mktemp("chaos-ref") / "stream.fastq"
    rc = correct_main([
        str(dataset), str(out), "--stream", "--chunk-size", "32",
    ])
    assert rc == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def batch_reference(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos-ref") / "batch.fastq"
    rc = correct_main([str(dataset), str(out), "--chunk-size", "32"])
    assert rc == 0
    return out.read_bytes()


def _submit_stream(spool, dataset, output, *extra) -> str:
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = jobs_main([
            "--spool", str(spool), "submit", str(dataset), str(output),
            "--stream", "--chunk-size", "32", "--max-attempts", "5",
            *extra,
        ])
    assert rc == 0
    return buf.getvalue().strip()


def _job_state(spool, job_id):
    with JobStore(Path(spool) / DB_NAME) as store:
        return store.get(job_id)


# -- SIGKILL at every scripted kill point ------------------------------------
KILL_POINTS = [
    "service.claimed=kill@1",         # right after the claim transaction
    "service.fitted=kill@1",          # phase 1 done, nothing written yet
    "service.partial_written=kill@1", # block durable, checkpoint not yet
    "service.block=kill@2",           # two durable blocks checkpointed
    "service.before_commit=kill@1",   # full partial staged, not published
    "service.before_finish=kill@1",   # artifact published, store not final
]


@pytest.mark.parametrize("fault", KILL_POINTS)
def test_sigkill_then_restart_is_byte_identical(
    fault, dataset, stream_reference, tmp_path
):
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    job_id = _submit_stream(spool, dataset, output)

    killed = _serve(spool, fault_points=fault)
    assert killed.returncode == -signal.SIGKILL, killed.stdout
    # The kill may land before or after publication
    # (service.before_finish publishes first), but never mid-write: the
    # output path holds either nothing or the complete artifact.
    if output.exists():
        assert output.read_bytes() == stream_reference
    record = _job_state(spool, job_id)
    assert record.state == "running"  # the orphaned lease, pre-reap

    clean = _serve(spool)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    record = _job_state(spool, job_id)
    assert record.state == SUCCEEDED, record.error
    assert record.attempts == 2  # one killed attempt + one clean one
    assert output.read_bytes() == stream_reference


def test_kill_mid_stream_leaves_durable_checkpoint_and_resumes(
    dataset, stream_reference, tmp_path
):
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    job_id = _submit_stream(spool, dataset, output)

    killed = _serve(spool, fault_points="service.block=kill@2")
    assert killed.returncode == -signal.SIGKILL
    ckpt_path = latest_checkpoint(job_workdir(spool, job_id))
    assert ckpt_path is not None and ckpt_path.is_file()
    with open(ckpt_path, "rt", encoding="utf-8") as fh:
        ckpt = json.load(fh)
    assert ckpt["reads_done"] == 64  # two durable 32-read blocks
    assert not output.exists()

    clean = _serve(spool)
    assert clean.returncode == 0
    record = _job_state(spool, job_id)
    assert record.state == SUCCEEDED
    assert record.result["resumed_reads"] == 64
    assert record.result["reads"] > 64
    assert output.read_bytes() == stream_reference


def test_kill_before_first_checkpoint_restarts_clean(
    dataset, stream_reference, tmp_path
):
    """SIGKILL after the first block's bytes are durable but before any
    checkpoint exists: the orphaned partial must not wedge the retry —
    the next attempt starts from scratch and still lands byte-identical
    (the review-flagged crash window)."""
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    job_id = _submit_stream(spool, dataset, output)

    killed = _serve(spool, fault_points="service.partial_written=kill@1")
    assert killed.returncode == -signal.SIGKILL, killed.stdout
    workdir = job_workdir(spool, job_id)
    # The crash left durable partial bytes with no covering checkpoint.
    partials = list(workdir.glob("partial.*.fastq"))
    assert partials and partials[0].stat().st_size > 0
    assert latest_checkpoint(workdir) is None

    clean = _serve(spool)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    record = _job_state(spool, job_id)
    assert record.state == SUCCEEDED, record.error
    assert record.result["resumed_reads"] == 0  # no checkpoint to adopt
    assert output.read_bytes() == stream_reference


def test_repeated_kills_exhaust_attempts_into_failed(dataset, tmp_path):
    """A job killed on every attempt fails for good with a diagnosis —
    bounded retries, no infinite crash loop."""
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = jobs_main([
            "--spool", str(spool), "submit", str(dataset), str(output),
            "--stream", "--chunk-size", "32", "--max-attempts", "2",
        ])
    assert rc == 0
    job_id = buf.getvalue().strip()

    for _ in range(2):
        killed = _serve(spool, fault_points="service.claimed=kill@1")
        assert killed.returncode == -signal.SIGKILL
    # The reap of the final expired lease happens on the next claim.
    clean = _serve(spool)
    assert clean.returncode == 0
    record = _job_state(spool, job_id)
    assert record.state == "failed"
    assert "attempts exhausted" in record.error
    assert not output.exists()

    # Operator override: retry resets the budget and the job completes.
    assert jobs_main(["--spool", str(spool), "retry", job_id]) == 0
    clean = _serve(spool)
    assert clean.returncode == 0
    assert _job_state(spool, job_id).state == SUCCEEDED
    assert output.exists()


def test_injected_enospc_on_artifact_write_retries_clean(
    dataset, batch_reference, tmp_path
):
    """A batch job whose final write dies with ENOSPC fails the attempt
    (no partial output), then the in-process retry publishes cleanly."""
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = jobs_main([
            "--spool", str(spool), "submit", str(dataset), str(output),
            "--chunk-size", "32", "--max-attempts", "3",
        ])
    assert rc == 0
    job_id = buf.getvalue().strip()

    proc = _serve(spool, fault_points="artifact.write=enospc@1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = _job_state(spool, job_id)
    assert record.state == SUCCEEDED
    assert record.attempts == 2
    assert output.read_bytes() == batch_reference


def test_injected_enospc_on_spill_retries_clean(dataset, tmp_path):
    """ENOSPC inside the external-counter spill path is survivable."""
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    job_id = _submit_stream(
        spool, dataset, output, "--max-memory", "4096"
    )
    proc = _serve(spool, fault_points="spill.write=enospc@1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = _job_state(spool, job_id)
    assert record.state == SUCCEEDED, record.error
    assert record.attempts == 2
    assert output.exists()


def test_graceful_sigterm_releases_and_resumes(
    dataset, stream_reference, tmp_path
):
    """SIGTERM mid-stream: exit 0, lease released with the attempt
    refunded, checkpoint durable, next worker finishes byte-identical."""
    spool = tmp_path / "spool"
    output = tmp_path / "out.fastq"
    job_id = _submit_stream(spool, dataset, output)
    # The first claim is claim_seq 1, so its fenced checkpoint path is
    # knowable before the worker starts.
    ckpt_path = checkpoint_path(job_workdir(spool, job_id), 1)

    # Slow each block down so SIGTERM reliably lands mid-run.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--spool", str(spool), "--idle-exit",
            "--lease-seconds", "10", "--poll-seconds", "0.05",
        ],
        env=_env("service.block=sleep@*"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not ckpt_path.is_file():
            assert proc.poll() is None, proc.communicate()[0]
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        stdout, _stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stdout
    assert "released" in stdout

    record = _job_state(spool, job_id)
    assert record.state == PENDING
    assert record.attempts == 0      # refunded: not the worker's fault
    assert record.lease_owner is None
    assert not output.exists()
    assert ckpt_path.is_file()       # durable resume point survives

    clean = _serve(spool)
    assert clean.returncode == 0
    record = _job_state(spool, job_id)
    assert record.state == SUCCEEDED
    assert record.result["resumed_reads"] > 0
    assert output.read_bytes() == stream_reference


def test_two_workers_drain_spool_without_double_claims(
    dataset, batch_reference, tmp_path
):
    spool = tmp_path / "spool"
    import io
    from contextlib import redirect_stdout

    outputs = []
    for i in range(4):
        output = tmp_path / f"out{i}.fastq"
        outputs.append(output)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = jobs_main([
                "--spool", str(spool), "submit", str(dataset),
                str(output), "--chunk-size", "32",
            ])
        assert rc == 0

    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", str(spool), "--idle-exit",
                "--lease-seconds", "30", "--poll-seconds", "0.05",
                "--worker-id", f"w{i}",
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(2)
    ]
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=180)
        assert proc.returncode == 0, stdout + stderr

    with JobStore(spool / DB_NAME) as store:
        records = store.list_jobs()
        assert len(records) == 4
        assert all(r.state == SUCCEEDED for r in records)
        assert all(r.attempts == 1 for r in records)  # claimed exactly once
    for output in outputs:
        assert output.read_bytes() == batch_reference
