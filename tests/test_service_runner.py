"""In-process crash-resume and zombie-fencing tests for the runner.

The chaos suite (``test_service_chaos.py``) SIGKILLs real worker
subprocesses; these tests drive :func:`repro.service.runner.
execute_job` directly so the nastier *partial-failure* states are
cheap to stage exactly:

- a prior claim's durable checkpoint is adopted (copied, bounded at
  the checkpointed offset) into the new claim's own fenced partial;
- a zombie of the old claim that keeps appending to its inode — and
  rewriting its checkpoint — *while the new owner runs* cannot
  corrupt the published bytes (the review-flagged interleaving bug);
- a partial with no covering checkpoint (killed before the first
  block became durable) is discarded, never wedging retries;
- a checkpoint whose fingerprint no longer matches is ignored.

``repro correct`` runs the same :func:`repro.tools.job.run_job` body
without a store, so the last tests pin the two callers to each other:
same bytes, same result row, and the CLI's streamed output staged (and
cleaned up) like a stream job's.
"""

from __future__ import annotations

import json

import pytest

from repro.mapreduce.faults import (
    FAULT_POINTS_ENV,
    InjectedFault,
    reset_fault_points,
)
from repro.service.runner import execute_job
from repro.service.spec import JobSpec
from repro.service.store import JobRecord
from repro.tools.correct import main as correct_main
from repro.tools.job import checkpoint_path, latest_checkpoint, partial_path
from repro.tools.simulate import main as simulate_main


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("runner-data")
    rc = simulate_main([
        str(out), "--genome-length", "2000", "--coverage", "8",
        "--seed", "7",
    ])
    assert rc == 0
    return out / "reads.fastq"


@pytest.fixture(scope="module")
def stream_reference(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runner-ref") / "stream.fastq"
    rc = correct_main([
        str(dataset), str(out), "--stream", "--chunk-size", "32",
    ])
    assert rc == 0
    return out.read_bytes()


def _record(dataset, output, claim_seq, **fields) -> JobRecord:
    fields = {"stream": True, "chunk_size": 32, **fields}
    spec = JobSpec(input=str(dataset), output=str(output), **fields)
    return JobRecord(
        id="job-000001", spec=spec, state="running", attempts=claim_seq,
        claim_seq=claim_seq, max_attempts=9, not_before=0.0,
        lease_owner="w1", lease_expires=None, submitted_at=0.0,
        started_at=None, finished_at=None, error=None, result=None,
    )


def _run_partially(record, workdir, monkeypatch, blocks) -> None:
    """Run a claim until ``blocks`` blocks are durable, then die."""
    monkeypatch.setenv(FAULT_POINTS_ENV, f"service.block=raise@{blocks}")
    reset_fault_points()
    with pytest.raises(InjectedFault):
        execute_job(record, workdir)
    monkeypatch.delenv(FAULT_POINTS_ENV)
    reset_fault_points()


def test_resume_adopts_durable_prefix_into_fenced_partial(
    dataset, stream_reference, tmp_path, monkeypatch
):
    output = tmp_path / "out.fastq"
    workdir = tmp_path / "work"
    _run_partially(_record(dataset, output, 1), workdir, monkeypatch, 2)
    ckpt = json.loads(checkpoint_path(workdir, 1).read_text())
    assert ckpt["reads_done"] == 64  # two durable 32-read blocks

    result = execute_job(_record(dataset, output, 2), workdir)
    assert result["resumed_reads"] == 64
    assert output.read_bytes() == stream_reference
    # The prior claim's work files were pruned, not reused in place.
    assert not partial_path(workdir, 1).exists()
    assert not checkpoint_path(workdir, 1).exists()


def test_resume_prefers_the_longest_durable_prefix(
    dataset, stream_reference, tmp_path, monkeypatch
):
    output = tmp_path / "out.fastq"
    workdir = tmp_path / "work"
    _run_partially(_record(dataset, output, 1), workdir, monkeypatch, 2)
    # Claim 2 adopts 64 reads, makes one more block durable, dies too.
    _run_partially(_record(dataset, output, 2), workdir, monkeypatch, 1)
    ckpt = json.loads(checkpoint_path(workdir, 2).read_text())
    assert ckpt["reads_done"] == 96

    result = execute_job(_record(dataset, output, 3), workdir)
    assert result["resumed_reads"] == 96
    assert output.read_bytes() == stream_reference


def test_zombie_appends_cannot_corrupt_the_new_owners_output(
    dataset, stream_reference, tmp_path, monkeypatch
):
    """A worker stalled past its lease keeps appending blocks to its
    old partial and rewriting its old checkpoint *while* the new lease
    owner runs.  Fencing means those writes land on the zombie's own
    inode: the published output stays byte-identical."""
    output = tmp_path / "out.fastq"
    workdir = tmp_path / "work"
    _run_partially(_record(dataset, output, 1), workdir, monkeypatch, 2)

    zombie_partial = open(partial_path(workdir, 1), "ab")
    zombie_garbage = b"@zombie\nNNNN\n+\n!!!!\n"
    ticks = [0]

    def zombie_tick() -> None:
        # The first two ticks land after pass A and the fit, before
        # the new owner adopts the checkpoint; the zombie wakes after
        # that, interleaving a stale append + checkpoint rewrite with
        # every block the new owner writes — exactly the review's
        # failure window.
        ticks[0] += 1
        if ticks[0] < 3:
            return
        zombie_partial.write(zombie_garbage)
        zombie_partial.flush()
        checkpoint_path(workdir, 1).write_text(json.dumps({
            "fingerprint": "stale", "reads_done": 10_000,
            "byte_offset": zombie_partial.tell(), "bases_changed": 0,
        }))

    try:
        result = execute_job(
            _record(dataset, output, 2), workdir, tick=zombie_tick
        )
    finally:
        zombie_partial.close()
    assert result["resumed_reads"] == 64
    assert output.read_bytes() == stream_reference


def test_uncheckpointed_partial_is_discarded_not_wedged(
    dataset, stream_reference, tmp_path
):
    """Crash window: partial bytes durable, no checkpoint yet.  The
    stale partial must be ignored and the retry must start clean —
    previously this wedged every retry on the splice guard."""
    output = tmp_path / "out.fastq"
    workdir = tmp_path / "work"
    workdir.mkdir()
    partial_path(workdir, 1).write_bytes(b"@torn\nACGT\n+\n!!!!\n")
    assert latest_checkpoint(workdir) is None

    result = execute_job(_record(dataset, output, 2), workdir)
    assert result["resumed_reads"] == 0
    assert output.read_bytes() == stream_reference
    assert not partial_path(workdir, 1).exists()


def test_stale_fingerprint_checkpoint_restarts_from_scratch(
    dataset, stream_reference, tmp_path, monkeypatch
):
    output = tmp_path / "out.fastq"
    workdir = tmp_path / "work"
    _run_partially(_record(dataset, output, 1), workdir, monkeypatch, 2)
    ckpt_path = checkpoint_path(workdir, 1)
    ckpt = json.loads(ckpt_path.read_text())
    ckpt["fingerprint"] = "0" * 64
    ckpt_path.write_text(json.dumps(ckpt))

    result = execute_job(_record(dataset, output, 2), workdir)
    assert result["resumed_reads"] == 0
    assert output.read_bytes() == stream_reference


def test_stream_job_and_cli_share_one_streamed_fit(
    dataset, stream_reference, tmp_path, monkeypatch
):
    """A service stream job and ``repro correct --stream`` both fit
    through :meth:`ReptileCorrector.fit_streaming`, and for the same
    input get the same corrector and publish the same bytes."""
    from repro.core.reptile import ReptileCorrector

    fitted = []
    real = ReptileCorrector.fit_streaming.__func__

    def spy(cls, *args, **kwargs):
        fitted.append(real(cls, *args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr(ReptileCorrector, "fit_streaming", classmethod(spy))
    cli_out = tmp_path / "cli.fastq"
    assert correct_main([
        str(dataset), str(cli_out), "--stream", "--chunk-size", "32",
    ]) == 0
    output = tmp_path / "out.fastq"
    execute_job(_record(dataset, output, 1), tmp_path / "work")

    (cli, cli_meta), (job, job_meta) = fitted
    assert job.params == cli.params
    assert job.spectrum.n_kmers == cli.spectrum.n_kmers
    assert job.tiles.n_tiles == cli.tiles.n_tiles
    assert job_meta["n_reads"] == cli_meta["n_reads"]
    assert output.read_bytes() == cli_out.read_bytes() == stream_reference


RESULT_KEYS = {
    "reads", "bases_changed", "resumed_reads", "pool_hit",
    "skipped_records", "truncated_records",
}


@pytest.mark.parametrize(
    "flags,fields",
    [
        ((), {"stream": False, "chunk_size": 2048}),
        (("--stream", "--chunk-size", "32"), {}),
        (("--method", "redeem"),
         {"stream": False, "chunk_size": 2048, "method": "redeem"}),
    ],
    ids=["reptile-batch", "reptile-stream", "redeem-batch"],
)
def test_cli_and_service_job_write_the_same_bytes(
    dataset, tmp_path, flags, fields
):
    cli_out = tmp_path / "cli.fastq"
    assert correct_main([str(dataset), str(cli_out), *flags]) == 0
    output = tmp_path / "job.fastq"
    result = execute_job(
        _record(dataset, output, 1, **fields), tmp_path / "work"
    )
    assert output.read_bytes() == cli_out.read_bytes()
    assert set(result) == RESULT_KEYS
    assert result["reads"] == cli_out.read_bytes().count(b"\n") // 4


def test_cli_stream_fault_leaves_no_output_and_no_workdir(
    dataset, stream_reference, tmp_path, monkeypatch
):
    outdir = tmp_path / "out"
    argv = [
        str(dataset), str(outdir / "killed.fastq"),
        "--stream", "--chunk-size", "32",
    ]
    monkeypatch.setenv(FAULT_POINTS_ENV, "service.block=raise@2")
    reset_fault_points()
    with pytest.raises(InjectedFault):
        correct_main(argv)
    monkeypatch.delenv(FAULT_POINTS_ENV)
    reset_fault_points()
    assert list(outdir.iterdir()) == []

    assert correct_main(argv) == 0
    assert [p.name for p in outdir.iterdir()] == ["killed.fastq"]
    assert (outdir / "killed.fastq").read_bytes() == stream_reference


def test_skip_tallies_reach_the_job_report(dataset, tmp_path):
    """``on_error="skip"`` counts land in the result row *and* in the
    job's ``--report``, as they do for ``repro correct``."""
    broken = tmp_path / "broken.fastq"
    lines = dataset.read_text().splitlines()
    lines[4 * 5 + 3] = lines[4 * 5 + 3][:-3]  # quality shorter than bases
    broken.write_text("\n".join(lines) + "\n")
    report = tmp_path / "job.json"
    result = execute_job(
        _record(
            broken, tmp_path / "out.fastq", 1,
            stream=False, on_error="skip", report=str(report),
        ),
        tmp_path / "work",
    )
    assert result["skipped_records"] == 1
    counters = json.loads(report.read_text())["counters"]
    assert counters["skipped_records"] == 1
