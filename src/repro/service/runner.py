"""Execute one claimed correction job, crash-safely.

The runner is the bridge between the durable job store and the
correction engines: it takes a claimed :class:`~repro.service.store.
JobRecord`, runs its :class:`~repro.service.spec.JobSpec` through the
:mod:`repro.core.api` registry (batch) or the streamed three-pass
pipeline (``stream=True``, mirroring ``repro correct --stream``), and
returns the result payload recorded on the job row.

Crash-safety contract (at-least-once execution, exactly-once output):

- **Batch jobs** publish their one artifact through
  :func:`repro.io.fastq.write_fastq`'s atomic path — a kill at any
  instant leaves either no output or the complete output, and a rerun
  rewrites identical bytes (correction is deterministic).
- **Stream jobs** write corrected blocks to a *partial* file inside
  the job's work directory, fsync it, then atomically record a
  checkpoint (``reads done``, durable byte offset, running counters,
  spec+input fingerprint).  A restarted attempt recomputes phase 1
  deterministically, adopts the longest durable prefix a prior
  attempt checkpointed, skips the already-corrected reads, and
  continues — the final :func:`~repro.io.atomic.publish_file` rename
  yields bytes identical to an uninterrupted run.  A checkpoint whose
  fingerprint does not match the current spec/input is ignored, never
  spliced.

Zombie fencing: work files are keyed by the store's ``claim_seq`` — a
per-job counter that grows on every claim and never resets — so each
claim appends to its **own** ``partial.<seq>.fastq`` inode.  Resuming
never reuses a predecessor's file in place: the durable prefix is
*copied* (bounded at the checkpointed offset) into the current
claim's partial.  A worker stalled past its lease can therefore keep
appending to its old inode (and rewriting its old checkpoint) without
ever touching the bytes the new lease owner publishes; its stale
checkpoint is harmless because any prefix it describes is the same
deterministic bytes, written by a single owner.  Stale files — a
partial with no checkpoint (killed before the first block became
durable), or any prior claim's leftovers — are pruned at the start of
each attempt, so they can never wedge a retry.

Scripted kill points (``REPRO_FAULT_POINTS``, see
:mod:`repro.mapreduce.faults`) pepper the hot path so the chaos suite
can SIGKILL a real worker at every interesting instant:
``service.claimed``, ``service.fitted``, ``service.partial_written``
(block bytes durable, checkpoint not yet recorded), ``service.block``,
``service.before_commit`` — plus ``service.before_finish`` hit by the
worker between artifact commit and the store's ``finish`` transition.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Callable

from .. import telemetry
from ..core.api import build_corrector, supports_chunking
from ..io.atomic import atomic_write_json, atomic_writer, publish_file
from ..io.fastq import read_fastq, read_fastq_chunks, write_fastq
from ..mapreduce.faults import hit_fault_point
from .pool import SpectrumPool
from .spec import JobSpec
from .store import JobRecord

#: ``partial.<claim_seq>.fastq`` / ``checkpoint.<claim_seq>.json``:
#: one pair of work files per claim, never shared between claims.
_PARTIAL_RE = re.compile(r"^partial\.(\d{6,})\.fastq$")
_CHECKPOINT_RE = re.compile(r"^checkpoint\.(\d{6,})\.json$")


def job_workdir(spool: str | Path, job_id: str) -> Path:
    """Per-job scratch directory under the spool (partial + checkpoint)."""
    return Path(spool) / "work" / job_id


def partial_path(workdir: str | Path, claim_seq: int) -> Path:
    """This claim's crash-safe partial output (fenced by claim_seq)."""
    return Path(workdir) / f"partial.{claim_seq:06d}.fastq"


def checkpoint_path(workdir: str | Path, claim_seq: int) -> Path:
    """This claim's atomic resume checkpoint (fenced by claim_seq)."""
    return Path(workdir) / f"checkpoint.{claim_seq:06d}.json"


def latest_checkpoint(workdir: str | Path) -> Path | None:
    """The highest-claim checkpoint file present, if any (test/ops aid)."""
    found = _scan_seqs(Path(workdir), _CHECKPOINT_RE)
    if not found:
        return None
    seq = max(found)
    return checkpoint_path(workdir, seq)


def _scan_seqs(workdir: Path, pattern: re.Pattern) -> dict[int, Path]:
    """Claim-seq -> path for every work file matching ``pattern``."""
    out: dict[int, Path] = {}
    if not workdir.is_dir():
        return out
    for entry in workdir.iterdir():
        m = pattern.match(entry.name)
        if m:
            out[int(m.group(1))] = entry
    return out


def execute_job(
    record: JobRecord,
    workdir: str | Path,
    tick: Callable[[], None] | None = None,
    pool: SpectrumPool | None = None,
) -> dict:
    """Run one claimed job to completion; returns the result payload.

    ``tick`` is the worker's heartbeat hook, called between blocks and
    phases: it renews the store lease and is the single place where
    :class:`~repro.service.store.LeaseLost` (abandon now, another
    worker owns the job) or ``KeyboardInterrupt`` (graceful shutdown;
    the last checkpoint is already durable) may be raised.

    ``pool`` is the process-wide warm-spectrum cache: when a prior job
    fitted the same (input fingerprint, method params) the fit phase —
    and for stream jobs the whole pass A/B scan — is skipped, and the
    cached corrector is handed to workers copy-on-write.
    """
    spec = record.spec
    spec.validate()
    hit_fault_point("service.claimed")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tel = None
    try:
        with telemetry.session("serve") as tel:
            telemetry.gauge("job_attempt", record.attempts)
            if spec.stream:
                result = _run_stream_job(
                    spec, workdir, record.claim_seq, tick, pool
                )
            else:
                result = _run_batch_job(spec, tick, pool)
            if pool is not None:
                for name, value in pool.stats().items():
                    telemetry.gauge(f"pool_{name}", value)
    finally:
        if tel is not None and spec.report:
            tel.report().write(spec.report)
    return result


def _tick(tick: Callable[[], None] | None) -> None:
    if tick is not None:
        tick()


def _pool_marker(hit: bool | None) -> None:
    """Record one job's pool outcome (no-op when no pool is wired)."""
    if hit is None:
        return
    telemetry.count("pool.hit" if hit else "pool.miss")
    telemetry.gauge("pool_hit", int(hit))


def _run_batch_job(
    spec: JobSpec,
    tick: Callable[[], None] | None,
    pool: SpectrumPool | None = None,
) -> dict:
    """In-memory correction; the single output write is atomic."""
    from ..parallel import correct_in_parallel

    error_counts: dict = {}
    with telemetry.span("read_input", path=spec.input):
        reads = read_fastq(
            spec.input, on_error=spec.on_error, error_counts=error_counts
        )
    telemetry.gauge("reads_input", reads.n_reads)
    _tick(tick)

    def fit():
        corrector = build_corrector(
            spec.method, reads, k=spec.k, genome_length=spec.genome_length
        )
        return corrector, {"n_reads": int(reads.n_reads)}

    hit: bool | None = None
    if pool is not None:
        # Key on the input *content*, not the path: the fingerprint is
        # hashed before the fit, so a file swapped in place between
        # jobs misses cleanly instead of reusing a stale spectrum.
        key = pool.key_for(spec)
        with telemetry.span("fit", method=spec.method):
            entry, hit = pool.get_or_build(key, fit)
        corrector = entry.corrector
    else:
        with telemetry.span("fit", method=spec.method):
            corrector, _meta = fit()
    _pool_marker(hit)
    hit_fault_point("service.fitted")
    _tick(tick)
    with telemetry.span("correct", method=spec.method):
        if supports_chunking(corrector):
            report = correct_in_parallel(
                corrector,
                reads,
                workers=spec.workers,
                chunk_size=spec.chunk_size,
                pool_hit=hit,
            )
            corrected = report.reads
        else:
            corrected = corrector.correct(reads)
    _tick(tick)
    n_changed = int((corrected.codes != reads.codes).sum())
    hit_fault_point("service.before_commit")
    with telemetry.span("write_output", path=spec.output):
        write_fastq(corrected, spec.output)
    telemetry.gauge("bases_changed", n_changed)
    return {
        "reads": int(reads.n_reads),
        "bases_changed": n_changed,
        "resumed_reads": 0,
        "pool_hit": int(bool(hit)),
        **{k: int(v) for k, v in error_counts.items()},
    }


def _load_checkpoint(
    workdir: Path, fingerprint: str, seq: int
) -> dict | None:
    """Claim ``seq``'s durable resume point, or ``None``.

    Invalid checkpoints (missing partial, stale fingerprint, offset
    beyond the durable bytes) are discarded, not repaired: correctness
    comes from recomputing, never from splicing mismatched state.
    """
    ckpt_path = checkpoint_path(workdir, seq)
    partial = partial_path(workdir, seq)
    if not ckpt_path.is_file() or not partial.is_file():
        return None
    try:
        with open(ckpt_path, "rt", encoding="utf-8") as fh:
            ckpt = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(ckpt, dict) or ckpt.get("fingerprint") != fingerprint:
        return None
    offset = ckpt.get("byte_offset", 0)
    reads_done = ckpt.get("reads_done", 0)
    if not isinstance(offset, int) or offset < 0:
        return None
    if not isinstance(reads_done, int) or reads_done < 0:
        return None
    if partial.stat().st_size < offset:
        return None
    return ckpt


def _find_resume_checkpoint(
    workdir: Path, fingerprint: str, claim_seq: int
) -> tuple[dict, int] | None:
    """Best (checkpoint, source seq) left behind by a *prior* claim.

    Only strictly older claims are considered — the current claim's
    files cannot legitimately pre-exist (claim_seq never repeats), so
    anything under the current seq is debris to prune, not state to
    trust.  Among valid candidates the longest durable prefix wins
    (newest claim as tie-break); every candidate was appended by a
    single owner and fsynced before its checkpoint, so any of them is
    a clean prefix of the deterministic output.
    """
    best: tuple[dict, int] | None = None
    for seq in _scan_seqs(workdir, _CHECKPOINT_RE):
        if seq >= claim_seq:
            continue
        ckpt = _load_checkpoint(workdir, fingerprint, seq)
        if ckpt is None:
            continue
        if best is None or (
            (ckpt["reads_done"], seq) > (best[0]["reads_done"], best[1])
        ):
            best = (ckpt, seq)
    return best


def _adopt_partial(
    workdir: Path, src_seq: int, dst: Path, length: int
) -> None:
    """Copy a predecessor's durable prefix into this claim's partial.

    A *copy* (new inode), never a rename or in-place reuse: a zombie of
    the source claim may still hold an open descriptor and append past
    its lease, but those writes land on its own inode and can never
    interleave with ours.  The copy itself goes through
    :func:`~repro.io.atomic.atomic_writer`, so a crash mid-adoption
    leaves no half-copied partial behind.
    """
    src_path = partial_path(workdir, src_seq)
    with atomic_writer(dst, "wb") as out:
        with open(src_path, "rb") as src:
            remaining = length
            while remaining > 0:
                block = src.read(min(1 << 20, remaining))
                if not block:
                    raise RuntimeError(
                        f"{src_path} shrank below its checkpointed "
                        f"{length} bytes during adoption"
                    )
                out.write(block)
                remaining -= len(block)


def _prune_stale_work_files(workdir: Path, claim_seq: int) -> None:
    """Drop every other claim's partials and checkpoints.

    Runs after adoption, so the surviving state is exactly this
    claim's.  Unlinking a live zombie's partial is safe — its open
    descriptor keeps the inode alive for its own useless appends — and
    a checkpoint it later rewrites at the old path is ignored by
    :func:`_load_checkpoint` because the partial path no longer
    exists.  This is also what keeps a *checkpoint-less* partial
    (killed before the first block became durable) from wedging
    retries: it is simply deleted, and the attempt starts clean.
    """
    for pattern in (_PARTIAL_RE, _CHECKPOINT_RE):
        for seq, path in _scan_seqs(workdir, pattern).items():
            if seq != claim_seq:
                path.unlink(missing_ok=True)


def _run_stream_job(
    spec: JobSpec,
    workdir: Path,
    claim_seq: int,
    tick: Callable[[], None] | None,
    pool: SpectrumPool | None = None,
) -> dict:
    """Out-of-core correction with block-granular crash recovery.

    Same streamed phase 1 as ``repro correct --stream``
    (:meth:`ReptileCorrector.fit_streaming`: pass A statistics, pass B
    phase-1 structures), then pass C chunked correction staged through
    this claim's ``partial.<seq>.fastq`` with an atomic checkpoint
    after every durable block, published with one rename.
    ``claim_seq`` fences the work files: see the module docstring for
    the zombie story.  With a warm ``pool``, a repeat job skips passes
    A and B outright.
    """
    from ..core.reptile import ReptileCorrector
    from ..parallel import correct_stream

    block_reads = spec.chunk_size * spec.workers
    fingerprint = spec.fingerprint()
    partial = partial_path(workdir, claim_seq)
    ckpt_path = checkpoint_path(workdir, claim_seq)

    def chunks(error_counts=None):
        return read_fastq_chunks(
            spec.input,
            block_reads,
            on_error=spec.on_error,
            error_counts=error_counts,
        )

    def fit():
        # (corrector, meta): the shape SpectrumPool.get_or_build caches.
        return ReptileCorrector.fit_streaming(
            chunks,
            k=spec.k,
            genome_length_estimate=spec.genome_length,
            max_memory_bytes=spec.max_memory,
            tmp_dir=workdir,
            between_passes=tick,
        )

    hit: bool | None = None
    with telemetry.span("fit", method=spec.method):
        if pool is not None:
            entry, hit = pool.get_or_build(pool.key_for(spec), fit)
            corrector, meta = entry.corrector, entry.meta
        else:
            corrector, meta = fit()
    # On a pool hit the scan was skipped; its one load-bearing gauge
    # is replayed from the entry's build-time metadata.
    telemetry.gauge("reads_input", meta["n_reads"])
    _pool_marker(hit)
    hit_fault_point("service.fitted")
    _tick(tick)

    # Pass C — chunked correction resuming from the best durable block
    # a prior claim left behind, adopted into this claim's own fenced
    # partial (copy-bounded at the checkpointed offset, so bytes a
    # crash made durable *without* a covering checkpoint are dropped).
    found = _find_resume_checkpoint(workdir, fingerprint, claim_seq)
    if found:
        ckpt, src_seq = found
        reads_done = ckpt["reads_done"]
        byte_offset = ckpt["byte_offset"]
        n_changed = ckpt.get("bases_changed", 0)
        _adopt_partial(workdir, src_seq, partial, byte_offset)
        atomic_write_json(
            ckpt_path,
            {
                "fingerprint": fingerprint,
                "reads_done": reads_done,
                "byte_offset": byte_offset,
                "bases_changed": n_changed,
            },
        )
        telemetry.count("checkpoint_resumes")
        telemetry.gauge("resumed_reads", reads_done)
    else:
        # No usable resume point: start clean.  The current claim's
        # partial cannot legitimately pre-exist (claim_seq is unique),
        # so anything at that path is debris to discard, never splice.
        reads_done = 0
        byte_offset = 0
        n_changed = 0
        partial.unlink(missing_ok=True)
        ckpt_path.unlink(missing_ok=True)
    _prune_stale_work_files(workdir, claim_seq)

    def remaining_blocks(error_counts):
        """Skip the blocks a prior attempt already made durable.

        Block boundaries are a pure function of (input, block_reads),
        so skipping whole blocks up to the checkpointed read count
        lands exactly where the prior attempt stopped; any mismatch
        means the checkpoint is stale and the job restarts cleanly.
        """
        skipped = 0
        for block in chunks(error_counts):
            if skipped < reads_done:
                if skipped + block.n_reads > reads_done:
                    raise RuntimeError(
                        f"checkpoint read count {reads_done} is not on a "
                        f"block boundary (block of {block.n_reads} after "
                        f"{skipped}); refusing to splice"
                    )
                skipped += block.n_reads
                continue
            yield block

    error_counts: dict = {}
    n_out = reads_done
    with telemetry.span("correct", method=spec.method, stream=True):
        # Append mode on this claim's own fenced partial: a fresh
        # attempt starts at offset 0 (file unlinked above), a resumed
        # one continues right after the adopted durable prefix.
        with open(partial, "at", encoding="utf-8") as out_handle:
            if out_handle.tell() != byte_offset:
                raise RuntimeError(
                    f"partial output at {out_handle.tell()} bytes, "
                    f"checkpoint says {byte_offset}; refusing to splice"
                )
            for block, report in correct_stream(
                corrector,
                remaining_blocks(error_counts),
                workers=spec.workers,
                chunk_size=spec.chunk_size,
                pool_hit=hit,
            ):
                n_changed += int((report.reads.codes != block.codes).sum())
                n_out += block.n_reads
                write_fastq(report.reads, out_handle)
                out_handle.flush()
                os.fsync(out_handle.fileno())
                hit_fault_point("service.partial_written")
                # Checkpoint only after the bytes are durable, so the
                # recorded offset never points past what a crash
                # preserves.
                atomic_write_json(
                    ckpt_path,
                    {
                        "fingerprint": fingerprint,
                        "reads_done": n_out,
                        "byte_offset": out_handle.tell(),
                        "bases_changed": n_changed,
                    },
                )
                hit_fault_point("service.block")
                _tick(tick)

    resumed = reads_done
    hit_fault_point("service.before_commit")
    with telemetry.span("write_output", path=spec.output):
        publish_file(partial, spec.output)
    ckpt_path.unlink(missing_ok=True)
    telemetry.gauge("bases_changed", n_changed)
    return {
        "reads": int(n_out),
        "bases_changed": int(n_changed),
        "resumed_reads": int(resumed),
        "pool_hit": int(bool(hit)),
        **{k: int(v) for k, v in error_counts.items()},
    }
