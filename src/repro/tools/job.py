"""One correction job, crash-safely: spec, flags and the body that runs it.

A :class:`JobSpec` is a serialized ``repro correct`` invocation — the
JSON payload of the job store's ``spec`` column and the value
``repro correct`` builds from its own flags (:func:`add_spec_flags`,
:func:`spec_from_args`).  :func:`run_job` is the one body that executes
it: read, phase 1 (spectrum + tiles), phase 2 per read through the
parallel engine's chunk loop, write.  ``repro correct`` calls it
directly; the serve worker calls it through
:func:`repro.service.runner.execute_job` with the job's work directory,
claim sequence, heartbeat and warm pool.  Specs are deliberately plain
data: a job submitted today must still execute after a daemon restart,
a code upgrade, or under a different worker process on the spool host.

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

import argparse
import hashlib
import json
import os
import re
import tempfile
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from .. import telemetry
from ..core.api import available_methods, build_corrector, supports_chunking
from ..io.atomic import (
    atomic_write_json,
    atomic_writer,
    publish_file,
    update_hash_from_file,
)
from ..io.fastq import read_fastq, read_fastq_chunks, write_fastq
from ..mapreduce.faults import hit_fault_point
from .common import memory_size, positive_int

#: The only job kind today; the field exists so periodic-ingest or
#: cluster jobs can join the same store without a schema change.
KIND_CORRECT = "correct"

_VALID_ON_ERROR = ("raise", "skip")


@dataclass(frozen=True)
class JobSpec:
    """One correction job: input FASTQ -> corrected FASTQ (+ report).

    Mirrors the ``repro correct`` CLI surface so ``repro jobs submit``
    and a direct command line describe identical work.
    """

    input: str
    output: str
    kind: str = KIND_CORRECT
    method: str = "reptile"
    k: int | None = None
    genome_length: int | None = None
    workers: int = 1
    chunk_size: int = 2048
    stream: bool = False
    max_memory: int | None = None
    on_error: str = "raise"
    #: Optional repro-run-report/1 JSON artifact path.
    report: str | None = None
    #: Free-form labels (tenant, experiment id, ...) carried verbatim.
    labels: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind != KIND_CORRECT:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if not self.input or not self.output:
            raise ValueError("job spec needs both input and output paths")
        if self.on_error not in _VALID_ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_VALID_ON_ERROR}, "
                f"got {self.on_error!r}"
            )
        if self.workers < 1 or self.chunk_size < 1:
            raise ValueError("workers and chunk_size must be >= 1")
        if self.stream and self.method != "reptile":
            raise ValueError(
                f"stream jobs support the reptile method only "
                f"(got {self.method!r})"
            )

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(
                f"unknown job-spec field(s): {', '.join(sorted(unknown))}"
            )
        spec = cls(**d)
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("job spec JSON must be an object")
        return cls.from_dict(data)

    # -- identity -----------------------------------------------------
    def fingerprint(self) -> str:
        """Spec + input-content hash: the resume key for checkpoints.

        A checkpoint written for one (spec, input bytes) pair must
        never seed the resume of a different one — a changed input
        file or flag silently producing a spliced output would violate
        the byte-identical guarantee.  Missing inputs hash as absent
        (the job will fail with a clear error at run time instead).
        """
        h = hashlib.sha256(self.to_json().encode("utf-8"))
        update_hash_from_file(h, self.input)
        return h.hexdigest()

    def input_fingerprint(self) -> str:
        """Content hash of the input file alone (no spec fields).

        The warm-pool key: two jobs whose *inputs* are identical can
        share a fitted spectrum even when their output paths, worker
        counts, or report destinations differ.  Fields that change the
        fitted structures (k, method, genome_length, ...) are keyed
        separately by :meth:`repro.service.pool.SpectrumPool.key_for`.
        Missing inputs hash as absent, matching :meth:`fingerprint`.
        """
        h = hashlib.sha256()
        update_hash_from_file(h, self.input)
        return h.hexdigest()


# ---------------------------------------------------------------------------
# The spec-backed command-line flags, each declared once
# ---------------------------------------------------------------------------

#: ``add_argument`` keywords of every flag that fills a :class:`JobSpec`
#: field; ``repro correct`` and ``repro jobs submit`` lay them out with
#: :func:`add_spec_flags` and read them back with :func:`spec_from_args`.
SPEC_FLAGS: dict[str, dict] = {
    "input": dict(help="input FASTQ"),
    "output": dict(help="corrected FASTQ"),
    "--method": dict(choices=available_methods(), default="reptile"),
    "--k": dict(type=int, default=None, help="k-mer size"),
    "--genome-length": dict(
        type=int, default=None,
        help="genome size estimate (guides k selection)",
    ),
    "--on-error": dict(
        choices=list(_VALID_ON_ERROR), default="raise",
        help="skip (and count) malformed FASTQ records instead of aborting",
    ),
    "--stream": dict(
        action="store_true",
        help="never hold the read set in memory: streamed phase-1 "
             "passes build the spectrum/tiles, then reads are "
             "corrected and written chunk by chunk (reptile only; "
             "output is bitwise identical to the in-memory path)",
    ),
    "--max-memory": dict(
        type=memory_size, default=None, metavar="SIZE",
        help="k-mer/tile counting memory budget (e.g. 64M, 2G); "
             "partial tables beyond it spill to sorted disk runs "
             "(implies --stream)",
    ),
    "--workers": dict(
        type=positive_int, default=1,
        help="correction worker processes sharing one spectrum "
             "(1 = serial; requires a fork platform to parallelize)",
    ),
    "--chunk-size": dict(
        type=positive_int, default=2048, help="reads per correction task",
    ),
}


def add_spec_flags(target, *names: str) -> None:
    """Declare the named :data:`SPEC_FLAGS` on a parser or argument group."""
    for name in names:
        target.add_argument(name, **SPEC_FLAGS[name])


def spec_from_args(args: argparse.Namespace, **extra) -> JobSpec:
    """The :class:`JobSpec` a parsed command line describes.

    ``--max-memory`` implies ``--stream``, and streaming is Reptile's
    alone; a conflict raises ``ValueError`` phrased in terms of the
    flags the user typed, for the caller to report as a usage error.
    ``extra`` fills the fields with no shared flag (report, labels).
    """
    stream = args.stream or args.max_memory is not None
    if stream and args.method != "reptile":
        lead = (
            "--stream supports" if args.stream
            else "--max-memory implies --stream, which supports"
        )
        raise ValueError(
            f"{lead} the reptile method only "
            f"({args.method} has no streaming phase 1)"
        )
    return JobSpec(
        input=str(args.input),
        output=str(args.output),
        method=args.method,
        k=args.k,
        genome_length=args.genome_length,
        workers=args.workers,
        chunk_size=args.chunk_size,
        stream=stream,
        max_memory=args.max_memory,
        on_error=args.on_error,
        **extra,
    )


# ---------------------------------------------------------------------------
# Stream work files: one fenced partial + checkpoint per claim
# ---------------------------------------------------------------------------

#: ``partial.<claim_seq>.fastq`` / ``checkpoint.<claim_seq>.json``:
#: one pair of work files per claim, never shared between claims.
_PARTIAL_RE = re.compile(r"^partial\.(\d{6,})\.fastq$")
_CHECKPOINT_RE = re.compile(r"^checkpoint\.(\d{6,})\.json$")


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


# ---------------------------------------------------------------------------
# The body
# ---------------------------------------------------------------------------

def run_job(
    spec: JobSpec,
    *,
    workdir: str | Path | None = None,
    claim_seq: int = 0,
    backend="fork",
    policy=None,
    tmp_dir: str | Path | None = None,
    pool: Any = None,
    tick: Callable[[], None] | None = None,
) -> dict:
    """Run one correction job to completion; returns the result payload.

    ``workdir`` holds a stream job's fenced work files, keyed by
    ``claim_seq``: the serve worker passes the job's spool directory so
    a later claim resumes from this one's checkpoints; without one the
    job stages through a private directory beside the output that lives
    only for this call.  Phase 1 spills to ``tmp_dir or workdir``
    (``None``: the system temp directory).

    ``backend`` / ``policy`` go to the chunk loop unchanged
    (:func:`repro.parallel.correct_in_parallel`).

    ``tick`` is the worker's heartbeat hook, called between blocks and
    phases: it renews the store lease and is the single place where
    :class:`~repro.service.store.LeaseLost` (abandon now, another
    worker owns the job) or ``KeyboardInterrupt`` (graceful shutdown;
    the last checkpoint is already durable) may be raised.

    ``pool`` is the process-wide warm-spectrum cache
    (:class:`~repro.service.pool.SpectrumPool`): when a prior job
    fitted the same (input fingerprint, method params) the fit phase —
    and for stream jobs the whole pass A/B scan — is skipped, and the
    cached corrector is handed to workers copy-on-write.
    """
    spec.validate()
    if not spec.stream:
        return _run_batch(spec, backend, policy, pool, tick)
    spill_dir = tmp_dir or workdir
    with ExitStack() as stack:
        if workdir is None:
            out = Path(spec.output)
            out.parent.mkdir(parents=True, exist_ok=True)
            workdir = stack.enter_context(
                tempfile.TemporaryDirectory(
                    dir=out.parent, prefix=f".{out.name}.work-"
                )
            )
        else:
            Path(workdir).mkdir(parents=True, exist_ok=True)
        return _run_stream(
            spec, Path(workdir), claim_seq, backend, policy, spill_dir,
            pool, tick,
        )


def _tick(tick: Callable[[], None] | None) -> None:
    if tick is not None:
        tick()


def _fit(spec: JobSpec, pool: Any, build) -> tuple[Any, dict, bool | None]:
    """``(corrector, meta, pool hit)`` from ``build()`` or the warm pool.

    The pool keys on the input *content*, not the path: the fingerprint
    is hashed before the fit, so a file swapped in place between jobs
    misses cleanly instead of reusing a stale spectrum.  ``hit`` is
    ``None`` when no pool is wired.
    """
    with telemetry.span("fit", method=spec.method):
        if pool is None:
            return (*build(), None)
        entry, hit = pool.get_or_build(pool.key_for(spec), build)
    telemetry.count("pool.hit" if hit else "pool.miss")
    telemetry.gauge("pool_hit", int(hit))
    return entry.corrector, entry.meta, hit


def _result(
    n_reads: int, n_changed: int, resumed: int, hit: bool | None,
    error_counts: dict, on_error: str,
) -> dict:
    """The job's result row; the same tallies land in telemetry."""
    telemetry.gauge("bases_changed", n_changed)
    if on_error == "skip":
        telemetry.merge_counters(error_counts)
    return {
        "reads": int(n_reads),
        "bases_changed": int(n_changed),
        "resumed_reads": int(resumed),
        "pool_hit": int(bool(hit)),
        **{k: int(v) for k, v in error_counts.items()},
    }


def _run_batch(spec: JobSpec, backend, policy, pool: Any, tick) -> dict:
    """In-memory correction; the single output write is atomic."""
    from ..parallel import correct_in_parallel

    error_counts: dict = {}
    with telemetry.span("read_input", path=spec.input):
        reads = read_fastq(
            spec.input, on_error=spec.on_error, error_counts=error_counts
        )
    telemetry.gauge("reads_input", reads.n_reads)
    _tick(tick)

    def build():
        corrector = build_corrector(
            spec.method, reads, k=spec.k, genome_length=spec.genome_length
        )
        return corrector, {"n_reads": int(reads.n_reads)}

    corrector, _meta, hit = _fit(spec, pool, build)
    hit_fault_point("service.fitted")
    _tick(tick)
    with telemetry.span("correct", method=spec.method):
        if supports_chunking(corrector):
            # The chunk loop is bitwise identical to whole-set
            # correction at any worker count, and it produces the same
            # counters serially and in parallel — so every chunk-capable
            # run goes through it, making serial/parallel reports
            # directly comparable.
            corrected = correct_in_parallel(
                corrector,
                reads,
                workers=spec.workers,
                chunk_size=spec.chunk_size,
                policy=policy,
                pool_hit=hit,
                backend=backend,
            ).reads
        else:
            corrected = corrector.correct(reads)
    _tick(tick)
    n_changed = int((corrected.codes != reads.codes).sum())
    hit_fault_point("service.before_commit")
    with telemetry.span("write_output", path=spec.output):
        write_fastq(corrected, spec.output)
    return _result(
        reads.n_reads, n_changed, 0, hit, error_counts, spec.on_error
    )


def _run_stream(
    spec: JobSpec,
    workdir: Path,
    claim_seq: int,
    backend,
    policy,
    spill_dir: str | Path | None,
    pool: Any,
    tick: Callable[[], None] | None,
) -> dict:
    """Out-of-core correction with block-granular crash recovery.

    Three streamed passes over the FASTQ; at no point is the read set
    resident, and the output is bitwise identical to the in-memory
    path.  Passes A and B are :meth:`ReptileCorrector.fit_streaming`
    (quality histogram, then spectrum and tile table through the
    balanced / disk-spill accumulators); pass C is chunked correction
    staged through this claim's ``partial.<seq>.fastq`` with an atomic
    checkpoint after every durable block, published with one rename.
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

    def build():
        # (corrector, meta): the shape SpectrumPool.get_or_build caches.
        return ReptileCorrector.fit_streaming(
            chunks,
            k=spec.k,
            genome_length_estimate=spec.genome_length,
            max_memory_bytes=spec.max_memory,
            tmp_dir=spill_dir,
            between_passes=tick,
        )

    corrector, meta, hit = _fit(spec, pool, build)
    # On a pool hit the scan was skipped; its gauges are replayed from
    # the entry's build-time metadata.
    telemetry.gauge("reads_input", meta["n_reads"])
    telemetry.gauge("spill_bytes", meta["spill_bytes"])
    telemetry.gauge("counting_peak_bytes", meta["counting_peak_bytes"])
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
                policy=policy,
                pool_hit=hit,
                backend=backend,
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

    hit_fault_point("service.before_commit")
    with telemetry.span("write_output", path=spec.output):
        publish_file(partial, spec.output)
    ckpt_path.unlink(missing_ok=True)
    return _result(
        n_out, n_changed, reads_done, hit, error_counts, spec.on_error
    )
