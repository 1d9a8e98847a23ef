"""Crash-safe artifact writes: temp file + fsync + atomic rename.

A process that dies mid-``write`` leaves a truncated file at the final
path — a corrupted corrected-FASTQ a downstream assembler will happily
consume.  Every user-facing artifact in this repo (corrected reads,
run reports, job results, checkpoints) therefore goes through this
module's writers, which guarantee that a final output path only ever
holds a **complete** file:

- content is written to a hidden sibling temp file in the same
  directory (same filesystem, so the final ``os.replace`` is atomic);
- the temp file is flushed and ``fsync``\\ ed before the rename, and
  the directory is fsynced after it, so the artifact survives not just
  a process kill but a machine crash;
- any failure (including an injected ``ENOSPC`` from the chaos
  harness) unlinks the temp file and re-raises — nothing is ever
  visible at the destination.

The ``repro lint`` rule REP204 enforces use of this module for output
writes in ``tools/`` and ``service/``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator

__all__ = [
    "atomic_writer",
    "atomic_write_text",
    "atomic_write_json",
    "ensure_dir",
    "publish_file",
    "fsync_path",
    "update_hash_from_file",
]

#: Per-process sequence distinguishing concurrent temp files for the
#: same destination (threads within one process; PID covers processes).
_TMP_SEQ = itertools.count()
_TMP_LOCK = threading.Lock()


def _tmp_path(path: Path) -> Path:
    with _TMP_LOCK:
        n = next(_TMP_SEQ)
    return path.with_name(f".{path.name}.tmp-{os.getpid()}-{n}")


def _fault_point(name: str) -> None:
    # Lazy import: keeps repro.io free of a hard mapreduce dependency
    # at import time while letting the chaos harness inject ENOSPC
    # into artifact commits.
    from ..mapreduce.faults import hit_fault_point

    hit_fault_point(name)


def _fsync_dir(dir_path: Path) -> None:
    """Fsync a directory so a completed rename survives power loss."""
    try:
        fd = os.open(dir_path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dir
        pass
    finally:
        os.close(fd)


def fsync_path(path: str | Path) -> None:
    """Fsync an existing file by path (checkpoint durability helper)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def update_hash_from_file(h, path: str | Path) -> None:
    """Feed a file's bytes to the ``hashlib`` object ``h`` in 1 MiB
    blocks — the content half of every checkpoint / warm-pool key, so
    a resume point or fitted spectrum is never reused for different
    input bytes.  A missing file contributes nothing."""
    path = Path(path)
    if not path.is_file():
        return
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)


def ensure_dir(path: str | Path, do_fsync: bool = True) -> Path:
    """Durably create a directory (and its parents); returns the path.

    ``mkdir -p`` plus directory fsyncs, so a spool or artifact
    directory created moments before a crash still exists afterwards.
    Raises ``OSError`` with the underlying reason (EACCES, EROFS,
    ENOTDIR, ...) when the path cannot be created — callers turn that
    into a clear user-facing error instead of a traceback.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    if do_fsync:
        _fsync_dir(path)
        if str(path.parent) not in ("", ".") and path.parent != path:
            _fsync_dir(path.parent)
    return path


@contextmanager
def atomic_writer(
    path: str | Path,
    mode: str = "wt",
    encoding: str | None = None,
    do_fsync: bool = True,
) -> Iterator[IO]:
    """Context manager yielding a handle whose content reaches ``path``
    atomically on success — or not at all.

    ``mode`` must be a fresh-write mode (``wt``/``wb``); the handle
    writes to a same-directory temp file that is fsynced, then renamed
    over ``path``.  On any exception the temp file is removed and the
    destination is untouched.  Parent directories are created.
    """
    if mode[0] not in ("w", "x"):
        raise ValueError(f"atomic_writer needs a write mode, got {mode!r}")
    path = Path(path)
    if str(path.parent) not in ("", "."):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    try:
        handle = open(tmp, mode, encoding=encoding)
        try:
            yield handle
            handle.flush()
            _fault_point("artifact.write")
            if do_fsync:
                os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(tmp, path)
        if do_fsync:
            _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def atomic_write_text(
    path: str | Path, text: str, do_fsync: bool = True
) -> Path:
    """Atomically write ``text`` to ``path``; returns the path."""
    path = Path(path)
    with atomic_writer(path, "wt", do_fsync=do_fsync) as fh:
        fh.write(text)
    return path


def atomic_write_json(
    path: str | Path, obj: Any, indent: int | None = 1, do_fsync: bool = True
) -> Path:
    """Atomically serialize ``obj`` as JSON to ``path``."""
    return atomic_write_text(
        path, json.dumps(obj, indent=indent, sort_keys=False) + "\n",
        do_fsync=do_fsync,
    )


def publish_file(
    partial: str | Path, final: str | Path, do_fsync: bool = True
) -> Path:
    """Atomically move a completed staging file to its final path.

    The commit step for incrementally-written artifacts (the service
    worker's streamed partial FASTQ): fsync the staging file, then
    rename it over ``final``.  When the two paths sit on different
    filesystems (``EXDEV``) the content is re-staged next to ``final``
    through :func:`atomic_writer`, preserving the only-ever-complete
    guarantee.
    """
    partial = Path(partial)
    final = Path(final)
    if str(final.parent) not in ("", "."):
        final.parent.mkdir(parents=True, exist_ok=True)
    if do_fsync:
        fsync_path(partial)
    _fault_point("artifact.write")
    try:
        os.replace(partial, final)
    except OSError as e:
        import errno

        if e.errno != errno.EXDEV:
            raise
        with atomic_writer(final, "wb", do_fsync=do_fsync) as out:
            with open(partial, "rb") as src:
                while True:
                    block = src.read(1 << 20)
                    if not block:
                        break
                    out.write(block)
        os.unlink(partial)
    else:
        if do_fsync:
            _fsync_dir(final.parent)
    return final
