"""Disk-backed external k-mer counting (KMC-style partition & merge).

When even the *count tables* outgrow RAM, counting has to spill.  The
scheme here follows the disk-based counters RECKONER builds on (KMC):

1. **Partition** — every code is assigned to one of ``2^partition_bits``
   buckets by its high bits, so bucket order equals global sorted
   order and buckets can be finalized independently.
2. **Spill runs** — added codes accumulate in an in-memory buffer;
   when the buffer exceeds the memory budget it is sorted, locally
   aggregated, split at the bucket boundaries (one ``searchsorted``,
   the buffer is already sorted), and appended to per-bucket temp
   files as sorted runs.
3. **k-way merge** — finalization merges each bucket's sorted runs
   with a block-buffered k-way merge: every run contributes a bounded
   block, the merge frontier advances to the smallest "last loaded
   element" among unfinished runs, and everything at or below that
   bound is aggregated with one ``np.unique``.  Peak memory is
   O(runs × block), never O(bucket).

Counts are ``n_values`` parallel int64 columns per code — one column
for a k-spectrum, two (Oc, Og) for tile tables — so both structures
share one counter.  The output is bitwise identical to a monolithic
``np.unique`` count of the same stream.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mapreduce import faults

#: Smallest accepted memory budget: tiny budgets still need one block
#: per run resident during merges.
MIN_MEMORY_BYTES = 4096

_CODE_ITEM = 8  # uint64
_VALUE_ITEM = 8  # int64


@dataclass
class _Run:
    """One sorted, locally-aggregated run inside a bucket file:
    ``n`` codes at ``code_offset`` followed by ``n_values`` contiguous
    int64 columns at ``value_offset``."""

    code_offset: int
    value_offset: int
    n: int


class _RunReader:
    """Block cursor over one spilled run (codes + value columns)."""

    def __init__(self, path: Path, run: _Run, n_values: int) -> None:
        self._path = path
        self._run = run
        self._n_values = n_values
        self._pos = 0
        self.codes = np.empty(0, dtype=np.uint64)
        self.values = np.empty((0, n_values), dtype=np.int64)

    @property
    def exhausted_disk(self) -> bool:
        return self._pos >= self._run.n

    @property
    def done(self) -> bool:
        return self.exhausted_disk and self.codes.size == 0

    def refill(self, block_items: int) -> None:
        """Load up to ``block_items`` more items into the buffer."""
        if self.exhausted_disk:
            return
        take = min(block_items, self._run.n - self._pos)
        with open(self._path, "rb") as fh:
            fh.seek(self._run.code_offset + self._pos * _CODE_ITEM)
            codes = np.frombuffer(
                fh.read(take * _CODE_ITEM), dtype=np.uint64
            )
            cols = []
            for c in range(self._n_values):
                fh.seek(
                    self._run.value_offset
                    + (c * self._run.n + self._pos) * _VALUE_ITEM
                )
                cols.append(
                    np.frombuffer(
                        fh.read(take * _VALUE_ITEM), dtype=np.int64
                    )
                )
        self._pos += take
        self.codes = np.concatenate([self.codes, codes])
        self.values = np.concatenate(
            [self.values, np.stack(cols, axis=1)], axis=0
        )

    def take_up_to(self, bound: np.uint64) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return all buffered items with code <= bound."""
        cut = int(np.searchsorted(self.codes, bound, side="right"))
        out = (self.codes[:cut], self.values[:cut])
        self.codes = self.codes[cut:]
        self.values = self.values[cut:]
        return out


def _aggregate(
    codes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort codes and sum the value columns of duplicates."""
    uniq, inverse = np.unique(codes, return_inverse=True)
    summed = np.zeros((uniq.size, values.shape[1]), dtype=np.int64)
    np.add.at(summed, inverse, values)
    return uniq, summed


class ExternalCodeCounter:
    """Bounded-memory ``code -> count columns`` accumulator.

    Parameters
    ----------
    code_bits:
        Significant low bits of the uint64 codes (``2k`` for k-mers,
        ``2·(2k-l)`` for tiles).  Partitioning keys on the *top* bits
        of this width — keying on raw uint64 high bits would put every
        k-mer in bucket 0.
    n_values:
        Count columns carried per code (added values default to 1).
    max_memory_bytes:
        Spill threshold for the add buffer and the budget that sizes
        merge blocks.
    partition_bits:
        log2 of the bucket count (default 4 → 16 buckets).
    """

    def __init__(
        self,
        code_bits: int,
        n_values: int = 1,
        max_memory_bytes: int = 64 << 20,
        partition_bits: int = 4,
        tmp_dir=None,
    ) -> None:
        if not 1 <= code_bits <= 64:
            raise ValueError(f"code_bits must be in [1, 64], got {code_bits}")
        if n_values < 1:
            raise ValueError(f"n_values must be >= 1, got {n_values}")
        if max_memory_bytes < MIN_MEMORY_BYTES:
            raise ValueError(
                f"max_memory_bytes must be >= {MIN_MEMORY_BYTES}, "
                f"got {max_memory_bytes}"
            )
        partition_bits = max(0, min(partition_bits, code_bits - 1))
        self.code_bits = code_bits
        self.n_values = n_values
        self.max_memory_bytes = max_memory_bytes
        self.n_partitions = 1 << partition_bits
        self._shift = np.uint64(code_bits - partition_bits)
        if tmp_dir is not None:
            os.makedirs(tmp_dir, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(
            prefix="repro-extcount-", dir=tmp_dir
        )
        self._runs: list[list[_Run]] = [[] for _ in range(self.n_partitions)]
        self._pending_codes: list[np.ndarray] = []
        self._pending_values: list[np.ndarray] = []
        self._pending_bytes = 0
        self.spill_bytes = 0
        self.n_spills = 0
        self.peak_buffer_bytes = 0
        #: Largest single :meth:`add` in bytes — the buffer peak is
        #: bounded by ``max_memory_bytes + max_add_bytes`` regardless
        #: of how many chunks stream through.
        self.max_add_bytes = 0
        self._finalized = False

    def _bucket_path(self, p: int) -> Path:
        return Path(self._tmp.name) / f"bucket{p:04d}.bin"

    # -- adding --------------------------------------------------------
    def add(self, codes: np.ndarray, values: np.ndarray | None = None) -> None:
        """Accumulate ``codes`` with per-code value rows (default 1s)."""
        if self._finalized:
            raise RuntimeError("counter already finalized")
        codes = np.asarray(codes, dtype=np.uint64).ravel()
        if codes.size == 0:
            return
        if values is None:
            values = np.ones((codes.size, self.n_values), dtype=np.int64)
        else:
            values = np.asarray(values, dtype=np.int64)
            if values.ndim == 1:
                values = values[:, None]
            if values.shape != (codes.size, self.n_values):
                raise ValueError(
                    f"values must have shape ({codes.size}, {self.n_values}),"
                    f" got {values.shape}"
                )
        self._pending_codes.append(codes)
        self._pending_values.append(values)
        self._pending_bytes += codes.nbytes + values.nbytes
        self.max_add_bytes = max(
            self.max_add_bytes, codes.nbytes + values.nbytes
        )
        self.peak_buffer_bytes = max(
            self.peak_buffer_bytes, self._pending_bytes
        )
        if self._pending_bytes >= self.max_memory_bytes:
            self._spill()

    def _drain_pending(self) -> tuple[np.ndarray, np.ndarray]:
        codes = np.concatenate(self._pending_codes)
        values = np.concatenate(self._pending_values, axis=0)
        self._pending_codes = []
        self._pending_values = []
        self._pending_bytes = 0
        return _aggregate(codes, values)

    def _spill(self) -> None:
        codes, values = self._drain_pending()
        if codes.size == 0:
            return
        # Chaos-harness hook: scripted ENOSPC on the spill path proves
        # the job-level retry/backoff machinery recovers from a full
        # disk exactly like a crashed worker.
        faults.hit_fault_point("spill.write")
        # The buffer is sorted, so bucket boundaries are one
        # searchsorted over the bucket edges.
        edges = (
            np.arange(1, self.n_partitions, dtype=np.uint64) << self._shift
        )
        bounds = np.concatenate(
            [[0], np.searchsorted(codes, edges), [codes.size]]
        )
        for p in range(self.n_partitions):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            if lo == hi:
                continue
            part_codes = codes[lo:hi]
            part_values = values[lo:hi]
            path = self._bucket_path(p)
            with open(path, "ab") as fh:
                code_offset = fh.tell()
                fh.write(part_codes.tobytes())
                value_offset = fh.tell()
                # Column-contiguous so the merge cursor can slice one
                # column with a single seek+read.
                fh.write(np.ascontiguousarray(part_values.T).tobytes())
            self._runs[p].append(
                _Run(code_offset, value_offset, part_codes.size)
            )
            self.spill_bytes += part_codes.nbytes + part_values.nbytes
        self.n_spills += 1

    # -- merging -------------------------------------------------------
    def _merge_bucket(
        self, p: int, tail: tuple[np.ndarray, np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block-buffered k-way merge of bucket ``p``'s sorted runs
        (plus the optional still-in-memory tail run)."""
        readers = [
            _RunReader(self._bucket_path(p), run, self.n_values)
            for run in self._runs[p]
        ]
        if tail is not None and tail[0].size:
            mem = _RunReader.__new__(_RunReader)
            mem._run = _Run(0, 0, 0)
            mem._pos = 0
            mem._n_values = self.n_values
            mem.codes, mem.values = tail
            readers.append(mem)
        if not readers:
            return (
                np.empty(0, dtype=np.uint64),
                np.empty((0, self.n_values), dtype=np.int64),
            )
        row_bytes = _CODE_ITEM + self.n_values * _VALUE_ITEM
        block_items = max(
            1024, self.max_memory_bytes // (2 * len(readers) * row_bytes)
        )
        out_codes: list[np.ndarray] = []
        out_values: list[np.ndarray] = []
        while True:
            active = []
            for r in readers:
                if r.codes.size == 0 and not r.exhausted_disk:
                    r.refill(block_items)
                if not r.done:
                    active.append(r)
            if not active:
                break
            # Everything <= bound is fully resident: any unread item of
            # run r exceeds r's buffered maximum, which is >= bound.
            unfinished = [r for r in active if not r.exhausted_disk]
            if unfinished:
                bound = min(np.uint64(r.codes[-1]) for r in unfinished)
            else:
                bound = max(np.uint64(r.codes[-1]) for r in active)
            taken = [r.take_up_to(bound) for r in active]
            codes = np.concatenate([t[0] for t in taken])
            values = np.concatenate([t[1] for t in taken], axis=0)
            if codes.size:
                uniq, summed = _aggregate(codes, values)
                out_codes.append(uniq)
                out_values.append(summed)
        if not out_codes:
            return (
                np.empty(0, dtype=np.uint64),
                np.empty((0, self.n_values), dtype=np.int64),
            )
        return (
            np.concatenate(out_codes),
            np.concatenate(out_values, axis=0),
        )

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Merge everything into globally sorted unique ``(codes,
        values)``; the counter is unusable (and its temp files gone)
        afterwards."""
        if self._finalized:
            raise RuntimeError("counter already finalized")
        self._finalized = True
        try:
            tail_codes, tail_values = (
                self._drain_pending()
                if self._pending_codes
                else (
                    np.empty(0, dtype=np.uint64),
                    np.empty((0, self.n_values), dtype=np.int64),
                )
            )
            if self.n_spills == 0:
                return tail_codes, tail_values
            edges = (
                np.arange(1, self.n_partitions, dtype=np.uint64)
                << self._shift
            )
            tail_bounds = np.concatenate(
                [[0], np.searchsorted(tail_codes, edges), [tail_codes.size]]
            )
            pieces_c: list[np.ndarray] = []
            pieces_v: list[np.ndarray] = []
            for p in range(self.n_partitions):
                lo, hi = int(tail_bounds[p]), int(tail_bounds[p + 1])
                tail = (tail_codes[lo:hi], tail_values[lo:hi])
                codes, values = self._merge_bucket(p, tail)
                if codes.size:
                    pieces_c.append(codes)
                    pieces_v.append(values)
            if not pieces_c:
                return (
                    np.empty(0, dtype=np.uint64),
                    np.empty((0, self.n_values), dtype=np.int64),
                )
            # Bucket p's codes all precede bucket p+1's (high-bit
            # partitioning), so concatenation is globally sorted.
            return (
                np.concatenate(pieces_c),
                np.concatenate(pieces_v, axis=0),
            )
        finally:
            self._tmp.cleanup()

