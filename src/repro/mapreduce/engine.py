"""Local MapReduce execution engine.

Runs a :class:`~repro.mapreduce.types.MapReduceTask` over an in-memory
list of key/value pairs, with

- a **serial** mode (deterministic, used by tests), and
- a **multiprocess** mode (:mod:`repro.mapreduce.reliable` over a
  :class:`repro.distributed.Backend` pool): input chunks fan out for
  the map (+combine) phase, intermediate pairs are hash-partitioned,
  and partitions fan out again for the reduce phase — the same
  map/shuffle/reduce dataflow a Hadoop cluster provides, at
  process-pool scale (see DESIGN.md substitutions).  A
  :class:`~repro.mapreduce.types.RetryPolicy` adds per-chunk retries,
  timeouts, and bad-record skipping on top of that dataflow.

An optional ``spill_dir`` pickles each shuffle partition to disk,
emulating Hadoop's disk-backed shuffle: the parent keeps only
:class:`SpilledPartition` handles, each reduce worker loads its own
partition from disk, and every spill file is deleted as soon as its
reduce completes — so resident memory is bounded by one partition per
worker, not the whole shuffle.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import zlib
from typing import Iterable

from .. import telemetry
from .types import KV, Counters, MapReduceTask, RetryPolicy


def _group_by_key(pairs: Iterable[KV]) -> dict:
    groups: dict = {}
    for k, v in pairs:
        groups.setdefault(k, []).append(v)
    return groups


def _sorted_keys(groups: dict) -> list:
    try:
        return sorted(groups)
    except TypeError:
        return sorted(groups, key=repr)


def stable_partition(key, n_partitions: int) -> int:
    """Deterministic shuffle partition for ``key``.

    ``hash()`` on strings varies across interpreter runs under
    ``PYTHONHASHSEED`` randomization, which would make partition
    contents (and hence the partition-ordered output) run-dependent.
    CRC32 over the key's repr is stable across runs, seeds, and
    platforms for the plain keys (str/int/tuple) tasks emit.
    """
    data = repr(key).encode("utf-8", "backslashreplace")
    return zlib.crc32(data) % n_partitions


class SpilledPartition:
    """A shuffle partition materialized to a pickle file on disk.

    Picklable by path, so reduce workers can load their own partition
    without the parent ever holding more than the handle.
    """

    __slots__ = ("path", "n_pairs")

    def __init__(self, path: str, n_pairs: int):
        self.path = path
        self.n_pairs = n_pairs

    def load(self) -> list[KV]:
        with open(self.path, "rb") as fh:
            return pickle.load(fh)  # repro: noqa[REP605] -- same-process trust: reading back a spill file this runtime wrote itself

    def delete(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _spill_partitions(
    partitions: list[list[KV]], spill_dir: str
) -> list[SpilledPartition]:
    """Write each partition to disk, returning lazy file-backed handles."""
    os.makedirs(spill_dir, exist_ok=True)
    spilled: list[SpilledPartition] = []
    for i, part in enumerate(partitions):
        fd, path = tempfile.mkstemp(prefix=f"part{i}-", dir=spill_dir)  # repro: noqa[REP202] -- spill outlives this function by design; SpilledPartition.delete() releases it per-reduce (reliable.py on_item_done)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(part, fh, protocol=pickle.HIGHEST_PROTOCOL)
        spilled.append(SpilledPartition(path, len(part)))
        partitions[i] = []  # free the in-memory copy as we go
    return spilled


def _map_chunk(args: tuple) -> tuple[list[KV], dict]:
    """Worker: run the mapper (and combiner) over one input chunk."""
    task, chunk = args
    out: list[KV] = []
    n_in = 0
    for k, v in chunk:
        n_in += 1
        out.extend(task.mapper(k, v))
    n_map_out = len(out)
    if task.combiner is not None:
        combined: list[KV] = []
        for k in (groups := _group_by_key(out)):
            combined.extend(task.combiner(k, groups[k]))
        out = combined
    stats = {
        "map_input_records": n_in,
        "map_output_records": n_map_out,
        "combine_output_records": len(out) if task.combiner else 0,
    }
    return out, stats


def _reduce_partition(args: tuple) -> tuple[list[KV], dict]:
    """Worker: group one partition by key and run the reducer."""
    task, pairs = args
    if isinstance(pairs, SpilledPartition):
        pairs = pairs.load()
    groups = _group_by_key(pairs)
    out: list[KV] = []
    for k in _sorted_keys(groups):
        out.extend(task.reducer(k, groups[k]))
    stats = {
        "reduce_input_groups": len(groups),
        "reduce_output_records": len(out),
    }
    return out, stats


def run_task(
    task: MapReduceTask,
    inputs: Iterable[KV],
    n_workers: int = 1,
    n_partitions: int | None = None,
    counters: Counters | None = None,
    spill_dir: str | None = None,
    chunk_size: int = 4096,
    policy: RetryPolicy | None = None,
) -> list[KV]:
    """Execute one map-reduce job and return its output pairs.

    Output is deterministic: reducers see keys in sorted order and the
    overall output is concatenated in partition order (partitions are
    assigned by :func:`stable_partition`, so the order survives
    ``PYTHONHASHSEED`` changes).  ``n_workers <= 1`` without a policy
    runs serially in-process; everything else goes through
    :func:`repro.mapreduce.reliable.run_task_reliable` — without a
    ``policy``, as a single attempt with no record skipping, so the
    first failure aborts the job as a ``FatalTaskError`` whose
    ``__cause__`` is the original exception.
    """
    if policy is None and n_workers <= 1:
        inputs = list(inputs) if not isinstance(inputs, list) else inputs
        if counters is None:
            counters = telemetry.active_counters() or Counters()
        with telemetry.span("mapreduce.map", task=task.name):
            mapped, stats = _map_chunk((task, inputs))
            counters.merge(stats)
        with telemetry.span("mapreduce.reduce", task=task.name):
            reduced, rstats = _reduce_partition((task, mapped))
            counters.merge(rstats)
        return reduced

    from .reliable import run_task_reliable

    if policy is None:
        policy = RetryPolicy(max_retries=0, skip_bad_records=False)
    return run_task_reliable(
        task,
        inputs,
        n_workers=n_workers,
        n_partitions=n_partitions,
        counters=counters,
        spill_dir=spill_dir,
        chunk_size=chunk_size,
        policy=policy,
    )
