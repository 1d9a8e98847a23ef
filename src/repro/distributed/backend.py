"""The Backend protocol: one fault model, pluggable execution substrates.

The reliable layer's recovery loop (:func:`repro.mapreduce.reliable.
_run_item`) only ever asks its pool for four things — submit a
``(fn, payload)`` and get a future plus a generation token, rebuild
after a crash, shut down, and report side counters.  That surface is
the :class:`Backend` protocol; anything implementing it slots under
both the parallel correction engine and the reliable MapReduce runner
and inherits the whole fault model for free: per-attempt timeouts
become straggler re-execution in the parent, a dead worker becomes a
``BrokenProcessPool`` → ``recreate()`` → serial-fallback sequence, and
skip-mode bisection never changes.

Three substrates ship:

- :class:`LocalThreadsBackend` — a thread pool sharing the parent's
  memory (the debugging/no-fork substrate; numpy kernels release the
  GIL so it still overlaps);
- :class:`LocalForkBackend` — a forked process pool, workers
  inheriting the corrector copy-on-write (the default);
- :class:`~repro.distributed.socket_backend.SocketBackend` — separate
  worker *processes* over length-prefixed pickle sockets, each owning
  a shard of the spectrum (see :mod:`repro.distributed.shards`).

``install_state(corrector, reads)`` is the state-distribution hook:
local backends rely on shared memory / fork inheritance (the fork
backend rebuilds its pool here so children snapshot the *current*
state), the socket backend ships shards and routing tables.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Protocol, runtime_checkable

from ..mapreduce import faults

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "LocalForkBackend",
    "LocalThreadsBackend",
    "create_backend",
    "resolve_backend",
]


@runtime_checkable
class Backend(Protocol):
    """What the recovery loop needs from an execution substrate."""

    #: Registry name ("threads" / "fork" / "socket").
    name: str
    #: Current pool generation; bumped by :meth:`recreate` so one crash
    #: burst triggers exactly one rebuild.
    generation: int

    def want_pool(self, workers: int, n_items: int) -> bool:
        """Would pooled execution beat the serial fallback here?"""
        ...

    def install_state(self, corrector, reads) -> None:
        """Distribute phase-1 state before a correction run."""
        ...

    def submit(self, fn: Callable, payload: tuple) -> tuple[Future, int]:
        """Schedule ``fn(payload)``; returns (future, generation)."""
        ...

    def recreate(self, generation: int) -> None:
        """Rebuild after a worker death, iff ``generation`` is current."""
        ...

    def harvest(self) -> dict:
        """Counter deltas since the last harvest (``backend.*`` keys)."""
        ...

    def shutdown(self) -> None: ...


class LocalThreadsBackend:
    """Thread-pool substrate sharing the parent process's memory.

    Workers read the engine's installed state directly — no pickling,
    no fork, works on every platform.  A timed-out attempt keeps
    running in its thread (its result is simply never merged), exactly
    like an abandoned pool straggler.
    """

    name = "threads"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.generation = 0
        self._executor: ThreadPoolExecutor | None = None

    def want_pool(self, workers: int, n_items: int) -> bool:
        return workers > 1 and n_items > 1

    def install_state(self, corrector, reads) -> None:
        del corrector, reads  # threads see the parent's state directly

    def _ensure(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-backend",
            )
        return self._executor

    def submit(self, fn: Callable, payload: tuple) -> tuple[Future, int]:
        return self._ensure().submit(fn, payload), self.generation

    def recreate(self, generation: int) -> None:
        if generation == self.generation and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.generation += 1

    def harvest(self) -> dict:
        return {}

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


class LocalForkBackend:
    """Forked process pool — the default substrate.

    Children inherit the installed corrector/reads through fork's
    copy-on-write pages, so :meth:`install_state` must *rebuild* the
    pool — a pool forked before the state changed would serve stale
    snapshots (each streamed block re-forks).

    ``recreate(generation)`` is a no-op unless the caller's failing
    future came from the *current* pool — so a burst of futures broken
    by one crashed worker triggers exactly one rebuild.
    """

    name = "fork"

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.generation = 0
        self._executor: ProcessPoolExecutor | None = None

    def want_pool(self, workers: int, n_items: int) -> bool:
        return workers > 1 and n_items > 1 and hasattr(os, "fork")

    def _make(self) -> ProcessPoolExecutor:
        kwargs: dict = {
            "max_workers": self.workers,
            "initializer": faults.mark_worker_process,
        }
        if hasattr(os, "fork"):
            kwargs["mp_context"] = mp.get_context("fork")
        self._executor = ProcessPoolExecutor(**kwargs)
        return self._executor

    def install_state(self, corrector, reads) -> None:
        del corrector, reads  # read from the engine's module state at fork
        self.shutdown()
        self._make()

    def submit(self, fn: Callable, payload: tuple) -> tuple[Future, int]:
        executor = self._executor or self._make()
        return executor.submit(fn, payload), self.generation

    def recreate(self, generation: int) -> None:
        if generation == self.generation and self._executor is not None:
            self.shutdown()
            self.generation += 1
            self._make()

    def harvest(self) -> dict:
        return {}

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


BACKEND_NAMES = ("threads", "fork", "socket")


def create_backend(
    name: str,
    workers: int,
    shards: int = 0,
    **options,
) -> Backend:
    """Instantiate a backend by registry name.

    ``shards`` only applies to (and defaults sensibly for) the socket
    backend; extra keyword options are forwarded to its constructor.
    """
    if name == "threads":
        return LocalThreadsBackend(workers)
    if name == "fork":
        return LocalForkBackend(workers)
    if name == "socket":
        from .socket_backend import SocketBackend

        return SocketBackend(workers, shards=shards or None, **options)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )


def resolve_backend(backend, workers: int) -> tuple[Backend, bool]:
    """Normalize an engine's ``backend`` argument to ``(instance, owned)``.

    A string names a registry backend created — and therefore shut
    down — by the engine; an instance is caller-owned and survives the
    run (so a stream or a service can keep remote workers warm across
    blocks).
    """
    if isinstance(backend, str):
        return create_backend(backend, workers=workers), True
    return backend, False
