"""SocketBackend: sharded remote workers behind the Backend protocol.

The coordinator side of the distributed runtime.  ``install_state``
splits the corrector's spectrum into high-bit code shards
(:mod:`repro.distributed.shards`), spawns ``workers`` genuine
subprocesses (``python -m repro.distributed.worker``), and ships each
its owned shards plus the full routing table; correction chunks then
stream over per-worker control sockets as length-prefixed pickles.

Failure semantics reuse the reliable layer wholesale, because this
class speaks the same :class:`~repro.distributed.backend.Backend`
dialect as the local pools:

- a worker that stops answering mid-chunk surfaces as
  ``BrokenProcessPool`` on that chunk's future → the recovery loop
  calls :meth:`recreate`, which respawns only the dead workers,
  re-ships their shards, and broadcasts fresh routes to the survivors
  — then re-runs the affected chunk serially in the parent (which
  kept the full unsharded corrector exactly for this);
- a chunk that *remotely* fails (e.g. its shard lookups raced a peer's
  death) replies ``error`` and is retried by the same loop — retries
  are pure re-runs, so output bytes never change;
- a straggler chunk times out via ``Future.result(timeout)`` and is
  re-executed in the parent; the late remote result is simply never
  merged.

Every control socket has exactly one owner (its dispatcher thread), so
setup/ready, chunk/result, and route updates never interleave on the
wire.  Workers default to loopback; ``host`` exists so tests and
future multi-box deployments can bind elsewhere — the framing layer's
trust model (pickles between self-spawned processes) still applies.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .framing import ConnectionClosed, recv_msg, send_msg
from .shards import ShardPlan, SpectrumShard, split_spectrum

__all__ = ["SocketBackend", "WorkerSpawnError"]


class WorkerSpawnError(RuntimeError):
    """A worker process failed to start or complete its handshake."""


@dataclass
class _RemoteWorker:
    """Coordinator-side record of one worker process."""

    worker_id: int
    proc: subprocess.Popen
    conn: socket.socket
    shard_addr: tuple[str, int]
    shard_ids: tuple[int, ...]
    commands: "queue.Queue[tuple]" = field(default_factory=queue.Queue)
    thread: threading.Thread | None = None
    seq: int = 0
    dead: bool = False
    #: Set by shutdown() so a forced socket close is not misread as a
    #: worker death by the dispatcher.
    closing: bool = False


class SocketBackend:
    """Backend running correction on shard-owning worker processes."""

    name = "socket"

    def __init__(
        self,
        workers: int,
        shards: int | None = None,
        host: str = "127.0.0.1",
        spawn_timeout: float = 60.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.n_shards = shards if shards is not None else workers
        if self.n_shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.n_shards}")
        self.host = host
        self.spawn_timeout = spawn_timeout
        self.generation = 0
        self._workers: dict[int, _RemoteWorker] = {}
        self._listener: socket.socket | None = None
        self._lock = threading.Lock()
        self._count_lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._harvested: dict[str, int] = {}
        self._rr = 0
        self._reads = None
        self._state_corrector = None
        self._state_base: dict | None = None
        self._shards: list[SpectrumShard] = []
        self._shutdown = False

    # -- counters -----------------------------------------------------
    def _incr(self, name: str, n: int = 1) -> None:
        if n:
            with self._count_lock:
                self._counters[name] = self._counters.get(name, 0) + int(n)

    def harvest(self) -> dict:
        with self._count_lock:
            out = {}
            for name, total in self._counters.items():
                delta = total - self._harvested.get(name, 0)
                if delta:
                    out[name] = delta
                self._harvested[name] = total
            return out

    # -- protocol surface ---------------------------------------------
    def want_pool(self, workers: int, n_items: int) -> bool:
        # Asking for the socket backend *is* asking for remote
        # execution — even one worker / one chunk goes distributed.
        del workers
        return n_items >= 1 and not self._shutdown

    def install_state(self, corrector, reads) -> None:
        self._reads = reads
        self._ensure_started()
        if corrector is not None and corrector is not self._state_corrector:
            self._state_base, self._shards = self._shipping_state(corrector)
            self._setup_workers(list(self._workers.values()))
            self._state_corrector = corrector

    def submit(self, fn: Callable, payload: tuple) -> tuple[Future, int]:
        from ..parallel import engine as _engine

        self._ensure_started()
        fut: Future = Future()
        if fn is _engine._chunk_attempt:
            _task, (start, stop), attempt = payload
            desc = ("chunk", start, stop, attempt)
        else:
            desc = ("call", fn, payload)
        with self._lock:
            live = [w for w in self._workers.values() if not w.dead]
            if live:
                worker = live[self._rr % len(live)]
                self._rr += 1
            else:
                worker = None
        if worker is None:
            # Completing the future runs done-callbacks synchronously
            # (and takes the future's own condition), so it must happen
            # after the router lock is released — a callback that calls
            # back into this backend would otherwise self-deadlock.
            fut.set_exception(BrokenProcessPool("no live socket workers"))
            return fut, self.generation
        worker.commands.put(("work", desc, fut))
        return fut, self.generation

    def recreate(self, generation: int) -> None:
        with self._lock:
            if generation != self.generation or self._shutdown:
                return
            self.generation += 1
            dead = [w for w in self._workers.values() if w.dead]
        if not dead:
            return
        for w in dead:
            self._reap(w)
        respawned = []
        for w in dead:
            try:
                nw = self._spawn(w.worker_id, w.shard_ids)
            except (WorkerSpawnError, OSError):
                # Leave the slot dead; chunks fall back to the parent's
                # serial path, which needs no remote workers at all.
                self._incr("backend.respawn_failures")
                continue
            respawned.append(nw)
            with self._lock:
                self._workers[w.worker_id] = nw
        if respawned and self._state_base is not None:
            self._setup_workers(respawned)
        self._incr("backend.workers_respawned", len(respawned))
        routes = self._routes()
        with self._lock:
            live = [w for w in self._workers.values() if not w.dead]
        for w in live:
            w.commands.put(("routes", {"type": "routes", "routes": routes}))

    def shutdown(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            workers = list(self._workers.values())
            self._workers = {}
        for w in workers:
            w.closing = True
            w.commands.put(("stop",))
        for w in workers:
            if w.thread is not None:
                w.thread.join(timeout=2.0)
                if w.thread.is_alive():
                    # Dispatcher is blocked mid-recv; force the socket
                    # closed to unblock it (closing flag keeps this
                    # from being accounted as a death).
                    _close_quietly(w.conn)
                    w.thread.join(timeout=2.0)
        for w in workers:
            self._reap(w)
        if self._listener is not None:
            _close_quietly(self._listener)
            self._listener = None

    # -- startup / handshake ------------------------------------------
    def _ensure_started(self) -> None:
        if self._shutdown:
            raise RuntimeError("backend already shut down")
        with self._lock:
            if self._workers:
                return
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, 0))
            listener.listen(self.workers + 4)
            self._listener = listener
        assignment = {
            wid: tuple(
                s for s in range(self.n_shards) if s % self.workers == wid
            )
            for wid in range(self.workers)
        }
        spawned = [
            self._spawn(wid, shard_ids)
            for wid, shard_ids in assignment.items()
        ]
        with self._lock:
            for w in spawned:
                self._workers[w.worker_id] = w

    def _spawn(
        self, worker_id: int, shard_ids: tuple[int, ...]
    ) -> _RemoteWorker:
        assert self._listener is not None
        import repro

        # Workers must resolve everything the coordinator can pickle by
        # reference (repro itself, but also e.g. a caller's task module)
        # so they inherit the parent's whole import path.
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        paths: list[str] = [src_root]
        for entry in [p for p in sys.path if p] + (
            os.environ.get("PYTHONPATH", "").split(os.pathsep)
        ):
            if entry and entry not in paths:
                paths.append(entry)
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(paths)
        host, port = self._listener.getsockname()[:2]
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.distributed.worker",
                "--connect",
                f"{host}:{port}",
                "--worker-id",
                str(worker_id),
                "--shard-host",
                self.host,
            ],
            env=env,
        )
        deadline = time.monotonic() + self.spawn_timeout
        try:
            conn, hello = self._await_hello(worker_id, deadline)
        except (WorkerSpawnError, OSError):
            proc.kill()
            proc.wait()
            raise
        worker = _RemoteWorker(
            worker_id=worker_id,
            proc=proc,
            conn=conn,
            shard_addr=tuple(hello["shard_addr"]),
            shard_ids=shard_ids,
        )
        worker.thread = threading.Thread(
            target=self._dispatch_loop,
            args=(worker,),
            name=f"repro-socket-worker-{worker_id}",
            daemon=True,
        )
        worker.thread.start()
        return worker

    def _await_hello(
        self, worker_id: int, deadline: float
    ) -> tuple[socket.socket, dict]:
        """Accept connections until ``worker_id``'s hello arrives."""
        assert self._listener is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerSpawnError(
                    f"worker {worker_id} did not connect within "
                    f"{self.spawn_timeout:.0f}s"
                )
            self._listener.settimeout(remaining)
            try:
                conn, _addr = self._listener.accept()
            except TimeoutError as e:
                raise WorkerSpawnError(
                    f"worker {worker_id} did not connect within "
                    f"{self.spawn_timeout:.0f}s"
                ) from e
            conn.settimeout(self.spawn_timeout)
            try:
                hello = recv_msg(conn)
            except (ConnectionClosed, OSError, ValueError):
                _close_quietly(conn)
                self._incr("backend.handshake_failures")
                continue
            conn.settimeout(None)
            if (
                isinstance(hello, dict)
                and hello.get("type") == "hello"
                and hello.get("worker_id") == worker_id
            ):
                return conn, hello
            # A stale or foreign connection; drop it and keep waiting.
            _close_quietly(conn)
            self._incr("backend.handshake_failures")

    # -- state shipping -----------------------------------------------
    def _shipping_state(self, corrector) -> tuple[dict, list[SpectrumShard]]:
        """Build the per-run state blob (sans per-worker shard lists)."""
        from ..core.reptile.corrector import ReptileCorrector

        spectrum = getattr(corrector, "spectrum", None)
        if isinstance(corrector, ReptileCorrector) and spectrum is not None:
            plan = ShardPlan.for_spectrum(spectrum.k, self.n_shards)
            shards = split_spectrum(spectrum, plan)
            base = {
                "kind": "reptile-sharded",
                "plan": plan,
                "params": corrector.params,
                "tiles": corrector.tiles,
                "flexible_tiling": corrector.flexible_tiling,
                "prefilter": spectrum.prefilter,
                "n_kmers": spectrum.n_kmers,
            }
            return base, shards
        # Anything else ships whole: still remote execution, no
        # sharding (REDEEM's model is not a plain spectrum table).
        return {"kind": "pickled", "corrector": corrector}, []

    def _routes(self) -> dict[int, tuple[str, int]]:
        with self._lock:
            live = [w for w in self._workers.values() if not w.dead]
        routes: dict[int, tuple[str, int]] = {}
        for w in live:
            for s in w.shard_ids:
                routes[s] = w.shard_addr
        return routes

    def _setup_workers(self, workers: list[_RemoteWorker]) -> None:
        """Ship state to ``workers`` and wait until each is ready."""
        assert self._state_base is not None
        routes = self._routes()
        by_owner: dict[int, list[SpectrumShard]] = {}
        for s in self._shards:
            by_owner.setdefault(s.shard_id % self.workers, []).append(s)
        waits = []
        for w in workers:
            if w.dead:
                continue
            state = dict(self._state_base)
            if state["kind"] == "reptile-sharded":
                state["shards"] = by_owner.get(w.worker_id, [])
            event = threading.Event()
            holder: dict = {}
            w.commands.put(
                (
                    "setup",
                    {"type": "setup", "state": state, "routes": routes},
                    event,
                    holder,
                )
            )
            waits.append((w, event, holder))
        for w, event, holder in waits:
            if not event.wait(timeout=self.spawn_timeout):
                self._mark_dead(w)
                self._incr("backend.setup_timeouts")
            elif holder.get("error") is not None:
                self._incr("backend.setup_failures")

    # -- dispatcher ---------------------------------------------------
    def _mark_dead(self, worker: _RemoteWorker) -> None:
        with self._lock:
            if worker.dead:
                return
            worker.dead = True
        self._incr("backend.worker_deaths")
        self._drain_queue(worker)

    def _drain_queue(self, worker: _RemoteWorker) -> None:
        """Fail every queued command so no caller waits forever."""
        while True:
            try:
                item = worker.commands.get_nowait()
            except queue.Empty:
                return
            if item[0] == "work":
                _fail_future(
                    item[2],
                    BrokenProcessPool(
                        f"socket worker {worker.worker_id} died"
                    ),
                )
            elif item[0] == "setup":
                item[3]["error"] = ConnectionClosed("worker died")
                item[2].set()

    def _dispatch_loop(self, worker: _RemoteWorker) -> None:
        """Single owner of ``worker.conn``: serializes all wire I/O."""
        while True:
            item = worker.commands.get()
            kind = item[0]
            if kind == "stop":
                self._send_shutdown(worker)
                return
            if kind == "routes":
                try:
                    send_msg(worker.conn, item[1])
                except (ConnectionClosed, OSError):
                    if not worker.closing:
                        self._mark_dead(worker)
                    return
                continue
            if kind == "setup":
                msg, event, holder = item[1], item[2], item[3]
                try:
                    send_msg(worker.conn, msg)
                    reply = recv_msg(worker.conn)
                    if not (
                        isinstance(reply, dict)
                        and reply.get("type") == "ready"
                    ):
                        raise ConnectionClosed(
                            f"expected ready, got {reply!r}"
                        )
                except (ConnectionClosed, OSError, ValueError) as e:
                    holder["error"] = e
                    event.set()
                    if not worker.closing:
                        self._mark_dead(worker)
                    return
                event.set()
                continue
            # kind == "work"
            desc, fut = item[1], item[2]
            if not fut.set_running_or_notify_cancel():
                continue
            worker.seq += 1
            seq = worker.seq
            if desc[0] == "chunk":
                _tag, start, stop, attempt = desc
                # Sliced lazily at send time: only one chunk of reads
                # is ever serialized per worker at once.
                msg = {
                    "type": "chunk",
                    "seq": seq,
                    "start": start,
                    "attempt": attempt,
                    "reads": self._reads.subset(np.arange(start, stop)),
                }
            else:
                msg = {
                    "type": "call",
                    "seq": seq,
                    "fn": desc[1],
                    "payload": desc[2],
                }
            try:
                sent = send_msg(worker.conn, msg)
                self._incr("backend.rpc_calls")
                self._incr("backend.rpc_bytes_sent", sent)
                reply = recv_msg(worker.conn)
                while (
                    isinstance(reply, dict) and reply.get("seq") != seq
                ):
                    # Stale reply from an earlier abandoned exchange.
                    self._incr("backend.rpc_stale_replies")
                    reply = recv_msg(worker.conn)
            except (ConnectionClosed, OSError, ValueError) as e:
                _fail_future(
                    fut,
                    BrokenProcessPool(
                        f"socket worker {worker.worker_id} died "
                        f"mid-chunk: {e}"
                    ),
                )
                if not worker.closing:
                    self._mark_dead(worker)
                return
            if (
                isinstance(reply, dict)
                and reply.get("type") == "result"
            ):
                fut.set_result(reply["value"])
            else:
                self._incr("backend.remote_errors")
                message = (
                    reply.get("message")
                    if isinstance(reply, dict)
                    else repr(reply)
                )
                _fail_future(
                    fut,
                    RuntimeError(
                        f"socket worker {worker.worker_id}: {message}"
                    ),
                )

    def _send_shutdown(self, worker: _RemoteWorker) -> None:
        try:
            send_msg(worker.conn, {"type": "shutdown"})
        except (ConnectionClosed, OSError):
            self._incr("backend.shutdown_send_failures")
        _close_quietly(worker.conn)

    def _reap(self, worker: _RemoteWorker) -> None:
        _close_quietly(worker.conn)
        if worker.proc.poll() is None:
            worker.proc.terminate()
            try:
                worker.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()


def _fail_future(fut: Future, exc: BaseException) -> None:
    if not fut.done():
        try:
            fut.set_exception(exc)
        except InvalidStateError:
            # Lost the race with a concurrent completion; the result
            # stands and nothing waits on this exception.
            pass


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
