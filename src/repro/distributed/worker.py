"""Remote correction worker: ``python -m repro.distributed.worker``.

One worker process per :class:`~repro.distributed.socket_backend.
SocketBackend` slot.  On startup it dials the coordinator's control
address, opens its own shard-lookup server on an ephemeral loopback
port, and introduces itself (``hello``).  The coordinator answers with
``setup`` — the worker's spectrum shards plus the full shard routing
table — after which the worker rebuilds a corrector locally: the
shipped :class:`~repro.distributed.shards.ShardRouter` stands in for
the monolithic spectrum (its probing neighbor index gives bitwise the
same answers as the parent's precomputed one), the tile table and
Bloom prefilter arrive whole because they are small, and correction
chunks stream in over the control socket.

Control protocol (length-prefixed pickles, coordinator → worker):

- ``setup {state, routes}`` → build corrector, reply ``ready``;
- ``routes {routes}`` → refresh the shard client pool (sent after the
  coordinator respawns a dead peer; no reply);
- ``chunk {seq, start, reads, attempt}`` → correct, reply
  ``result {seq, value}`` where value is the engine's
  ``((start, codes), stats)`` contract, or ``error {seq, message}``;
- ``call {seq, fn, payload}`` → run a module-level function (the
  MapReduce attempt entry points), same reply shape;
- ``ping`` → ``pong``;  ``shutdown`` → exit 0.

A chunk that fails because a *peer* worker died replies ``error`` —
the coordinator's recovery loop retries the chunk after respawning the
peer and broadcasting fresh routes, so the failure never surfaces to
the job (and output bytes never change: retries are pure re-runs).
"""

from __future__ import annotations

import argparse
import socket
import socketserver
import sys
import threading

import numpy as np

from .. import telemetry
from ..mapreduce import faults
from .framing import ConnectionClosed, recv_msg, send_msg
from .shards import ShardClientPool, ShardRouter, SpectrumShard

__all__ = ["ShardServer", "build_corrector", "main", "run_chunk"]


class _ShardHandler(socketserver.BaseRequestHandler):
    """Persistent per-connection lookup loop: ``{shard, codes}`` in,
    ``{counts}`` out, until the peer hangs up."""

    def handle(self) -> None:
        while True:
            try:
                msg = recv_msg(self.request)
            except (ConnectionClosed, OSError):
                return
            shards: dict[int, SpectrumShard] = self.server.shards  # type: ignore[attr-defined]
            reply: dict[str, object]
            if (
                isinstance(msg, dict)
                and msg.get("type") == "lookup"
                and msg.get("shard") in shards
            ):
                codes = np.asarray(msg["codes"], dtype=np.uint64)
                reply = {"counts": shards[msg["shard"]].count(codes)}
            else:
                reply = {"error": f"bad lookup request: {msg!r}"}
            try:
                send_msg(self.request, reply)
            except OSError:
                return


class ShardServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server answering count lookups for owned shards."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1"):
        super().__init__((host, 0), _ShardHandler)
        self.shards: dict[int, SpectrumShard] = {}

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)


def build_corrector(state: dict, routes: dict[int, tuple[str, int]]):
    """Rebuild a corrector from a coordinator ``setup`` state blob.

    Returns ``(corrector, router)``; router is None for whole-pickle
    shipping (non-sharded correctors) and for stateless call-only
    setups.
    """
    kind = state.get("kind")
    if kind == "none":
        return None, None
    if kind == "pickled":
        return state["corrector"], None
    if kind == "reptile-sharded":
        from ..core.reptile.corrector import ReptileCorrector

        plan = state["plan"]
        local = {s.shard_id: s for s in state["shards"]}
        router = ShardRouter(
            k=plan.k,
            plan=plan,
            local=local,
            clients=ShardClientPool(routes),
            prefilter=state["prefilter"],
            n_kmers=state["n_kmers"],
        )
        corrector = ReptileCorrector(
            params=state["params"],
            spectrum=router,  # duck-typed: the exact query surface used
            tiles=state["tiles"],
            flexible_tiling=state["flexible_tiling"],
        )
        return corrector, router
    raise ValueError(f"unknown state kind {kind!r}")


def run_chunk(
    corrector,
    reads,
    start: int,
    attempt: int,
    router: ShardRouter | None = None,
) -> tuple[tuple[int, np.ndarray], dict]:
    """Correct one shipped chunk through the engine's shared attempt
    body (:func:`repro.parallel.engine.run_chunk_attempt`), then fold
    in this worker's shard-router counters."""
    from ..parallel.engine import run_chunk_attempt

    result, stats = run_chunk_attempt(corrector, reads, start, attempt)
    if router is not None:
        for key, delta in router.harvest().items():
            stats[key] = stats.get(key, 0) + delta
    return result, stats


def _serve(conn: socket.socket, worker_id: int, shard_server: ShardServer) -> int:
    """The control loop; returns the process exit code."""
    corrector = None
    router: ShardRouter | None = None
    while True:
        try:
            msg = recv_msg(conn)
        except (ConnectionClosed, OSError):
            # Coordinator gone: nothing to serve, exit quietly (the
            # coordinator's dispatcher already accounts the death).
            return 0
        mtype = msg.get("type") if isinstance(msg, dict) else None
        if mtype == "shutdown":
            return 0
        if mtype == "ping":
            send_msg(conn, {"type": "pong", "worker_id": worker_id})
            continue
        if mtype == "setup":
            corrector, router = build_corrector(msg["state"], msg["routes"])
            shard_server.shards = {
                s.shard_id: s for s in msg["state"].get("shards", [])
            }
            send_msg(conn, {"type": "ready", "worker_id": worker_id})
            continue
        if mtype == "routes":
            if router is not None and router.clients is not None:
                router.clients.update_routes(msg["routes"])
            continue
        if mtype in ("chunk", "call"):
            seq = msg["seq"]
            try:
                if mtype == "chunk":
                    if corrector is None:
                        raise RuntimeError("chunk before setup")
                    value = run_chunk(
                        corrector,
                        msg["reads"],
                        msg["start"],
                        msg["attempt"],
                        router,
                    )
                else:
                    value = msg["fn"](msg["payload"])
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as e:
                # Accounted locally and again coordinator-side, where
                # the error reply increments backend.remote_errors.
                telemetry.count("worker.chunk_errors")
                send_msg(
                    conn,
                    {
                        "type": "error",
                        "seq": seq,
                        "message": f"{type(e).__name__}: {e}",
                        "worker_id": worker_id,
                    },
                )
            else:
                send_msg(conn, {"type": "result", "seq": seq, "value": value})
            continue
        send_msg(
            conn,
            {
                "type": "error",
                "seq": msg.get("seq") if isinstance(msg, dict) else None,
                "message": f"unknown message type {mtype!r}",
                "worker_id": worker_id,
            },
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-distributed-worker",
        description="shard-owning remote correction worker "
        "(spawned by SocketBackend; not a user-facing tool)",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument(
        "--shard-host", default="127.0.0.1",
        help="interface for this worker's shard-lookup server",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    faults.mark_worker_process()

    shard_server = ShardServer(args.shard_host)
    server_thread = threading.Thread(
        target=shard_server.serve_forever, daemon=True
    )
    server_thread.start()
    conn = socket.create_connection((host, int(port)), timeout=30)
    conn.settimeout(None)
    try:
        send_msg(
            conn,
            {
                "type": "hello",
                "worker_id": args.worker_id,
                "shard_addr": shard_server.address,
            },
        )
        return _serve(conn, args.worker_id, shard_server)
    finally:
        conn.close()
        shard_server.shutdown()
        shard_server.server_close()


if __name__ == "__main__":
    sys.exit(main())
