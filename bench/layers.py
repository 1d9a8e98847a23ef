"""The traced run: per-layer numbers from the harness's own spans.

The harness calls each layer's public functions on the workload's own
generated input and records a span (name, start, end, parent, workload)
around every call.  Spans stay in memory and are written out once, with
the result file.  Counts marked † in the README come from the program's
existing ``--report`` counters during one traced CLI run; nothing is
added inside ``src/``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from harness import (
    Corpus,
    child_env,
    median,
    repro_argv,
    run_process,
    sha256_file,
    simulate,
)
from workloads import CORPORA, CliWorkload, checked_cli_op, correct_argv

CHUNK_READS = 2048


class Tracer:
    """In-memory span recorder; safe to use from the client threads."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span from ``perf_counter`` readings."""
        stack = self._stack()
        span = {
            "name": name,
            "start": start - self._t0,
            "end": end - self._t0,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
        }
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            self.spans.append({
                "name": name,
                "start": time.perf_counter() - self._t0,
                "end": None,
                "parent": stack[-1] if stack else None,
                "workload": self.workload,
            })
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter() - self._t0

    def durations(self, name: str) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))


# -- layers shared by every workload -----------------------------------------
def trace_core_layers(tr: Tracer, corpus: Corpus, work: Path) -> dict:
    """io → params → spectrum/tiles → prefilter → neighbour index →
    corrector → chunk loop → write, each as its own top-level span.

    Returns the fitted pieces the workload-specific layers reuse, the
    per-layer metrics, and the sha256 of the in-process output (the
    serial in-memory bytes for this corpus)."""
    from repro.core.hotpath import HotpathConfig
    from repro.core.reptile import ReptileCorrector
    from repro.core.reptile.params import select_parameters
    from repro.io.fastq import read_fastq, read_fastq_chunks, write_fastq
    from repro.kmer.neighbor_index import PrecomputedNeighborIndex
    from repro.kmer.spectrum import spectrum_from_reads
    from repro.kmer.streaming import iter_read_chunks
    from repro.kmer.tiles import tile_table_from_reads

    fp_rate = HotpathConfig().prefilter_fp_rate
    with tr.span("io.fastq.parse"):
        reads = read_fastq(corpus.reads)
    with tr.span("io.fastq.chunk_parse"):
        for _ in read_fastq_chunks(corpus.reads, CHUNK_READS):
            pass
    with tr.span("core.reptile.params.select"):
        params = select_parameters(reads)
    with tr.span("kmer.spectrum.build"):
        spectrum = spectrum_from_reads(reads, params.k, both_strands=True)
    with tr.span("kmer.tiles.build"):
        tiles = tile_table_from_reads(
            reads, k=params.k, overlap=params.overlap,
            quality_cutoff=params.qc, both_strands=True,
        )
    with tr.span("kmer.prefilter.build"):
        spectrum_pf = spectrum.with_prefilter(fp_rate)
        tiles_pf = tiles.with_prefilter(fp_rate)
    with tr.span("kmer.neighbor_index.build"):
        index = PrecomputedNeighborIndex(spectrum_pf, params.d)
    with tr.span("core.reptile.init"):
        corrector = ReptileCorrector(params, spectrum, tiles)
    corrected = reads.copy()
    n_chunks = 0
    with tr.span("core.reptile.correct"):
        start = 0
        for chunk in iter_read_chunks(reads, CHUNK_READS):
            out_chunk, _ = corrector.correct_chunk(chunk)
            corrected.codes[start:start + chunk.n_reads] = out_chunk.codes
            start += chunk.n_reads
            n_chunks += 1
    out = work / "inprocess.fastq"
    with tr.span("io.fastq.write"):
        write_fastq(corrected, out)
    reject_frac = probe_kernels(tr, reads, params, tiles_pf, index)

    kernels = (
        "kmer.tiles.og_rows",
        "kmer.neighbor_index.batch_query",
        "core.reptile.tile_correct.enumerate",
        "kmer.tiles.lookup",
        "core.reptile.tile_correct.evaluate",
    )
    correct_s = tr.total("core.reptile.correct")
    metrics = {
        "io.fastq.parse_s": tr.total("io.fastq.parse"),
        "io.fastq.parse_mb_per_s": (
            corpus.reads.stat().st_size / 1e6 / tr.total("io.fastq.parse")
        ),
        "io.fastq.chunk_parse_s": tr.total("io.fastq.chunk_parse"),
        "io.fastq.write_s": tr.total("io.fastq.write"),
        "core.reptile.params.select_s": tr.total("core.reptile.params.select"),
        "kmer.spectrum.build_s": tr.total("kmer.spectrum.build"),
        "kmer.spectrum.n_kmers": spectrum.n_kmers,
        "kmer.tiles.build_s": tr.total("kmer.tiles.build"),
        "kmer.tiles.n_tiles": tiles.n_tiles,
        "kmer.prefilter.build_s": tr.total("kmer.prefilter.build"),
        "kmer.neighbor_index.build_s": tr.total("kmer.neighbor_index.build"),
        "kmer.neighbor_index.n_edges": index.n_edges,
        "core.reptile.init_s": tr.total("core.reptile.init"),
        "core.reptile.correct_s": correct_s,
        "core.reptile.chunks": n_chunks,
        "kmer.prefilter.reject_frac": reject_frac,
        # Derived, not a span: the chunk loop minus the five kernels.
        "core.reptile.walk_s": correct_s - sum(tr.total(k) for k in kernels),
    }
    for k in kernels:
        metrics[f"{k}_s"] = tr.total(k)
    return {
        "reads": reads,
        "params": params,
        "spectrum": spectrum,
        "tiles": tiles,
        "spectrum_pf": spectrum_pf,
        "fp_rate": fp_rate,
        "metrics": metrics,
        "sha256": sha256_file(out),
    }


def fresh_corrector(core: dict):
    """A corrector with a cold memo on the already-built tables."""
    from repro.core.reptile import ReptileCorrector

    return ReptileCorrector(core["params"], core["spectrum"], core["tiles"])


def probe_kernels(tr: Tracer, reads, params, tiles, index) -> float:
    """Time the batched kernels on the workload's own below-``cg`` tiles.

    Mirrors what ``ReptileCorrector.run`` precomputes per chunk (window
    rows forward and reverse-complement, walk-head windows at ``d1 = d``
    and the remaining walk windows at ``d1 = 0``) through the kernels'
    public entry points.  Returns the tile prefilter's reject fraction
    over the enumerated mutants.
    """
    import numpy as np

    from repro.core.reptile.read_correct import valid_walk_positions
    from repro.core.reptile.tile_correct import (
        enumerate_mutant_tiles_batch,
        evaluate_tiles_batch,
    )
    from repro.kmer.streaming import iter_read_chunks
    from repro.kmer.tiles import tile_og_rows
    from repro.seq.alphabet import reverse_complement_codes

    tlen, k = params.tile_length, params.k
    step = k - params.overlap
    queried = rejected = 0
    no_neighbors = np.empty(0, dtype=np.uint64)
    for chunk in iter_read_chunks(reads, CHUNK_READS):
        head: list[tuple] = []
        rest: list[tuple] = []
        for ln in np.unique(chunk.lengths):
            if ln < tlen:
                continue
            block = chunk.codes[chunk.lengths == ln, :ln]
            with tr.span("kmer.tiles.og_rows"):
                rows = (
                    tile_og_rows(block, tiles),
                    tile_og_rows(reverse_complement_codes(block), tiles),
                )
            walk = np.array(
                valid_walk_positions(int(ln), tlen, step), dtype=np.int64
            )
            last = rows[0][0].shape[1] - 1
            hcols = np.unique(np.clip(
                np.concatenate(([0], walk + 1, walk + tlen)), 0, last
            ))
            for codes, og in rows:
                head.append((codes[:, hcols].ravel(), og[:, hcols].ravel()))
                if walk.size > 1:
                    rest.append(
                        (codes[:, walk[1:]].ravel(), og[:, walk[1:]].ravel())
                    )
        for group, d1 in ((head, params.d), (rest, 0)):
            if not group:
                continue
            codes = np.concatenate([c for c, _ in group])
            og = np.concatenate([o for _, o in group])
            codes, og = codes[og >= 0], og[og >= 0]
            utiles, first = np.unique(codes, return_index=True)
            uog = og[first].astype(np.int64)
            need = uog < params.cg
            if not need.any():
                continue
            sub = utiles[need]
            a1 = sub >> np.uint64(2 * (tlen - k))
            a2 = sub & np.uint64((1 << (2 * k)) - 1)
            with tr.span("kmer.neighbor_index.batch_query"):
                if d1 > 0:
                    nb1 = index.neighbors_batch(a1)
                else:
                    nb1 = (no_neighbors, np.zeros(a1.size + 1, dtype=np.int64))
                nb2 = index.neighbors_batch(a2)
            with tr.span("core.reptile.tile_correct.enumerate"):
                mutants, tidx = enumerate_mutant_tiles_batch(
                    sub, *nb1, *nb2, k, params.overlap
                )
            with tr.span("kmer.tiles.lookup"):
                _, og_mutants = tiles.lookup(mutants)
            queried += mutants.size
            rejected += mutants.size - int(
                tiles.prefilter.maybe_contains(mutants).sum()
            )
            with tr.span("core.reptile.tile_correct.evaluate"):
                evaluate_tiles_batch(
                    sub, uog[need], mutants, og_mutants, tidx,
                    params.cg, params.cm, params.cr,
                )
    return rejected / queried if queried else 0.0


# -- workload-specific layers -------------------------------------------------
def trace_streaming(tr: Tracer, corpus: Corpus, core: dict, work: Path) -> dict:
    """``kmer.streaming`` phase 1 under the workload's 2 MiB budget."""
    from repro.io.fastq import read_fastq_chunks
    from repro.kmer.streaming import (
        SpectrumAccumulator,
        TileAccumulator,
        build_from_chunks,
    )

    params = core["params"]
    spill_dir = work / "spill"
    spill_dir.mkdir(exist_ok=True)
    budget = 2 << 20
    accs = [
        SpectrumAccumulator(
            params.k, max_memory_bytes=budget, tmp_dir=spill_dir,
            prefilter_fp_rate=core["fp_rate"],
        ),
        TileAccumulator(
            params.k, overlap=params.overlap, quality_cutoff=params.qc,
            max_memory_bytes=budget, tmp_dir=spill_dir,
            prefilter_fp_rate=core["fp_rate"],
        ),
    ]
    with tr.span("kmer.streaming.phase1"):
        build_from_chunks(read_fastq_chunks(corpus.reads, CHUNK_READS), accs)
    return {
        "kmer.streaming.phase1_s": tr.total("kmer.streaming.phase1"),
        "kmer.streaming.spill_bytes": sum(a.spill_bytes for a in accs),
        "kmer.streaming.counting_peak_bytes": max(a.peak_bytes for a in accs),
    }


def trace_parallel_engine(tr: Tracer, core: dict) -> dict:
    """``parallel.engine`` with two real worker processes, in-process."""
    from repro.parallel import correct_in_parallel

    corrector = fresh_corrector(core)
    with tr.span("parallel.engine.correct"):
        report = correct_in_parallel(
            corrector, core["reads"], workers=2, chunk_size=CHUNK_READS
        )
    return {
        "parallel.engine.correct_s": tr.total("parallel.engine.correct"),
        "parallel.engine.chunks": report.n_chunks,
    }


def trace_distributed(tr: Tracer, core: dict) -> dict:
    """Framing, shard split + lookups, and the socket backend's two
    phases (spawn + state shipping, then the chunk loop)."""
    import numpy as np

    from repro.distributed import (
        ShardClientPool,
        ShardPlan,
        ShardRouter,
        split_spectrum,
    )
    from repro.distributed.framing import recv_msg, send_msg
    from repro.distributed.socket_backend import SocketBackend
    from repro.distributed.worker import ShardServer
    from repro.kmer.streaming import iter_read_chunks
    from repro.parallel import correct_in_parallel

    reads, spectrum = core["reads"], core["spectrum_pf"]

    # One 2048-read chunk payload echoed over a socketpair.
    payload = ("chunk", 0, next(iter_read_chunks(reads, CHUNK_READS)))
    left, right = socket.socketpair()
    rounds = 20

    def echo() -> None:
        for _ in range(rounds):
            send_msg(right, recv_msg(right))

    peer = threading.Thread(target=echo, daemon=True)
    peer.start()
    sent = 0
    try:
        for _ in range(rounds):
            with tr.span("distributed.framing.roundtrip"):
                sent = send_msg(left, payload)
                recv_msg(left)
    finally:
        peer.join(timeout=30)
        left.close()
        right.close()
    roundtrip_s = median(tr.durations("distributed.framing.roundtrip"))

    plan = ShardPlan.for_spectrum(spectrum.k, 4)
    with tr.span("distributed.shards.split"):
        shards = split_spectrum(spectrum, plan)

    # The correction mix: half present k-mers, half random (mostly
    # absent, answered by the shipped Bloom filter without routing).
    rng = np.random.default_rng(13)
    batch = 4096
    codes = np.concatenate([
        rng.choice(spectrum.kmers, size=batch // 2),
        rng.integers(0, 1 << (2 * spectrum.k), size=batch // 2,
                     dtype=np.uint64),
    ])
    rng.shuffle(codes)

    def lookups_per_s(router: ShardRouter, name: str) -> float:
        router.count(codes)  # connect before timing
        with tr.span(name):
            for _ in range(rounds):
                router.count(codes)
        return rounds * codes.size / tr.total(name)

    def router_for(local_ids, clients=None) -> ShardRouter:
        return ShardRouter(
            k=spectrum.k, plan=plan,
            local={s.shard_id: s for s in shards if s.shard_id in local_ids},
            clients=clients, prefilter=spectrum.prefilter,
            n_kmers=spectrum.n_kmers,
        )

    all_ids = {s.shard_id for s in shards}
    local_rate = lookups_per_s(
        router_for(all_ids), "distributed.shards.local_lookups"
    )
    remote_ids = {s.shard_id for s in shards[: len(shards) // 2]}
    server = ShardServer()
    server.shards = {s.shard_id: s for s in shards if s.shard_id in remote_ids}
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    clients = ShardClientPool({sid: server.address for sid in remote_ids})
    try:
        remote_rate = lookups_per_s(
            router_for(all_ids - remote_ids, clients),
            "distributed.shards.remote_lookups",
        )
    finally:
        clients.close()
        server.shutdown()
        server.server_close()
        serving.join(timeout=30)

    corrector = fresh_corrector(core)
    backend = SocketBackend(2, shards=4)
    try:
        with tr.span("distributed.socket_backend.install"):
            backend.install_state(corrector, reads)
        with tr.span("distributed.socket_backend.chunks"):
            correct_in_parallel(
                corrector, reads, workers=2, chunk_size=CHUNK_READS,
                backend=backend,
            )
    finally:
        backend.shutdown()
    return {
        "distributed.framing.roundtrip_s": roundtrip_s,
        "distributed.framing.mb_per_s": 2 * sent / 1e6 / roundtrip_s,
        "distributed.shards.split_s": tr.total("distributed.shards.split"),
        "distributed.shards.local_lookups_per_s": local_rate,
        "distributed.shards.remote_lookups_per_s": remote_rate,
        "distributed.socket_backend.install_s": tr.total(
            "distributed.socket_backend.install"
        ),
        "distributed.socket_backend.chunks_s": tr.total(
            "distributed.socket_backend.chunks"
        ),
    }


# -- counters from the program's own run report -------------------------------
def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def report_counters(report_paths: list[Path]) -> dict:
    """The † metrics: exact counts the program already reports, summed
    over the given ``--report`` files."""
    c: dict[str, float] = {}
    for path in report_paths:
        with open(path) as fh:
            for name, value in json.load(fh).get("counters", {}).items():
                c[name] = c.get(name, 0) + value
    memo_lookups = c.get("hotpath.memo_hits", 0) + c.get("hotpath.memo_misses", 0)
    lookups = c.get("shard.lookup_total", 0)
    return {
        "core.reptile.tiles_examined": c.get("tiles_examined", 0),
        "core.reptile.tiles_valid_frac": _frac(
            c.get("tiles_valid", 0), c.get("tiles_examined", 0)
        ),
        "core.reptile.tiles_corrected": c.get("tiles_corrected", 0),
        "core.hotpath.memo_hit_frac": _frac(
            c.get("hotpath.memo_hits", 0), memo_lookups
        ),
        "core.hotpath.memo_evictions": c.get("hotpath.memo_evictions", 0),
        "distributed.shards.lookup_total": lookups,
        "distributed.shards.prefiltered_frac": _frac(
            c.get("shard.lookup_prefiltered", 0), lookups
        ),
        "distributed.shards.remote_frac": _frac(
            c.get("shard.lookup_remote", 0), lookups
        ),
        "distributed.shards.rpc_calls": c.get("shard.rpc_calls", 0),
        "distributed.socket_backend.rpc_bytes_sent": c.get(
            "backend.rpc_bytes_sent", 0
        ),
    }


def interpreter_start_s(tr: Tracer, entry: str, env: dict, work: Path) -> float:
    """Interpreter start + the entry point's imports, as its own span:
    at this corpus size it is a quarter of a ``repro correct`` wall."""
    t0 = time.perf_counter()
    res = run_process(repro_argv(entry, "--help"), env, work / "setup.log")
    tr.record("bench.interp_start", t0, t0 + res.wall_s)
    return res.wall_s


# -- the traced run of a CLI workload -----------------------------------------
def trace_cli_workload(
    workload: CliWorkload, seed: int, scale: str, work: Path
) -> dict:
    env = child_env(work / "tmp")
    tr = Tracer(workload.name)
    corpus = simulate(work, workload.corpus, CORPORA[scale][workload.corpus],
                      seed, env)

    # The program's own runs first, while the harness is still small:
    # one with --report (its counters, and the cost of telemetry)
    # bracketed by two untraced ones, whose mean is the wall everything
    # is attributed against (a single run is off by up to 8 %).
    interp_s = interpreter_start_s(tr, "correct", env, work)
    runs = {}
    for label, extra in (
        ("untraced", ()),
        ("traced", ("--report", str(work / "report.json"))),
        ("untraced2", ()),
    ):
        out = work / f"out-{label}.fastq"
        t0 = time.perf_counter()
        proc = run_process(
            correct_argv(workload, corpus, out, *extra), env,
            work / "ops.log",
        )
        tr.record(f"bench.cli_{label.rstrip('2')}", t0, t0 + proc.wall_s)
        runs[label] = (out, proc)

    core = trace_core_layers(tr, corpus, work)
    metrics = dict(core["metrics"])
    # Which spans sit end to end along this workload's wall.
    top = [
        "bench.interp_start", "io.fastq.parse", "core.reptile.params.select",
        "kmer.spectrum.build", "kmer.tiles.build", "core.reptile.init",
        "core.reptile.correct", "io.fastq.write",
    ]
    if workload.extra_layer == "streaming":
        metrics.update(trace_streaming(tr, corpus, core, work))
        # Three chunked passes: scan, phase 1 (parses as it builds), and
        # the correct pass; phase 1 replaces the in-memory table builds.
        top = [
            "bench.interp_start", "io.fastq.chunk_parse",
            "io.fastq.chunk_parse", "core.reptile.params.select",
            "kmer.streaming.phase1", "core.reptile.init",
            "core.reptile.correct", "io.fastq.write",
        ]
    elif workload.extra_layer == "distributed":
        metrics.update(trace_distributed(tr, core))
        top[top.index("core.reptile.correct")] = (
            "distributed.socket_backend.chunks"
        )
        top.append("distributed.socket_backend.install")
    elif workload.extra_layer == "parallel":
        metrics.update(trace_parallel_engine(tr, core))
        top[top.index("core.reptile.correct")] = "parallel.engine.correct"

    corpus.reference_sha256 = core["sha256"]
    ops = [checked_cli_op(corpus, out, proc) for out, proc in runs.values()]
    failed = [op for op in ops if op.failed]
    untraced_wall = (
        runs["untraced"][1].wall_s + runs["untraced2"][1].wall_s
    ) / 2
    traced_wall = runs["traced"][1].wall_s
    if (work / "report.json").is_file():
        metrics.update(report_counters([work / "report.json"]))
    metrics["bench.interp_start_s"] = interp_s
    metrics["bench.trace_overhead_frac"] = (
        (traced_wall - untraced_wall) / untraced_wall
    )
    metrics["bench.unattributed_frac"] = (
        1.0 - sum(tr.total(name) for name in top) / untraced_wall
    )
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "errors": sorted({op.error for op in failed}),
        "corpora": [corpus.describe()],
        "per_layer": metrics,
        "spans": tr.spans,
    }
