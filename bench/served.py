"""``served_jobs``: a closed loop of two clients against one ``serve-http``.

Set-up simulates four small corpora, computes each one's reference bytes
with the serial CLI, starts ``repro serve-http --port 0 --serve-workers
1`` and submits every input once (the spectrum pool's misses).  The
timed phase is a closed loop: each of two client threads does submit →
``wait(poll=0.02)`` → ``result`` and only then sends its next job,
round-robin over the four inputs, until the window closes.  Results are
hashed against the references after the loop, outside the timed window.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from harness import (
    ROOT,
    BenchError,
    Corpus,
    child_env,
    kill_group,
    median,
    percentile,
    reference_run,
    repro_argv,
    rusage_cpu_rss,
    sha256_file,
    simulate,
)
from workloads import CORPORA, SERVED

N_CORPORA = 4
N_CLIENTS = 2
POLL_S = 0.02
JOB_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``repro serve-http`` subprocess, torn down terminate → kill."""

    def __init__(self, work: Path, env: dict[str, str]) -> None:
        self.work = work
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.peak_rss_mb = 0.0

    def start(self) -> None:
        """Spawn and wait for the ready file."""
        ready = self.work / "ready"
        t0 = time.perf_counter()
        with open(self.work / "server.log", "ab") as sink:
            self.proc = subprocess.Popen(
                repro_argv(
                    "serve-http", "--spool", str(self.work / "spool"),
                    "--port", "0", "--ready-file", str(ready),
                    "--serve-workers", "1",
                ),
                env=self.env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
                stdout=sink, stderr=subprocess.STDOUT, start_new_session=True,
            )
        while not ready.is_file():
            if self.proc.poll() is not None:
                raise BenchError(
                    f"serve-http exited with {self.proc.returncode} before "
                    f"it was ready; see {self.work / 'server.log'}"
                )
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                raise BenchError("serve-http not ready in time")
            time.sleep(0.01)
        self.url = ready.read_text().strip()

    def cpu_seconds(self) -> float:
        """user+sys of the live server process so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def stop(self) -> None:
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15.0
        ru = None
        while time.monotonic() < deadline:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            time.sleep(0.02)
        else:
            kill_group(proc.pid, grace_s=0.0)
            _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        kill_group(proc.pid, grace_s=0.5)
        self.peak_rss_mb = rusage_cpu_rss(ru)[1]


@dataclass
class Job:
    index: int
    corpus: int
    start: float
    end: float
    dest: Path
    state: str | None
    result: dict | None
    error: str | None

    @property
    def latency(self) -> float:
        return self.end - self.start


def _make_corpora(seed: int, scale: str, work: Path, env: dict) -> list[Corpus]:
    """Simulate + reference-run the four inputs, two at a time (set-up
    may use both cores; the timed phase never shares the machine)."""

    def build(i: int) -> Corpus:
        corpus = simulate(
            work, f"job{i}", CORPORA[scale]["job"], seed * 1000 + i, env
        )
        reference_run(corpus, work, env)
        return corpus

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(build, range(N_CORPORA)))


def _run_job(client, spec, dest: Path, tr) -> tuple[str, dict | None]:
    """submit → wait → result.  With a tracer the wait loop is spelled
    out so each HTTP call and each state change gets its own span."""
    if tr is None:
        job = client.submit(spec)
        job = client.wait(job.id, timeout=JOB_TIMEOUT_S, poll=POLL_S)
        if job.state == "succeeded":
            client.result(job.id, dest)
        return job.state, job.result
    with tr.span("service.job"):
        with tr.span("service.http.submit"):
            job = client.submit(spec)
        ack = time.perf_counter()
        running_at = None
        while True:
            with tr.span("service.http.get_job"):
                job = client.get(job.id)
            now = time.perf_counter()
            if running_at is None and job.state != "pending":
                running_at = now
            if job.done:
                break
            if now - ack > JOB_TIMEOUT_S:
                raise TimeoutError(f"{job.id} still {job.state}")
            time.sleep(POLL_S)
        tr.record("service.worker.claim_wait", ack, running_at)
        tr.record("service.worker.exec", running_at, now)
        if job.state == "succeeded":
            with tr.span("service.http.result"):
                client.result(job.id, dest)
    return job.state, job.result


def _closed_loop(
    url: str, corpora: list[Corpus], work: Path, tag: str,
    seconds: float | None, tr=None, reports: bool = False,
) -> tuple[list[Job], float]:
    """Run the two-client closed loop for ``seconds`` (or, with None,
    one pass over the inputs from a single client: the cold jobs)."""
    from repro.service.client import (
        HTTPTransport,
        JobsClient,
        ServiceError,
        TransportError,
    )
    from repro.service.spec import JobSpec

    jobs: list[Job] = []
    lock = threading.Lock()
    t_start = time.perf_counter()
    deadline = None if seconds is None else t_start + seconds
    n_clients = 1 if seconds is None else N_CLIENTS

    def client_loop(cid: int) -> None:
        client = JobsClient(HTTPTransport(url))
        i = cid
        while i < N_CORPORA if deadline is None else (
            time.perf_counter() < deadline
        ):
            corpus = i % N_CORPORA
            dest = work / f"result-{tag}-{i}.fastq"
            spec = JobSpec(
                input=str(corpora[corpus].reads),
                output=str(work / f"served-{tag}-{i}.fastq"),
                report=str(work / f"report-{tag}-{i}.json") if reports else None,
            )
            state = result = error = None
            t0 = time.perf_counter()
            try:
                state, result = _run_job(client, spec, dest, tr)
            except (ServiceError, TransportError, TimeoutError, OSError) as e:
                error = f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            with lock:
                jobs.append(
                    Job(i, corpus, t0, t1, dest, state, result, error)
                )
            i += n_clients

    threads = [
        threading.Thread(target=client_loop, args=(cid,))
        for cid in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(jobs, key=lambda j: j.index), time.perf_counter() - t_start


def _check(jobs: list[Job], corpora: list[Corpus]) -> list[Job]:
    """Mark every job whose state or bytes are wrong; returns the good ones."""
    good = []
    for job in jobs:
        if job.error is None:
            if job.state != "succeeded":
                job.error = f"job ended {job.state}"
            elif not job.dest.is_file():
                job.error = "no result file"
            elif sha256_file(job.dest) != corpora[job.corpus].reference_sha256:
                job.error = "result differs from the serial in-memory reference"
        if job.error is None:
            good.append(job)
    return good


def _mean_gain(good: list[Job], corpora: list[Corpus]) -> float:
    by_corpus = {job.corpus: job for job in good}
    gains = [
        corpora[c].gain(job.dest, corpora[c].reference_sha256)
        for c, job in sorted(by_corpus.items())
    ]
    return sum(gains) / len(gains)


def run_served(
    seed: int, seconds: float, scale: str, work: Path, traced: bool
) -> dict:
    env = child_env(work / "tmp")
    t_setup = time.perf_counter()
    corpora = _make_corpora(seed, scale, work, env)
    server = Server(work, env)
    try:
        server.start()
        cold, _ = _closed_loop(server.url, corpora, work, "cold", None)
        setup_s = time.perf_counter() - t_setup
        if traced:
            return _traced_phase(server, corpora, cold, seconds, work, env)
        cpu0 = server.cpu_seconds()
        jobs, wall = _closed_loop(server.url, corpora, work, "timed", seconds)
        cpu = server.cpu_seconds() - cpu0
    finally:
        server.stop()
    good = _check(jobs, corpora)
    cold_good = _check(cold, corpora)
    if not good:
        raise BenchError(
            f"{SERVED}: every job failed ({jobs[-1].error if jobs else 'none ran'})"
        )
    lat = [j.latency for j in good]
    reads = sum(corpora[j.corpus].n_reads for j in good)
    bad = [j for j in (*jobs, *cold) if j.error is not None]
    return {
        "attempted": len(jobs) + len(cold),
        "failed": len(bad),
        "errors": sorted({j.error for j in bad}),
        "corpora": [c.describe() for c in corpora],
        "samples": {"job_latency_s": len(lat), "cold_jobs": len(cold_good)},
        "end_to_end": {
            "reads_per_s": (reads / wall, []),
            "peak_rss_mb": (server.peak_rss_mb, []),
            # CPU of the serve-http process per completed job.
            "cpu_s": (cpu / len(good), []),
            "gain": (_mean_gain(good, corpora), []),
            "jobs_per_s": (len(good) / wall, []),
            # No per-run samples: the spread of job latencies is the
            # distribution itself, not run-to-run noise of its quantiles.
            "job_latency_p50_s": (median(lat), []),
            "job_latency_p90_s": (percentile(lat, 0.9), []),
            "setup_s": (setup_s, [setup_s]),
        },
    }


# -- traced run ---------------------------------------------------------------
def _store_rates(work: Path, cycles: int = 200) -> dict:
    """``JobStore`` alone: fsynced submit, then claim + renew + finish."""
    from repro.service import JobStore
    from repro.service.spec import JobSpec

    spec = JobSpec(input="in.fastq", output="out.fastq")
    with JobStore(work / "storebench.sqlite3") as store:
        t0 = time.perf_counter()
        for _ in range(cycles):
            store.submit(spec)
        t1 = time.perf_counter()
        for _ in range(cycles):
            job = store.claim("bench", lease_seconds=60)
            store.renew(job.id, "bench", lease_seconds=60)
            store.finish(job.id, "bench", {"ok": True})
        t2 = time.perf_counter()
    return {
        "service.store.submit_per_s": cycles / (t1 - t0),
        "service.store.claim_finish_per_s": cycles / (t2 - t1),
    }


def _traced_phase(
    server: Server, corpora: list[Corpus], cold: list[Job], seconds: float,
    work: Path, env: dict,
) -> dict:
    """Half the window untraced, half with client-side spans; then the
    store and the fit-side layers on their own."""
    from layers import (
        Tracer,
        interpreter_start_s,
        report_counters,
        trace_core_layers,
    )

    tr = Tracer(SERVED)
    plain, plain_wall = _closed_loop(
        server.url, corpora, work, "plain", seconds / 2
    )
    jobs, wall = _closed_loop(
        server.url, corpora, work, "traced", seconds / 2, tr=tr, reports=True
    )
    server.stop()
    good = _check(jobs, corpora)
    plain_good = _check(plain, corpora)
    cold_good = _check(cold, corpora)
    if not good or not plain_good or not cold_good:
        raise BenchError(f"{SERVED}: a traced phase completed no job")

    # One report per distinct input, so the counts repeat exactly on a
    # seed however many jobs the window happened to fit.
    reports = [
        work / f"report-traced-{job.index}.json"
        for job in {job.corpus: job for job in reversed(good)}.values()
    ]
    metrics = report_counters([r for r in reports if r.is_file()])
    metrics.update(_store_rates(work))
    # The fit the warm pool bypasses, measured on one of the inputs; its
    # in-process bytes must equal the CLI reference for that input.
    core = trace_core_layers(tr, corpora[0], work)
    metrics.update(core["metrics"])
    layer_mismatch = core["sha256"] != corpora[0].reference_sha256

    result_bytes = sum(j.dest.stat().st_size for j in good)
    latency = sum(j.latency for j in good)
    attributed = sum(
        tr.total(n) for n in (
            "service.http.submit", "service.worker.claim_wait",
            "service.worker.exec", "service.http.result",
        )
    )
    per_job = wall / len(good)
    per_job_plain = plain_wall / len(plain_good)
    metrics.update({
        "service.http.submit_s": median(tr.durations("service.http.submit")),
        "service.http.get_job_s": median(tr.durations("service.http.get_job")),
        "service.http.result_mb_per_s": (
            result_bytes / 1e6 / tr.total("service.http.result")
        ),
        "service.worker.claim_wait_s": median(
            tr.durations("service.worker.claim_wait")
        ),
        "service.worker.exec_s": median(tr.durations("service.worker.exec")),
        "service.pool.cold_job_s": median([j.latency for j in cold_good]),
        "service.pool.hit_frac": (
            sum(int((j.result or {}).get("pool_hit", 0)) for j in good)
            / len(good)
        ),
        "bench.interp_start_s": interpreter_start_s(
            tr, "serve-http", env, work
        ),
        "bench.trace_overhead_frac": (per_job - per_job_plain) / per_job_plain,
        "bench.unattributed_frac": 1.0 - attributed / latency,
    })
    every = (*cold, *plain, *jobs)
    bad = [j for j in every if j.error is not None]
    errors = {j.error for j in bad}
    if layer_mismatch:
        errors.add("in-process layer output differs from the CLI reference")
    return {
        "attempted": len(every) + 1,
        "failed": len(bad) + int(layer_mismatch),
        "errors": sorted(errors),
        "corpora": [c.describe() for c in corpora],
        "per_layer": metrics,
        "spans": tr.spans,
    }
