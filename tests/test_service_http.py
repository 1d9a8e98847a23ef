"""HTTP/JSON job API: round trips, error codes, rate limits, chaos.

Three layers under test together, because their contract is shared:
the :class:`ServiceAPI` verbs, the HTTP handler routing them, and the
:class:`JobsClient` speaking ``repro-job/1`` envelopes back.  The CLI
byte-compat tests pin the promise that ``repro jobs`` output is
identical whether it talks to a spool in-process (``--spool``) or a
live server (``--url``).

The chaos test at the bottom SIGKILLs a real ``serve-http`` process
*mid-job* (scripted fault point), restarts it on the same spool, and
requires the client's poll loop to ride through to a byte-identical
result — the HTTP layer must add zero new crash surface.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.service import spec as wire
from repro.service.client import (
    HTTPTransport,
    JobsClient,
    LocalTransport,
    ServiceError,
    TransportError,
)
from repro.service.http import JobsHTTPServer, ServiceAPI
from repro.service.pool import SpectrumPool
from repro.service.spec import JobSpec
from repro.service.tenants import TenantRateLimiter
from repro.service.worker import ServeWorker
from repro.tools.correct import main as correct_main
from repro.tools.simulate import main as simulate_main

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("http-data")
    rc = simulate_main([
        str(out), "--genome-length", "2000", "--coverage", "8",
        "--seed", "7",
    ])
    assert rc == 0
    return out / "reads.fastq"


class _Server:
    """In-process serve-http on an ephemeral port (no subprocess)."""

    def __init__(self, spool, **api_kwargs):
        self.api = ServiceAPI(spool, **api_kwargs)
        self.server = JobsHTTPServer(("127.0.0.1", 0), self.api)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.api.close()


@pytest.fixture
def server(tmp_path):
    srv = _Server(tmp_path / "spool", pool=SpectrumPool())
    yield srv
    srv.close()


def _drain(spool, pool=None, n=1):
    worker = ServeWorker(
        spool, poll_seconds=0.01, pool=pool or SpectrumPool()
    )
    try:
        assert worker.run(max_jobs=n) == 0
    finally:
        worker.store.close()


def _spec(dataset, out, **kw):
    kw.setdefault("chunk_size", 256)
    return JobSpec(input=str(dataset), output=str(out), **kw)


class TestHttpRoundTrip:
    def test_submit_poll_fetch(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        out = tmp_path / "corrected.fastq"
        job = client.submit(_spec(dataset, out), tenant="acme")
        assert job.state == "pending" and job.tenant == "acme"

        _drain(tmp_path / "spool")
        done = client.wait(job.id, timeout=30, poll=0.05)
        assert done.state == "succeeded"
        assert done.result["pool_hit"] == 0

        fetched = tmp_path / "fetched.fastq"
        client.result(job.id, fetched)
        direct = tmp_path / "direct.fastq"
        rc = correct_main([
            str(dataset), str(direct), "--chunk-size", "256",
        ])
        assert rc == 0
        assert fetched.read_bytes() == direct.read_bytes()

        assert client.health()["succeeded"] == 1
        metrics = client.metrics()
        assert metrics["counters"]["tenants.submitted"] == 1
        assert metrics["gauges"]["jobs_succeeded"] == 1.0

    def test_raw_envelopes_validate(self, server, dataset, tmp_path):
        transport = HTTPTransport(server.url)
        client = JobsClient(transport)
        job = client.submit(_spec(dataset, tmp_path / "o.fastq"))
        for envelope in (
            transport.get(job.id),
            transport.list(),
            transport.list(state="pending", tenant="default"),
            transport.health(),
            transport.metrics(),
        ):
            assert wire.validate_envelope_dict(envelope) == []

    def test_list_filters(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        client.submit(_spec(dataset, tmp_path / "a.fastq"), tenant="a")
        client.submit(_spec(dataset, tmp_path / "b.fastq"), tenant="b")
        jobs, counts = client.list(tenant="a")
        assert len(jobs) == 1 and jobs[0].tenant == "a"
        assert counts["pending"] == 2
        jobs, _ = client.list(state="succeeded")
        assert jobs == []

    def test_cancel_and_retry(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        job = client.submit(_spec(dataset, tmp_path / "o.fastq"))
        cancelled = client.cancel(job.id)
        assert cancelled.state == "cancelled"
        requeued = client.retry(job.id)
        assert requeued.state == "pending"


class TestHttpErrors:
    def test_unknown_job_404(self, server):
        client = JobsClient(HTTPTransport(server.url))
        with pytest.raises(ServiceError) as e:
            client.get("job-999999")
        assert e.value.status == 404 and e.value.code == "not-found"

    def test_unknown_path_404(self, server):
        with pytest.raises(ServiceError) as e:
            HTTPTransport(server.url)._json("GET", "/v2/nope")
        assert e.value.status == 404

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as e:
            urllib.request.urlopen(req)
        assert e.value.code == 400
        body = json.loads(e.value.read())
        assert body["error"]["code"] == "invalid-json"
        e.value.close()

    def test_invalid_envelope_400(self, server):
        with pytest.raises(ServiceError) as e:
            HTTPTransport(server.url)._json(
                "POST", "/v1/jobs", {"schema": "repro-job/1"}
            )
        assert e.value.status == 400 and e.value.code == "invalid-request"

    def test_result_before_success_409(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        job = client.submit(_spec(dataset, tmp_path / "o.fastq"))
        with pytest.raises(ServiceError) as e:
            client.result(job.id, tmp_path / "nope.fastq")
        assert e.value.status == 409 and e.value.code == "not-ready"
        assert not (tmp_path / "nope.fastq").exists()

    def test_retry_pending_409(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        job = client.submit(_spec(dataset, tmp_path / "o.fastq"))
        with pytest.raises(ServiceError) as e:
            client.retry(job.id)
        assert e.value.status == 409 and e.value.code == "not-retryable"

    def test_duplicate_job_id_409(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        job = client.submit(
            _spec(dataset, tmp_path / "o.fastq"), job_id="job-000042"
        )
        assert job.id == "job-000042"
        with pytest.raises(ServiceError) as e:
            client.submit(
                _spec(dataset, tmp_path / "o2.fastq"), job_id="job-000042"
            )
        assert e.value.status == 409 and e.value.code == "conflict"


class TestRateLimiting:
    def test_429_after_burst(self, dataset, tmp_path):
        srv = _Server(
            tmp_path / "spool",
            rate_limiter=TenantRateLimiter(rate=0.0, burst=2.0),
        )
        try:
            client = JobsClient(HTTPTransport(srv.url))
            client.submit(_spec(dataset, tmp_path / "a.fastq"), tenant="t1")
            client.submit(_spec(dataset, tmp_path / "b.fastq"), tenant="t1")
            with pytest.raises(ServiceError) as e:
                client.submit(
                    _spec(dataset, tmp_path / "c.fastq"), tenant="t1"
                )
            assert e.value.status == 429
            assert e.value.code == "rate-limited"
            # Tenant buckets are independent: t2 still admits.
            other = client.submit(
                _spec(dataset, tmp_path / "d.fastq"), tenant="t2"
            )
            assert other.state == "pending"
            metrics = client.metrics()
            assert metrics["counters"]["tenants.throttled"] == 1
            assert metrics["counters"]["tenants.submitted"] == 3
        finally:
            srv.close()


class TestClientTransports:
    def test_retries_connection_refused_with_backoff(self):
        sleeps = []
        transport = HTTPTransport(
            "http://127.0.0.1:9",  # discard port: nothing listens
            retries=2,
            backoff=0.1,
            timeout=0.5,
            sleep=sleeps.append,
        )
        with pytest.raises(TransportError):
            JobsClient(transport).health()
        assert sleeps == [0.1, 0.2], "exponential backoff expected"

    def test_no_retry_on_4xx(self, server):
        sleeps = []
        transport = HTTPTransport(server.url, retries=3, sleep=sleeps.append)
        with pytest.raises(ServiceError):
            JobsClient(transport).get("job-999999")
        assert sleeps == [], "4xx must not be retried"

    def test_local_transport_matches_http(self, server, dataset, tmp_path):
        http_client = JobsClient(HTTPTransport(server.url))
        local_client = JobsClient(LocalTransport(server.api))
        job = http_client.submit(_spec(dataset, tmp_path / "o.fastq"))
        via_http = http_client.get(job.id)
        via_local = local_client.get(job.id)
        assert via_http.raw == via_local.raw


class TestCliByteCompat:
    """`repro jobs` output is identical across --spool/--url."""

    @pytest.fixture
    def populated(self, dataset, tmp_path):
        from repro.service.cli import main as jobs_main

        spool = tmp_path / "spool"
        out = tmp_path / "corrected.fastq"
        rc = jobs_main([
            "--spool", str(spool), "submit", str(dataset), str(out),
            "--chunk-size", "256",
        ])
        assert rc == 0
        _drain(spool)
        jobs_main([
            "--spool", str(spool), "submit", str(dataset),
            str(tmp_path / "pending.fastq"),
        ])
        return spool

    def _outputs(self, argv_variants, verb_args):
        from repro.service.cli import main as jobs_main

        outs = []
        for base in argv_variants:
            import io
            from contextlib import redirect_stdout

            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = jobs_main([*base, *verb_args])
            assert rc == 0
            outs.append(buf.getvalue())
        return outs

    def test_status_json_identical(self, populated, tmp_path):
        srv = _Server(populated)
        try:
            variants = [
                ["--spool", str(populated)],
                ["--url", srv.url],
            ]
            outs = self._outputs(variants, ["status", "job-000001", "--json"])
            assert outs[0] == outs[1]
        finally:
            srv.close()

    def test_list_identical(self, populated):
        srv = _Server(populated)
        try:
            variants = [
                ["--spool", str(populated)],
                ["--url", srv.url],
            ]
            for verb in (["list"], ["list", "--json"],
                         ["list", "--state", "pending"]):
                outs = self._outputs(variants, verb)
                assert outs[0] == outs[1], verb
        finally:
            srv.close()

    def test_errors_and_verbs_match_old_cli(self, populated, capsys):
        from repro.service.cli import main as jobs_main

        base = ["--spool", str(populated)]
        assert jobs_main([*base, "status", "job-999999"]) == 1
        assert capsys.readouterr().err == "no such job: job-999999\n"
        assert jobs_main([*base, "retry", "job-000002"]) == 1
        assert capsys.readouterr().err == (
            "job-000002: not retryable (must exist and be "
            "failed/cancelled)\n"
        )
        assert jobs_main([*base, "cancel", "job-000002"]) == 0
        assert capsys.readouterr().out == "job-000002 cancelled\n"
        assert jobs_main([*base, "retry", "job-000002"]) == 0
        assert capsys.readouterr().out == "job-000002 requeued\n"

    def test_result_verb_over_url(self, populated, tmp_path, capsys):
        from repro.service.cli import main as jobs_main

        srv = _Server(populated)
        try:
            dest = tmp_path / "dl.fastq"
            rc = jobs_main([
                "--url", srv.url, "result", "job-000001", str(dest),
            ])
            assert rc == 0
            assert dest.read_bytes() == (
                tmp_path / "corrected.fastq"
            ).read_bytes()
        finally:
            srv.close()

    def test_submit_rejects_stream_non_reptile(self, populated, capsys):
        from repro.service.cli import main as jobs_main

        rc = jobs_main([
            "--spool", str(populated), "submit", "in.fastq", "out.fastq",
            "--stream", "--method", "sap",
        ])
        assert rc == 2
        assert "--stream supports" in capsys.readouterr().err


class TestWarmPoolOverHttp:
    def test_repeat_job_hits_pool(self, server, dataset, tmp_path):
        client = JobsClient(HTTPTransport(server.url))
        spool = tmp_path / "spool"
        pool = SpectrumPool()
        first = client.submit(_spec(dataset, tmp_path / "a.fastq"))
        second = client.submit(_spec(dataset, tmp_path / "b.fastq"))
        worker = ServeWorker(spool, poll_seconds=0.01, pool=pool)
        try:
            assert worker.run(max_jobs=2) == 0
        finally:
            worker.store.close()
        assert client.wait(first.id, timeout=30).result["pool_hit"] == 0
        assert client.wait(second.id, timeout=30).result["pool_hit"] == 1
        stats = pool.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert (tmp_path / "a.fastq").read_bytes() == (
            tmp_path / "b.fastq"
        ).read_bytes()


@pytest.mark.chaos
@pytest.mark.slow
class TestHttpChaos:
    def _start_server(self, spool, ready, fault_points=None, lease="1.5"):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAULT_POINTS", None)
        if fault_points is not None:
            env["REPRO_FAULT_POINTS"] = fault_points
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-http",
                "--spool", str(spool),
                "--port", "0",
                "--ready-file", str(ready),
                "--serve-workers", "1",
                "--lease-seconds", lease,
                "--poll-seconds", "0.05",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 30
        while not ready.exists():
            if proc.poll() is not None:
                raise AssertionError(
                    f"server died before ready: {proc.stdout.read()}"
                )
            if time.monotonic() > deadline:
                proc.kill()
                raise AssertionError("server never became ready")
            time.sleep(0.05)
        return proc, ready.read_text().strip()

    def test_sigkill_mid_job_then_restart_completes(
        self, dataset, tmp_path
    ):
        spool = tmp_path / "spool"
        out = tmp_path / "corrected.fastq"

        # Server 1 is scripted to die (SIGKILL-equivalent, whole
        # process) the moment its embedded worker finishes fitting —
        # mid-job, lease held, nothing published.
        proc, url = self._start_server(
            spool, tmp_path / "ready1.txt",
            fault_points="service.fitted=kill@1",
        )
        client = JobsClient(
            HTTPTransport(url, retries=3, backoff=0.2, timeout=10)
        )
        job = client.submit(_spec(dataset, out))
        assert proc.wait(timeout=60) != 0, "fault point must kill server"
        assert not out.exists(), "no partial artifact may be visible"

        # Server 2 on the same spool: the lease lapses, the job is
        # reaped and re-run, and the client's poll loop sees success.
        proc2, url2 = self._start_server(spool, tmp_path / "ready2.txt")
        try:
            client2 = JobsClient(
                HTTPTransport(url2, retries=5, backoff=0.25, timeout=10)
            )
            done = client2.wait(job.id, timeout=120, poll=0.2)
            assert done.state == "succeeded"
            assert done.attempts == 2, "restart must be attempt 2"

            fetched = tmp_path / "fetched.fastq"
            client2.result(job.id, fetched)
            direct = tmp_path / "direct.fastq"
            rc = correct_main([
                str(dataset), str(direct), "--chunk-size", "256",
            ])
            assert rc == 0
            assert fetched.read_bytes() == direct.read_bytes(), (
                "post-crash result must be byte-identical to a direct run"
            )
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc2.kill()
                proc2.wait(timeout=10)
