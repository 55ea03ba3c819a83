"""End-to-end service tests: real sockets, warm-store multiplexing,
crash-resume semantics."""

import json
import socket
import threading
import time

import pytest

from repro import api
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.service import (
    EstimationService,
    JobQueue,
    ServiceClient,
    ServiceError,
)

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)

BUDGETS = dict(train_instructions=4_000, max_instructions=6_000, seed=0)


def _request(workload="bitcount", **overrides):
    fields = dict(BUDGETS, workload=workload)
    fields.update(overrides)
    return api.build_request(**fields)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    # ``batch_window_ms=0`` pins the strict job-at-a-time contract these
    # tests assert on (warm-cache multiplexing needs the second job to
    # run *after* the first, not coalesced with it); the batching path
    # has its own suite in test_scheduler.py.
    svc = EstimationService(
        tmp_path_factory.mktemp("service-state"),
        config=SMALL, port=0, workers=1, n_data_samples=32,
        batch_window_ms=0,
    )
    with svc.start_in_thread():
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.port}")


@pytest.mark.slow
class TestEndToEnd:
    def test_three_jobs_over_a_real_socket(self, client):
        """Cold job, identical warm job, different workload — one socket
        round-trip per call, second job trains with zero logic sims."""
        first = client.submit(_request("bitcount"))
        second = client.submit(_request("bitcount"))
        third = client.submit(_request("stringsearch"))
        assert first.state in ("queued", "running")
        assert first.id != second.id != third.id

        cold = client.wait(first.id, timeout=180)
        warm = client.wait(second.id, timeout=180)
        other = client.wait(third.id, timeout=180)

        assert not cold.cache_hit
        assert warm.cache_hit
        assert warm.training_sims == 0, (
            "the second (warm) job must train with zero logic sims"
        )
        assert warm.report.to_json(include_timing=False) == (
            cold.report.to_json(include_timing=False)
        ), "warm result is byte-identical to the cold one"
        assert other.report.to_json()["benchmark"] == "stringsearch"

        status = client.status(second.id)
        assert status.state == "done"
        assert status.attempts == 1
        stage_names = {s["stage"] for s in status.stages}
        assert {"netlist", "datapath", "dta", "estimate"} <= stage_names

        stats = client.store_stats()
        assert stats["entries"]["control"] >= 2
        assert stats["entries"]["windows"] >= 1
        assert stats["stats"]["control"]["hits"] >= 1

    def test_concurrent_tenants_share_the_warm_store(self, client):
        """Two clients submitting overlapping sweeps: every duplicate
        operating point is served warm from the shared store."""
        # A workload no earlier test touched, so the sweep starts cold.
        workload = "dijkstra"
        points = (1.15, 1.10)
        results: dict[str, list] = {"a": [], "b": []}
        errors: list[Exception] = []

        def _tenant(name):
            try:
                own = ServiceClient(f"http://{client.host}:{client.port}")
                jobs = [
                    own.submit(_request(workload, speculation=point))
                    for point in points
                ]
                results[name] = [
                    own.wait(job.id, timeout=300) for job in jobs
                ]
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=_tenant, args=(name,))
            for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=400)
        assert errors == []
        assert len(results["a"]) == len(results["b"]) == 2

        for i, point in enumerate(points):
            pair = [results["a"][i], results["b"][i]]
            cold = [r for r in pair if not r.cache_hit]
            assert len(cold) == 1, (
                f"exactly one tenant pays the training cost at {point}"
            )
            warm = next(r for r in pair if r.cache_hit)
            assert warm.training_sims == 0
            assert warm.report.to_json(include_timing=False) == (
                cold[0].report.to_json(include_timing=False)
            )
        # Window artifacts are period-independent, so across all four
        # jobs only the very first ran any training logic simulation.
        sims = [
            r.training_sims
            for r in results["a"] + results["b"]
        ]
        assert sum(1 for s in sims if s > 0) <= 1

    def test_error_surfaces(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("jdoesnotexist")
        assert err.value.status == 404

        with pytest.raises(ServiceError) as err:
            client._call("POST", "/v1/jobs", {"schema": 2, "nope": 1})
        assert err.value.status == 400
        assert "nope" in str(err.value)

        with pytest.raises(ServiceError) as err:
            client._call("POST", "/v1/jobs", {
                "schema": 2, "workload": "bitcount", "specluation": 1.1,
            })
        assert err.value.status == 400
        assert "speculation" in str(err.value)

        with pytest.raises(ServiceError) as err:
            client._call("GET", "/v1/nothing/here")
        assert err.value.status == 404

    def test_failed_job_reports_traceback(self, client, service):
        # Bypass submit-side validation to enqueue an unknown workload:
        # execution fails, the job lands in 'failed' with a traceback.
        job_id = service.queue.submit({
            "schema": 2,
            "kind": "estimation-request",
            "workload": "definitely-not-a-workload",
        })
        from repro.service.client import JobFailed

        with pytest.raises(JobFailed, match="definitely-not-a-workload"):
            client.wait(job_id, timeout=60)
        status = client.status(job_id)
        assert status.state == "failed"
        assert "Traceback" in status.error

    def test_multi_point_job_runs_as_one_grid(self, client):
        """A schema-3 multi-point submit returns one result carrying a
        report per operating point, identical to single-point jobs."""
        points = (1.08, 1.16)
        sweep = [
            _request("basicmath", speculation=point) for point in points
        ]
        job = client.submit(sweep)
        combined = client.wait(job.id, timeout=300)
        assert combined.reports is not None
        assert len(combined.all_reports) == 2
        assert combined.report.to_json() == (
            combined.all_reports[0].to_json()
        )

        singles = [
            client.wait(client.submit(request).id, timeout=300)
            for request in sweep
        ]
        for grid_report, single in zip(combined.all_reports, singles):
            assert grid_report.to_json(include_timing=False) == (
                single.report.to_json(include_timing=False)
            )
        # The grid warmed the store: both follow-up jobs were cache hits.
        assert all(single.cache_hit for single in singles)

    def test_health_and_listing(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["jobs"]["done"] >= 3
        listed = client.jobs()
        assert len(listed) >= 3
        assert all(s.request["workload"] for s in listed)

    def test_metrics_count_jobs_per_family(self, client):
        metrics = client.metrics()
        by_family = metrics["jobs_by_family"]
        inorder_before = by_family.get("inorder6", 0)
        assert inorder_before >= 3  # the jobs the tests above completed
        assert by_family.get("ooo-tomasulo", 0) == 0

        status = client.submit(_request(core_family="ooo-tomasulo"))
        result = client.wait(status.id, timeout=300.0)
        assert result.report.error_rate_mean >= 0.0
        by_family = client.metrics()["jobs_by_family"]
        assert by_family["ooo-tomasulo"] == 1
        assert by_family["inorder6"] >= inorder_before


@pytest.mark.slow
class TestConcurrentWindowWorkers:
    def test_threaded_jobs_with_window_workers_match_serial(
        self, tmp_path
    ):
        """Two jobs on two worker threads: the reports must stay
        byte-identical to plain serial pipeline runs."""
        from repro.pipeline.pipeline import EstimationPipeline

        requests = [_request("bitcount"), _request("stringsearch")]
        serial = {}
        for request in requests:
            pipe = EstimationPipeline(
                SMALL, store=None, n_data_samples=32
            )
            serial[request.workload_name] = pipe.run(request).to_json(
                include_timing=False
            )

        service = EstimationService(
            tmp_path / "svc",
            config=SMALL, port=0, workers=2, n_data_samples=32,
        )
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            jobs = [client.submit(request) for request in requests]
            done = [client.wait(job.id, timeout=300) for job in jobs]
        for request, result in zip(requests, done):
            assert result.report.to_json(include_timing=False) == (
                serial[request.workload_name]
            )


@pytest.mark.slow
class TestConcurrentDerivedPoints:
    def test_two_threads_at_two_points_match_serial(self, tmp_path):
        """Two worker threads run jobs at two non-base operating points
        of one new processor, so both register paths on its one shared
        control analyzer at once; the reports must stay byte-identical
        to serial runs on an independently built processor."""
        import dataclasses

        from repro.pipeline.pipeline import EstimationPipeline

        # A configuration no other test builds: the service starts from
        # a fresh base processor whose analyzer both threads fill.
        config = dataclasses.replace(SMALL, paths_per_endpoint=10)
        requests = [
            _request(speculation=1.05),
            _request(speculation=1.27),
        ]
        service = EstimationService(
            tmp_path / "svc",
            config=config, port=0, workers=2, n_data_samples=32,
            batch_window_ms=0,
        )
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            jobs = [client.submit(request) for request in requests]
            done = [client.wait(job.id, timeout=300) for job in jobs]
        serial = EstimationPipeline(config.build(), n_data_samples=32)
        for request, result in zip(requests, done):
            expected = serial.execute(request).report
            assert result.report.to_json(include_timing=False) == (
                expected.to_json(include_timing=False)
            )


@pytest.mark.slow
class TestCrashResume:
    def test_sigkilled_server_resumes_its_queue(self, tmp_path):
        """A server killed mid-job requeues it on restart; nothing is
        lost and nothing runs (or reports) twice."""
        state = tmp_path / "svc"
        state.mkdir()
        queue = JobQueue(state / "queue.db")
        doc = api.request_to_json(_request("bitcount"))
        killed_id = queue.submit(doc)
        queue.claim("w0")  # the job was running when the SIGKILL landed
        queued_id = queue.submit(dict(doc, seed=1))
        queue.close()

        service = EstimationService(
            state, config=SMALL, port=0, workers=1, n_data_samples=32
        )
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            recovered = client.wait(killed_id, timeout=180)
            follower = client.wait(queued_id, timeout=180)

            status = client.status(killed_id)
            assert status.attempts == 2, "one lost attempt, one real run"
            assert recovered.report.to_json()["benchmark"] == "bitcount"
            # The follower shares the store the recovered job warmed.
            assert follower.cache_hit
            assert follower.training_sims == 0

            counts = client.health()["jobs"]
            assert counts["done"] == 2
            assert counts["queued"] == 0
            assert counts["running"] == 0
            assert counts["failed"] == 0


class TestRequestParsing:
    """Wire-level checks that need no estimation run."""

    def test_raw_socket_speaks_http(self, client, service):
        import socket

        with socket.create_connection(
            ("127.0.0.1", service.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            payload = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                payload += chunk
        head, _, body = payload.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"application/json" in head
        assert json.loads(body)["ok"] is True

    def test_malformed_json_body_is_400(self, client, service):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=10
        )
        try:
            conn.request(
                "POST", "/v1/jobs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"JSON" in response.read()
        finally:
            conn.close()

    def test_method_not_allowed(self, client):
        with pytest.raises(ServiceError) as err:
            client._call("DELETE", "/v1/jobs")
        assert err.value.status == 405


def _free_port() -> int:
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestClientRetry:
    """Bounded transient-error retry in :meth:`ServiceClient._call`."""

    def test_retry_survives_server_starting_late(self, tmp_path):
        """The client is pointed at a port with nothing listening; the
        server comes up mid-retry and the call succeeds anyway."""
        port = _free_port()
        service = EstimationService(
            tmp_path / "svc", config=SMALL, port=port, workers=1,
            n_data_samples=32,
        )
        handle = None

        def _boot_late():
            nonlocal handle
            time.sleep(0.25)
            handle = service.start_in_thread()

        booter = threading.Thread(target=_boot_late)
        client = ServiceClient(
            f"http://127.0.0.1:{port}", retries=10, retry_backoff=0.05
        )
        booter.start()
        try:
            health = client.health()
        finally:
            booter.join()
            if handle is not None:
                handle.stop()
        assert health["ok"] is True

    def test_zero_retries_fails_fast(self):
        port = _free_port()
        client = ServiceClient(f"http://127.0.0.1:{port}", retries=0)
        with pytest.raises(ConnectionRefusedError):
            client.health()

    def test_backoff_schedule_and_budget(self, monkeypatch):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=3, retry_backoff=0.05
        )
        sleeps: list[float] = []
        attempts: list[int] = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", sleeps.append
        )

        def _refused(*args, **kwargs):
            attempts.append(1)
            raise ConnectionRefusedError

        monkeypatch.setattr(client, "_call_once", _refused)
        with pytest.raises(ConnectionRefusedError):
            client.health()
        assert len(attempts) == 4  # initial try + 3 retries
        assert len(sleeps) == 3
        # Exponential base doubling with jitter factor in [0.5, 1.5).
        for i, slept in enumerate(sleeps):
            base = 0.05 * (2 ** i)
            assert 0.5 * base <= slept < 1.5 * base

    def test_server_errors_are_not_retried(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1", retries=5)
        calls: list[int] = []

        def _busy(*args, **kwargs):
            calls.append(1)
            raise ServiceError(503, "busy")

        monkeypatch.setattr(client, "_call_once", _busy)
        with pytest.raises(ServiceError):
            client.health()
        assert len(calls) == 1

    def test_invalid_retry_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", retry_backoff=0.0)
