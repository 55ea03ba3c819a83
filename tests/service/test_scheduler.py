"""Micro-batching scheduler tests: grouping, fan-out determinism,
mixed-traffic isolation, and the metrics surface."""

import threading

import pytest

from repro import api
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.service import (
    EstimationService,
    ServiceClient,
    batch_key,
    form_batches,
)
from repro.service.scheduler import SchedulerStats, execute_batch_jobs

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


def _doc(workload="bitcount", **overrides):
    return api.request_to_json(_request(workload, **overrides))


def _claimed(docs):
    """(job_id, doc, submitted_at) triples the queue would hand back."""
    return [(f"j{i}", doc, float(i)) for i, doc in enumerate(docs)]


class TestBatchKey:
    def test_operating_point_is_excluded(self):
        a = batch_key(_doc(speculation=1.05))
        b = batch_key(_doc(speculation=1.20))
        c = batch_key(api.grid_request_to_json(
            [_request(speculation=s) for s in (1.05, 1.20)]
        ))
        assert a == b == c

    def test_everything_else_is_identity(self):
        base = batch_key(_doc())
        assert batch_key(_doc(seed=1)) != base
        assert batch_key(_doc("stringsearch")) != base
        assert batch_key(_doc(train_instructions=5_000)) != base

    def test_core_family_splits_the_key(self):
        # Identical jobs on different core families must never share a
        # grid: the wire doc always carries core_family (schema 4), so
        # the key differs even though the operating point matches.
        inorder = _doc(speculation=1.05)
        ooo = _doc(speculation=1.05, core_family="ooo-tomasulo")
        assert inorder["core_family"] == "inorder6"
        assert ooo["core_family"] == "ooo-tomasulo"
        assert batch_key(inorder) != batch_key(ooo)

    def test_mixed_family_jobs_never_coalesce(self):
        docs = [
            _doc(speculation=1.05),
            _doc(speculation=1.10, core_family="ooo-tomasulo"),
            _doc(speculation=1.10),
            _doc(speculation=1.05, core_family="ooo-tomasulo"),
        ]
        batches = form_batches(_claimed(docs), max_points=16)
        assert len(batches) == 2
        for batch in batches:
            families = {doc["core_family"] for _, doc in batch.jobs}
            assert len(families) == 1


class TestFormBatches:
    def test_compatible_jobs_coalesce_in_claim_order(self):
        docs = [
            _doc(speculation=1.05),
            _doc("stringsearch"),
            _doc(speculation=1.20),
        ]
        batches = form_batches(_claimed(docs), max_points=16)
        assert [b.job_ids for b in batches] == [["j0", "j2"], ["j1"]]
        assert batches[0].coalesced and batches[0].points == 2
        assert not batches[1].coalesced

    def test_multi_point_jobs_count_their_points(self):
        grid_doc = api.grid_request_to_json(
            [_request(speculation=s) for s in (1.05, 1.10, 1.20)]
        )
        batches = form_batches(
            _claimed([grid_doc, _doc(speculation=1.30)]), max_points=16
        )
        assert len(batches) == 1
        assert batches[0].points == 4

    def test_max_points_splits_a_large_group(self):
        docs = [_doc(speculation=1.0 + i / 100) for i in range(5)]
        batches = form_batches(_claimed(docs), max_points=2)
        assert [len(b.jobs) for b in batches] == [2, 2, 1]

    def test_zero_cap_disables_coalescing(self):
        docs = [_doc(speculation=1.05), _doc(speculation=1.20)]
        batches = form_batches(_claimed(docs), max_points=0)
        assert [len(b.jobs) for b in batches] == [1, 1]


class TestStats:
    def test_counters_roundtrip(self):
        stats = SchedulerStats()
        batches = form_batches(
            _claimed([_doc(speculation=1.05), _doc(speculation=1.20),
                      _doc("stringsearch")]),
            max_points=16,
        )
        for batch in batches:
            stats.record_dispatch(batch)
        stats.record_wait(3.5)
        doc = stats.to_json()
        assert doc["batches_formed"] == 1
        assert doc["jobs_coalesced"] == 2
        assert doc["fallback_singles"] == 1
        assert doc["window_waits"] == 1
        assert doc["window_wait_ms_max"] == 3.5


@pytest.fixture(scope="module")
def pipeline():
    from repro.pipeline.pipeline import EstimationPipeline

    return EstimationPipeline(SMALL, store=None, n_data_samples=32)


class _GridBomb:
    """Pipeline proxy whose multi-point grid passes always fail, while
    one-point passes (each job's fallback) succeed (fallback test)."""

    def __init__(self, pipeline) -> None:
        self._pipeline = pipeline

    def execute_grid(self, requests):
        if len(requests) > 1:
            raise RuntimeError("grid pass exploded")
        return self._pipeline.execute_grid(requests)


@pytest.mark.slow
class TestExecuteBatchJobs:
    def test_coalesced_jobs_share_points_and_match_scalar(self, pipeline):
        jobs = [
            ("a", _doc(speculation=1.10)),
            ("b", _doc(speculation=1.10)),
            ("c", _doc(speculation=1.20)),
        ]
        outcomes = execute_batch_jobs(
            pipeline, jobs, batch_info={"jobs": 3, "points": 3}
        )
        assert [o["job"] for o in outcomes] == ["a", "b", "c"]
        assert all(o["ok"] for o in outcomes)
        results = [o["result"] for o in outcomes]
        assert all(r["batched"] for r in results)
        assert all(r["batch"] == {"jobs": 3, "points": 3} for r in results)
        # Jobs asking for the same point share the same result.
        assert results[0]["report"] == results[1]["report"]
        assert results[0]["report"] != results[2]["report"]
        # ... and every report is byte-identical to the scalar path.
        for doc, spec in ((results[0], 1.10), (results[2], 1.20)):
            scalar = pipeline.execute(_request(speculation=spec))
            assert api.report_from_json(doc["report"]).to_json(
                include_timing=False
            ) == scalar.report.to_json(include_timing=False)

    def test_singleton_batch_runs_the_scalar_path(self, pipeline):
        outcomes = execute_batch_jobs(
            pipeline, [("solo", _doc(speculation=1.10))]
        )
        assert outcomes[0]["ok"]
        assert outcomes[0]["result"]["batched"] is False

    def test_bad_document_fails_only_its_own_job(self, pipeline):
        jobs = [
            ("good", _doc(speculation=1.10)),
            ("bad", {"schema": "nonsense"}),
        ]
        outcomes = execute_batch_jobs(pipeline, jobs)
        by_id = {o["job"]: o for o in outcomes}
        assert by_id["good"]["ok"]
        assert not by_id["bad"]["ok"]
        assert "Traceback" in by_id["bad"]["error"]

    def test_grid_failure_falls_back_to_per_job_scalar(self, pipeline):
        stats = SchedulerStats()
        jobs = [
            ("a", _doc(speculation=1.10)),
            ("b", _doc(speculation=1.20)),
        ]
        outcomes = execute_batch_jobs(
            _GridBomb(pipeline), jobs, stats=stats
        )
        assert all(o["ok"] for o in outcomes)
        assert all(not o["result"]["batched"] for o in outcomes)
        assert stats.to_json()["grid_fallbacks"] == 1


def _submit_concurrently(client, requests):
    """Submit every request from its own thread; returns job ids in
    request order (the point: submissions land inside one batch window)."""
    ids = [None] * len(requests)
    errors = []

    def _one(i, request):
        try:
            ids[i] = client.submit(request).id
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=_one, args=(i, r))
        for i, r in enumerate(requests)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    return ids


@pytest.mark.slow
class TestEndToEndBatching:
    def test_concurrent_compatible_singles_coalesce_byte_identical(
        self, tmp_path
    ):
        """N tenants submit the same single-point request concurrently:
        the scheduler coalesces them into one grid pass and every
        report is byte-identical to a serial pipeline run."""
        from repro.pipeline.pipeline import EstimationPipeline

        reference = EstimationPipeline(
            SMALL, store=None, n_data_samples=32
        ).run(_request()).to_json(include_timing=False)

        service = EstimationService(
            tmp_path / "svc", config=SMALL, port=0, workers=1,
            n_data_samples=32, batch_window_ms=1_000,
        )
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            ids = _submit_concurrently(client, [_request()] * 4)
            results = [client.wait(i, timeout=240) for i in ids]
            metrics = client.metrics()

        for result in results:
            assert result.report.to_json(include_timing=False) == reference
        batching = metrics["batching"]
        assert batching["batches_formed"] >= 1
        assert batching["jobs_coalesced"] >= 2
        assert sum(r.batched for r in results) == batching["jobs_coalesced"]
        coalesced = [r for r in results if r.batched]
        assert all(r.batch["jobs"] >= 2 for r in coalesced)

    def test_mixed_traffic_never_cross_contaminates(self, tmp_path):
        """Compatible and incompatible jobs in one window: every job
        gets exactly its own request's result."""
        from repro.pipeline.pipeline import EstimationPipeline

        def _reference(request):
            return EstimationPipeline(
                SMALL, store=None, n_data_samples=32
            ).run(request).to_json(include_timing=False)

        seed0 = _request()
        seed1 = _request(seed=1)
        other = _request("stringsearch")
        references = {
            "seed0": _reference(seed0),
            "seed1": _reference(seed1),
            "other": _reference(other),
        }
        # Differing seeds must not coalesce — sanity-check the fixture
        # actually distinguishes them.
        assert references["seed0"] != references["seed1"]

        service = EstimationService(
            tmp_path / "svc", config=SMALL, port=0, workers=1,
            n_data_samples=32, batch_window_ms=1_000,
        )
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            plan = ["seed0", "seed1", "seed0", "other", "seed1"]
            requests = {
                "seed0": seed0, "seed1": seed1, "other": other,
            }
            ids = _submit_concurrently(
                client, [requests[name] for name in plan]
            )
            results = [client.wait(i, timeout=300) for i in ids]

        for name, result in zip(plan, results):
            assert result.report.to_json(include_timing=False) == (
                references[name]
            ), f"job of kind {name} got another request's result"

    def test_healthz_and_metrics_expose_scheduler_state(self, tmp_path):
        service = EstimationService(
            tmp_path / "svc", config=SMALL, port=0, workers=1,
            n_data_samples=32, batch_window_ms=7.5, max_batch=9,
        )
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            health = client.health()
            metrics = client.metrics()
            stats_status, stats_doc = client._call("GET", "/v1/store/stats")

        assert health["ok"]
        assert health["queue_depth"] == 0
        assert health["inflight_batches"] == 0
        assert health["batching"] == {
            "batch_window_ms": 7.5, "max_batch": 9,
        }
        assert "pool" not in health
        assert metrics["kind"] == "service-metrics"
        assert metrics["config"]["batch_window_ms"] == 7.5
        assert "worker_processes" not in metrics["config"]
        assert "pool" not in metrics
        assert "pool_plan" not in metrics
        assert set(metrics["batching"]) >= {
            "batches_formed", "jobs_coalesced", "window_waits",
            "fallback_singles",
        }
        assert "crash_requeues" not in metrics["batching"]
        assert stats_status == 200
        assert stats_doc["jobs"] == {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
        }

    def test_straggler_wait_is_capped_by_the_last_pass(self, tmp_path):
        """A claimed job waits for stragglers no longer than the last
        batch took to run, however long the window: with a last pass of
        0 s it dispatches at once, and the next job waits at most about
        the first job's pass, not the minute-long window."""
        service = EstimationService(
            tmp_path / "svc", config=SMALL, port=0, workers=1,
            n_data_samples=32, batch_window_ms=60_000,
        )
        service._last_pass_s = 0.0
        with service.start_in_thread():
            client = ServiceClient(f"http://127.0.0.1:{service.port}")
            first = client.submit(_request())
            client.wait(first.id, timeout=30)
            after_first = client.metrics()["batching"]
            assert after_first["window_waits"] == 0
            first_pass_s = service._last_pass_s
            assert 0.0 < first_pass_s < 30.0

            second = client.submit(_request())
            client.wait(second.id, timeout=30)
            batching = client.metrics()["batching"]
        assert batching["window_wait_ms_max"] <= 1000.0 * first_pass_s
