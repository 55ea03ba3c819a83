"""Worker-pool tests: cost-model arbitration, shm hand-off, spawn
lifecycle, kernel-counter merging, crash detection."""

import json
import multiprocessing

import pytest

from repro import api
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.service import EstimationService
from repro.service.workerpool import (
    CRASH_ONCE_ENV,
    WorkerCrashed,
    WorkerPool,
    _ship,
    plan_worker_pool,
)

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)


def _doc(**overrides):
    fields = dict(
        workload="bitcount", train_instructions=4_000,
        max_instructions=6_000, seed=0, speculation=1.10,
    )
    fields.update(overrides)
    return api.request_to_json(api.build_request(**fields))


class TestWorkerPoolPlan:
    def test_plan_resolves_on_a_multi_cpu_host(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.workerpool.effective_cpus", lambda: 8
        )
        plan = plan_worker_pool(16, 4)
        assert plan.executor == "service-pool"
        assert plan.workers == 4
        assert plan.reason == ""

    def test_plan_caps_workers_at_the_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.workerpool.effective_cpus", lambda: 2
        )
        assert plan_worker_pool(16, 8).workers == 2

    def test_plan_degrades_on_a_single_cpu(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.workerpool.effective_cpus", lambda: 1
        )
        plan = plan_worker_pool(16, 4)
        assert plan.executor == "local-serial"
        assert "1 usable CPU" in plan.reason

    def test_force_trusts_the_caller_on_any_host(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.workerpool.effective_cpus", lambda: 1
        )
        plan = plan_worker_pool(16, 3, force=True)
        assert plan.executor == "service-pool"
        assert plan.workers == 3

    def test_zero_workers_is_not_pool_capable(self):
        plan = plan_worker_pool(16, 0)
        assert plan.executor == "local-serial"
        assert plan.reason == ""


class TestShmHandOff:
    def _roundtrip(self, outcomes):
        parent, child = multiprocessing.Pipe()
        try:
            _ship(child, outcomes, {"sim_calls": 0})
            return parent.recv()
        finally:
            parent.close()
            child.close()

    def test_small_payloads_travel_inline(self):
        reply = self._roundtrip([{"job": "a", "ok": True, "result": {}}])
        assert reply[0]["kind"] == "inline"
        assert WorkerPool._adopt(reply) == [
            {"job": "a", "ok": True, "result": {}}
        ]

    def test_large_payloads_travel_via_shared_memory(self):
        outcomes = [{"job": "a", "ok": True, "blob": "x" * (1 << 17)}]
        before = kernel_stats().pool_shm_bytes
        reply = self._roundtrip(outcomes)
        assert reply[0]["kind"] == "shm"
        assert reply[0]["bytes"] == len(json.dumps(outcomes).encode())
        assert WorkerPool._adopt(reply) == outcomes
        assert kernel_stats().pool_shm_bytes - before == reply[0]["bytes"]
        # The segment was consumed: adopting again must fail.
        with pytest.raises(FileNotFoundError):
            WorkerPool._adopt(reply)


@pytest.mark.slow
class TestWorkerPoolLifecycle:
    def test_real_spawned_batch_and_kernel_merge(self, tmp_path):
        """One persistent spawned worker executes a coalesced batch:
        results come back job-by-job and the child's kernel counters
        merge into the parent's process-wide stats."""
        pool = WorkerPool(
            1, tmp_path / "store", SMALL, n_data_samples=32
        )
        try:
            before = kernel_stats().snapshot()
            jobs = [("a", _doc()), ("b", _doc(speculation=1.20))]
            outcomes = pool.run_batch(jobs, {"jobs": 2, "points": 2})
            assert [o["job"] for o in outcomes] == ["a", "b"]
            assert all(o["ok"] for o in outcomes)
            assert all(o["result"]["batched"] for o in outcomes)
            delta = kernel_stats().delta(before)
            assert delta.sim_calls > 0, (
                "the worker's kernel counters must merge into the parent"
            )
            described = pool.describe()
            assert described["processes"] == 1
            worker = described["workers"][0]
            assert worker["alive"] and not worker["busy"]
            assert worker["batches"] == 1
            assert worker["jobs"] == 2
            # The worker warmed the shared on-disk store.
            assert (tmp_path / "store").exists()
        finally:
            pool.close()
        assert not pool.describe()["workers"][0]["alive"]

    def test_crash_is_detected_and_the_worker_respawns(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "crash-once"
        monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
        pool = WorkerPool(
            1, tmp_path / "store", SMALL, n_data_samples=32
        )
        try:
            with pytest.raises(WorkerCrashed) as crashed:
                pool.run_batch([("a", _doc())])
            assert crashed.value.exitcode == 17
            assert marker.exists()
            # Respawned in place: the retry succeeds on the new process.
            outcomes = pool.run_batch([("a", _doc())])
            assert outcomes[0]["ok"]
            worker = pool.describe()["workers"][0]
            assert worker["respawns"] == 1
            assert worker["alive"]
        finally:
            pool.close()

    def test_service_stop_closes_the_pool(self, tmp_path):
        """Stopping a threaded service stops every spawned worker."""
        service = EstimationService(
            tmp_path / "service", config=SMALL, port=0,
            worker_processes=1, pool_force=True, n_data_samples=32,
        )
        handle = service.start_in_thread()
        pool = service.pool
        assert pool is not None
        handle.stop()
        assert pool._closed
        assert all(
            worker.process.exitcode is not None
            for worker in pool._workers
        )
