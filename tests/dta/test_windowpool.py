"""Unit tests for the window-analysis layer (cache + pool + executors)."""

import threading

import numpy as np
import pytest

from repro.dta import executor as executor_mod
from repro.dta.executor import (
    MIN_TASKS_TO_FORK,
    AutoWindowExecutor,
    ForkWindowExecutor,
    SerialWindowExecutor,
    available_executors,
    fork_available,
    fork_safe,
    get_executor,
    last_execution_plan,
    register_executor,
)
from repro.dta.windowpool import (
    ActivityCache,
    WindowAnalysisPool,
    _decode_bits,
    _encode_bits,
)
from repro.kernels import kernel_stats
from repro.logicsim.activity import ActivityTrace


def _trace(seed: int, cycles: int = 4, gates: int = 9) -> ActivityTrace:
    rng = np.random.default_rng(seed)
    return ActivityTrace(
        activated=rng.random((cycles, gates)) < 0.5,
        values=rng.random((cycles, gates)) < 0.5,
    )


def _stimulus(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((6, 12)) < 0.5


class TestBitCodec:
    def test_round_trip_exact(self):
        for shape in [(3, 7), (1, 1), (16, 5), (2, 3, 4)]:
            array = np.random.default_rng(0).random(shape) < 0.5
            doc = _encode_bits(array)
            np.testing.assert_array_equal(_decode_bits(doc), array)

    def test_non_multiple_of_eight(self):
        # packbits pads to a byte boundary; decode must trim exactly.
        array = np.ones((3, 3), dtype=bool)
        assert _decode_bits(_encode_bits(array)).shape == (3, 3)


class TestActivityCache:
    def test_digest_is_content_addressed(self):
        a = _stimulus(1)
        assert ActivityCache.digest(a) == ActivityCache.digest(a.copy())
        assert ActivityCache.digest(a) != ActivityCache.digest(_stimulus(2))
        # Shape participates: same bits, different layout, different key.
        assert ActivityCache.digest(a) != ActivityCache.digest(a.reshape(-1))

    def test_miss_computes_then_hit_reuses(self):
        cache = ActivityCache()
        stim = _stimulus(1)
        calls = []

        def compute(values):
            calls.append(1)
            return _trace(5)

        before = kernel_stats().snapshot()
        t1 = cache.activity(stim, compute)
        t2 = cache.activity(stim, compute)
        delta = kernel_stats().delta(before)
        assert t1 is t2
        assert len(calls) == 1
        assert delta.activity_cache_misses == 1
        assert delta.activity_cache_hits == 1
        assert delta.windows_reused == 0
        assert cache.dirty and len(cache) == 1

    def test_doc_round_trip_lossless(self):
        cache = ActivityCache()
        for seed in (1, 2, 3):
            cache.activity(_stimulus(seed), lambda _v, s=seed: _trace(s))
        doc = cache.to_doc()
        fresh = ActivityCache()
        assert fresh.preload(doc) == 3
        assert not fresh.dirty  # preloading alone is nothing to persist
        for seed in (1, 2, 3):
            key = ActivityCache.digest(_stimulus(seed))
            assert key in fresh
            original = cache._entries[key]
            loaded = fresh._entries[key]
            np.testing.assert_array_equal(
                loaded.activated, original.activated
            )
            np.testing.assert_array_equal(loaded.values, original.values)

    def test_preload_hit_counts_windows_reused(self):
        cache = ActivityCache()
        cache.activity(_stimulus(1), lambda _v: _trace(1))
        fresh = ActivityCache()
        fresh.preload(cache.to_doc())
        before = kernel_stats().snapshot()
        fresh.activity(_stimulus(1), lambda _v: _trace(1))
        delta = kernel_stats().delta(before)
        assert delta.activity_cache_hits == 1
        assert delta.windows_reused == 1

    def test_preload_never_overwrites(self):
        cache = ActivityCache()
        cache.activity(_stimulus(1), lambda _v: _trace(1))
        key = ActivityCache.digest(_stimulus(1))
        kept = cache._entries[key]
        other = ActivityCache()
        other.activity(_stimulus(1), lambda _v: _trace(99))
        assert cache.preload(other.to_doc()) == 0
        assert cache._entries[key] is kept

    def test_preload_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            ActivityCache().preload({"schema": "bogus", "windows": {}})

    def test_export_adopt_delta(self):
        cache = ActivityCache()
        cache.activity(_stimulus(1), lambda _v: _trace(1))
        snapshot = cache.snapshot_keys()
        cache.activity(_stimulus(2), lambda _v: _trace(2))
        delta = cache.export_shared_since(snapshot)
        assert set(delta["index"]) == {ActivityCache.digest(_stimulus(2))}
        parent = ActivityCache()
        parent.adopt_shared(delta)
        assert len(parent) == 1 and parent.dirty


def _square_task(context, index):
    base = context["base"]
    return (base + index) ** 2


class TestExecutorRegistry:
    def test_builtin_executors_registered(self):
        # Plugins may append; the three built-ins always lead the
        # registry in registration order.
        assert available_executors()[:3] == [
            "local-serial", "local-fork", "auto"
        ]

    def test_get_unknown_names_available(self):
        with pytest.raises(KeyError, match="local-serial"):
            get_executor("remote-farm")

    def test_register_rejects_duplicates_and_anonymous(self):
        with pytest.raises(ValueError, match="already registered"):
            register_executor(SerialWindowExecutor())
        with pytest.raises(ValueError, match="name"):
            register_executor(type("Nameless", (SerialWindowExecutor,),
                                   {"name": ""})())

    def test_pool_rejects_unknown_executor(self):
        with pytest.raises(KeyError):
            WindowAnalysisPool(2, executor="remote-farm")


class TestExecutionPlans:
    def test_serial_executor_always_serial(self):
        plan = SerialWindowExecutor().plan(100, 8, task_ms=1000.0)
        assert plan.executor == "local-serial"
        assert not plan.parallel and plan.workers == 1

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_executor_trusts_worker_count(self):
        plan = ForkWindowExecutor().plan(8, 3)
        assert plan.parallel and plan.workers == 3
        assert plan.chunk_size >= 1 and plan.reason == ""

    def test_fork_executor_degrades_for_single_worker_or_task(self):
        assert not ForkWindowExecutor().plan(8, 1).parallel
        assert not ForkWindowExecutor().plan(1, 8).parallel

    def test_auto_serial_on_single_cpu(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "effective_cpus", lambda: 1)
        plan = AutoWindowExecutor().plan(32, 4, task_ms=50.0)
        assert not plan.parallel
        assert "usable CPU" in plan.reason

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_auto_forks_when_cost_model_pays(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "effective_cpus", lambda: 4)
        plan = AutoWindowExecutor().plan(32, 8, task_ms=50.0)
        assert plan.parallel
        # The worker budget is capped by the usable CPUs.
        assert plan.workers == 4

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_auto_serial_when_tasks_too_cheap(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "effective_cpus", lambda: 4)
        plan = AutoWindowExecutor().plan(32, 4, task_ms=0.01)
        assert not plan.parallel
        assert "cannot pay" in plan.reason

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_auto_serial_below_task_floor(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "effective_cpus", lambda: 4)
        plan = AutoWindowExecutor().plan(
            MIN_TASKS_TO_FORK - 1, 4, task_ms=50.0
        )
        assert not plan.parallel
        assert "amortize" in plan.reason

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_small_tasks_batched_into_chunks(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "effective_cpus", lambda: 4)
        # 1ms tasks against a 25ms chunk target: chunks must batch up.
        plan = AutoWindowExecutor().plan(200, 4, task_ms=1.0)
        assert plan.parallel
        assert plan.chunk_size >= 25

    def test_degraded_map_counts(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "effective_cpus", lambda: 1)
        before = kernel_stats().snapshot()
        out = WindowAnalysisPool(4, executor="auto").map(
            _square_task, {"base": 1}, 6
        )
        delta = kernel_stats().delta(before)
        assert out == [(1 + i) ** 2 for i in range(6)]
        assert delta.pool_maps_serial == 1
        assert delta.pool_maps_degraded == 1
        assert delta.pool_maps_forked == 0
        plan = last_execution_plan()
        assert plan is not None and not plan.parallel and plan.reason


class TestForkSafety:
    def test_fork_safe_on_quiet_main_thread(self):
        assert fork_safe()

    def test_live_thread_blocks_forking(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert not fork_safe()
            plan = ForkWindowExecutor().plan(8, 4)
            assert not plan.parallel
            assert "unsafe" in plan.reason
            assert not AutoWindowExecutor().plan(
                32, 4, task_ms=50.0
            ).parallel
        finally:
            release.set()
            thread.join()

    def test_concurrent_maps_from_threads_stay_correct(self):
        """Regression: two threads mapping at once must not cross wires.

        The old pool parked ``(func, context)`` in an unguarded module
        global, so two concurrent maps could observe each other's
        context.  Now threads degrade to the stateless serial path (and
        the fork hand-off is lock-serialized besides).
        """
        results: dict[int, list] = {}
        errors: list = []
        barrier = threading.Barrier(2)

        def run(base: int) -> None:
            try:
                barrier.wait(timeout=10)
                pool = WindowAnalysisPool(4, executor="local-fork")
                results[base] = pool.map(_square_task, {"base": base}, 20)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        before = kernel_stats().snapshot()
        threads = [
            threading.Thread(target=run, args=(base,)) for base in (10, 500)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for base in (10, 500):
            assert results[base] == [(base + i) ** 2 for i in range(20)]
        # Neither map may have forked: both ran under live threads.
        assert kernel_stats().delta(before).pool_maps_forked == 0


class TestWindowAnalysisPool:
    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WindowAnalysisPool(0)

    def test_should_parallelize(self):
        assert not WindowAnalysisPool(1).plan(10).parallel
        assert not WindowAnalysisPool(4).plan(1).parallel
        if fork_available():
            assert WindowAnalysisPool(
                4, executor="local-fork"
            ).plan(8).parallel

    def test_serial_map_preserves_order(self):
        pool = WindowAnalysisPool(1)
        out = pool.map(_square_task, {"base": 3}, 5)
        assert out == [(3 + i) ** 2 for i in range(5)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_map_matches_serial(self):
        serial = WindowAnalysisPool(1).map(_square_task, {"base": 3}, 7)
        parallel = WindowAnalysisPool(3, executor="local-fork").map(
            _square_task, {"base": 3}, 7
        )
        assert parallel == serial

    def test_pool_counters_recorded(self):
        before = kernel_stats().snapshot()
        WindowAnalysisPool(1).map(_square_task, {"base": 0}, 4)
        delta = kernel_stats().delta(before)
        assert delta.pool_tasks == 4
        assert delta.pool_maps_serial == 1
        assert delta.pool_maps_degraded == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_merges_worker_kernel_stats(self):
        def _cache_task(context, index):
            cache = ActivityCache()
            cache.activity(_stimulus(index), lambda _v: _trace(index))
            return index

        before = kernel_stats().snapshot()
        WindowAnalysisPool(2, executor="local-fork").map(
            _cache_task, None, 4
        )
        delta = kernel_stats().delta(before)
        # The misses happened in forked workers; the parent merged them.
        assert delta.activity_cache_misses == 4
        assert delta.pool_tasks == 4
        assert delta.pool_maps_forked == 1
        assert delta.pool_chunks >= 2


class TestSharedMemoryHandoff:
    def _filled_cache(self, seeds, cycles=4, gates=9):
        cache = ActivityCache()
        for seed in seeds:
            cache.activity(
                _stimulus(seed),
                lambda _v, s=seed: _trace(s, cycles=cycles, gates=gates),
            )
        return cache

    def test_small_delta_stays_inline(self):
        cache = self._filled_cache([1, 2])
        payload = cache.export_shared_since(set())
        assert payload["kind"] == "inline"
        parent = ActivityCache()
        parent.adopt_shared(payload)
        assert len(parent) == 2

    def test_outside_pool_worker_stays_inline(self):
        cache = self._filled_cache([1], cycles=600, gates=600)
        # Far above the byte floor, but not inside a fork-pool worker.
        payload = cache.export_shared_since(set(), min_bytes=1)
        assert payload["kind"] == "inline"

    def test_shm_round_trip_is_lossless(self, monkeypatch):
        import repro.dta.windowpool as windowpool

        monkeypatch.setattr(windowpool, "in_pool_worker", lambda: True)
        cache = self._filled_cache([1, 2, 3], cycles=40, gates=40)
        payload = cache.export_shared_since(set(), min_bytes=1)
        assert payload["kind"] == "shm"
        assert payload["bytes"] > 0
        parent = ActivityCache()
        before = kernel_stats().snapshot()
        parent.adopt_shared(payload)
        delta = kernel_stats().delta(before)
        assert delta.pool_shm_bytes == payload["bytes"]
        assert len(parent) == 3 and parent.dirty
        for seed in (1, 2, 3):
            key = ActivityCache.digest(_stimulus(seed))
            original = cache._entries[key]
            adopted = parent._entries[key]
            np.testing.assert_array_equal(
                adopted.activated, original.activated
            )
            np.testing.assert_array_equal(adopted.values, original.values)
