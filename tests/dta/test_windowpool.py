"""Unit tests for the window-analysis layer (activity cache) and the
engine's fork map (plan + execution)."""

import threading

import numpy as np
import pytest

from repro.dta.executor import (
    execute_plan,
    fork_available,
    fork_safe,
    plan_fork_map,
)
from repro.dta.windowpool import ActivityCache, _decode_bits, _encode_bits
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


def _square_task(context, index):
    base = context["base"]
    return (base + index) ** 2


def _live_thread():
    """A live non-daemon thread (and its release event)."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    return thread, release


class TestExecutionPlans:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_executor_trusts_worker_count(self):
        plan = plan_fork_map(8, 3)
        assert plan.parallel and plan.workers == 3
        assert plan.chunk_size >= 1 and plan.reason == ""

    def test_fork_executor_degrades_for_single_worker_or_task(self):
        assert not plan_fork_map(8, 1).parallel
        assert not plan_fork_map(1, 8).parallel

    def test_degraded_map_counts(self):
        thread, release = _live_thread()
        try:
            plan = plan_fork_map(6, 4)
            before = kernel_stats().snapshot()
            out = execute_plan(plan, _square_task, {"base": 1})
            delta = kernel_stats().delta(before)
        finally:
            release.set()
            thread.join()
        assert out == [(1 + i) ** 2 for i in range(6)]
        assert delta.pool_maps_serial == 1
        assert delta.pool_maps_degraded == 1
        assert delta.pool_maps_forked == 0
        assert not plan.parallel and plan.reason


class TestForkSafety:
    def test_fork_safe_on_quiet_main_thread(self):
        assert fork_safe()

    def test_live_thread_blocks_forking(self):
        thread, release = _live_thread()
        try:
            assert not fork_safe()
            plan = plan_fork_map(8, 4)
            assert not plan.parallel
            assert "unsafe" in plan.reason
        finally:
            release.set()
            thread.join()

    def test_concurrent_maps_from_threads_stay_correct(self):
        """Regression: two threads mapping at once must not cross wires.

        The fork hand-off parks ``(func, context)`` in a module global;
        threads degrade to the stateless serial path (and the hand-off
        is lock-serialized besides).
        """
        results: dict[int, list] = {}
        errors: list = []
        barrier = threading.Barrier(2)

        def run(base: int) -> None:
            try:
                barrier.wait(timeout=10)
                results[base] = execute_plan(
                    plan_fork_map(20, 4), _square_task, {"base": base}
                )
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


class TestExecutePlan:
    def test_serial_map_preserves_order(self):
        out = execute_plan(plan_fork_map(5, 1), _square_task, {"base": 3})
        assert out == [(3 + i) ** 2 for i in range(5)]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_map_matches_serial(self):
        serial = execute_plan(plan_fork_map(7, 1), _square_task, {"base": 3})
        plan = plan_fork_map(7, 3)
        assert plan.parallel
        assert execute_plan(plan, _square_task, {"base": 3}) == serial

    def test_pool_counters_recorded(self):
        before = kernel_stats().snapshot()
        execute_plan(plan_fork_map(4, 1), _square_task, {"base": 0})
        delta = kernel_stats().delta(before)
        assert delta.pool_maps_serial == 1
        assert delta.pool_maps_degraded == 0

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_merges_worker_kernel_stats(self):
        def _cache_task(context, index):
            cache = ActivityCache()
            cache.activity(_stimulus(index), lambda _v: _trace(index))
            return index

        before = kernel_stats().snapshot()
        execute_plan(plan_fork_map(4, 2), _cache_task, None)
        delta = kernel_stats().delta(before)
        # The misses happened in forked workers; the parent merged them.
        assert delta.activity_cache_misses == 4
        assert delta.pool_maps_forked == 1
        assert delta.pool_chunks >= 2
