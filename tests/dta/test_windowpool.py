"""Unit tests for the window-analysis layer (activity cache)."""

import numpy as np
import pytest

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

