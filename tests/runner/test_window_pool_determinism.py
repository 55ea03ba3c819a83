"""Determinism and reuse contracts of the window-analysis layer.

The ISSUE contract: a full estimation run with ``window_workers=4`` and
the activity cache on must produce a byte-identical
``ErrorRateReport.to_json`` payload (timing excluded) to a serial,
cache-off reference; and a warm second-period job of a frequency sweep
must re-characterize with zero logic simulations.
"""

import json

import pytest

from repro.core import EstimationRequest
from repro.kernels import configure_kernels
from repro.netlist import PipelineConfig
from repro.runner import EstimationEngine, ProcessorConfig

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)


def _engine(**kwargs):
    kwargs.setdefault("n_data_samples", 32)
    return EstimationEngine(SMALL, **kwargs)


def _requests(*names, **kwargs):
    kwargs.setdefault("train_instructions", 4_000)
    kwargs.setdefault("max_instructions", 6_000)
    kwargs.setdefault("seed", 0)
    return [EstimationRequest(workload=name, **kwargs) for name in names]


def _rows(summary):
    return [
        json.dumps(r.report.to_json(include_timing=False), sort_keys=True)
        for r in summary.results
    ]


def test_window_pool_and_cache_match_serial_reference():
    """Acceptance: parallel + cached == serial + uncached, byte for byte."""
    with configure_kernels(activity_cache=False):
        reference = _engine(max_workers=1).run(_requests("bitcount"))
    pooled = _engine(max_workers=1, window_workers=4).run(
        _requests("bitcount")
    )
    assert _rows(pooled) == _rows(reference)
    stats = pooled.results[0].kernel_stats
    assert stats["activity_cache_misses"] > 0
    assert stats["pool_tasks"] > 0


def test_parallel_engine_matches_windowed_serial_engine():
    """Outer-parallel (pinned inner) == serial engine with inner pool."""
    requests = _requests("bitcount", "stringsearch")
    inner = _engine(max_workers=1, window_workers=2).run(requests)
    outer = _engine(max_workers=2, window_workers=2).run(requests)
    assert _rows(inner) == _rows(outer)


def test_engine_pins_inner_pool_when_parallel():
    engine = _engine(max_workers=2, window_workers=4)
    assert engine.window_workers == 4
    summary = engine.run(_requests("bitcount", "stringsearch"))
    assert summary.to_json()["window_workers"] == 4
    if summary.parallel:
        # Jobs ran across the engine pool; intra-job pools were pinned
        # serial, so no nested fan-out was recorded beyond the task count.
        for result in summary.results:
            assert result.kernel_stats["pool_tasks"] > 0


def test_window_workers_validated():
    with pytest.raises(ValueError):
        _engine(window_workers=0)


def test_warm_sweep_second_period_runs_zero_logic_sims(tmp_path):
    """Acceptance: period-sweep reuse — zero sims at the second period.

    One engine run per point: this contract is about a later run
    reusing the persisted windows artifact (one run would share a single
    grid pass between the two points, which
    ``tests/runner/test_engine.py::TestGridRouting`` covers)."""
    engine = _engine(
        max_workers=1, window_workers=2, cache_dir=tmp_path
    )
    results = [
        result
        for spec in (1.15, 1.25)
        for result in engine.run(
            _requests("bitcount", speculation=spec)
        ).results
    ]
    assert all(r.ok for r in results)
    first = results[0].report.to_json()["timing"][
        "kernels_training"
    ]
    second = results[1].report.to_json()["timing"][
        "kernels_training"
    ]
    assert first["sim_calls"] > 0 and first["windows_reused"] == 0
    assert second["sim_calls"] == 0
    assert second["windows_reused"] > 0
    # The second period's numbers come out of real work, not a skip:
    assert results[0].report.error_rate_mean != pytest.approx(
        results[1].report.error_rate_mean
    )


def test_windows_artifact_persisted_and_preloaded(tmp_path):
    engine = _engine(max_workers=1, cache_dir=tmp_path)
    engine.run(_requests("bitcount"))
    kinds = {p.parent.parent.name for p in engine_cache_entries(tmp_path)}
    assert "windows" in kinds
    # A cold process (fresh engine) at the same period reuses the entry
    # through the control-model cache *and* still preloads windows.
    summary = _engine(max_workers=1, cache_dir=tmp_path).run(
        _requests("bitcount")
    )
    assert summary.results[0].cache_hit


def engine_cache_entries(root):
    from repro.pipeline.store import ArtifactStore

    return ArtifactStore(root).entries()
