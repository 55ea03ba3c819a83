"""Tests for the batch estimation engine (reduced pipeline + budgets)."""

import json

import pytest

from repro.core import EstimationRequest
from repro.dta.executor import fork_available, get_executor
from repro.netlist import PipelineConfig
from repro.pipeline.store import ArtifactStore
from repro.runner import EstimationEngine, ProcessorConfig
from repro.runner.engine import RunSummary

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)


def _engine(**kwargs):
    kwargs.setdefault("n_data_samples", 32)
    return EstimationEngine(SMALL, **kwargs)


def _requests(*names, **overrides):
    kwargs = dict(
        train_instructions=4_000, max_instructions=6_000, seed=0
    )
    kwargs.update(overrides)
    return [EstimationRequest(workload=name, **kwargs) for name in names]


def _per_request(requests):
    """One engine run per request, merged: the solo-report oracle."""
    runs = [_engine().run([request]) for request in requests]
    return RunSummary(
        results=[result for run in runs for result in run.results],
        wall_seconds=sum(run.wall_seconds for run in runs),
        max_workers=1,
        plan=get_executor("local-serial").plan(len(runs), 1),
        grid_batches=sum(run.grid_batches for run in runs),
    )


def _rows(summary):
    """Result payloads with timing excluded (determinism comparison)."""
    return [
        json.dumps(r.report.to_json(include_timing=False), sort_keys=True)
        for r in summary.results
    ]


class TestSerialRuns:
    def test_summary_telemetry(self):
        summary = _engine().run(_requests("bitcount", "stringsearch"))
        assert len(summary) == 2
        assert not summary.parallel
        assert summary.failed == []
        assert summary.cache_hits == 0
        assert summary.training_runs == 2
        assert summary.datapath_cache_hit is None
        assert summary.total_instructions > 0
        for result in summary.results:
            assert result.ok
            assert result.report is not None
            assert result.train_seconds > 0
            assert result.estimate_seconds > 0
            assert result.worker > 0
        doc = summary.to_json()
        assert doc["schema"] == "repro.run-summary/1"
        assert doc["jobs"] == 2
        assert [r["workload"] for r in doc["results"]] == [
            "bitcount", "stringsearch",
        ]

    def test_failed_job_is_captured_not_raised(self):
        requests = _requests("bitcount") + [
            EstimationRequest(workload="no-such-workload")
        ]
        summary = _engine().run(requests)
        assert len(summary) == 2
        assert summary.results[0].ok
        failed = summary.results[1]
        assert not failed.ok
        assert failed.report is None
        assert "no-such-workload" in failed.error
        assert "Traceback" in failed.error
        assert len(summary.failed) == 1
        assert summary.to_json()["failed"] == 1

    def test_results_keep_request_order(self):
        names = ("stringsearch", "bitcount", "stringsearch")
        summary = _engine().run(_requests(*names))
        assert [
            r.request.workload_name for r in summary.results
        ] == list(names)


class TestArtifactCaching:
    def test_warm_cache_skips_all_training(self, tmp_path):
        requests = _requests("bitcount")
        cold = _engine(cache_dir=tmp_path).run(requests)
        assert cold.training_runs == 1
        assert cold.cache_hits == 0
        assert cold.datapath_cache_hit is False

        warm = _engine(cache_dir=tmp_path).run(requests)
        assert warm.training_runs == 0
        assert warm.cache_hits == 1
        assert warm.datapath_cache_hit is True
        assert _rows(warm) == _rows(cold)

    def test_cache_entries_on_disk(self, tmp_path):
        _engine(cache_dir=tmp_path).run(_requests("bitcount"))
        store = ArtifactStore(tmp_path)
        kinds = {p.parent.parent.name for p in store.entries()}
        assert kinds == {"control", "datapath", "windows"}

    def test_budget_change_is_a_cache_miss(self, tmp_path):
        _engine(cache_dir=tmp_path).run(_requests("bitcount"))
        other = _engine(cache_dir=tmp_path).run(
            _requests("bitcount", train_instructions=5_000)
        )
        assert other.cache_hits == 0
        assert other.training_runs == 1


class TestGridRouting:
    def _sweep(self, specs=(1.05, 1.10, 1.20)):
        return [
            EstimationRequest(
                workload="bitcount", speculation=s,
                train_instructions=4_000, max_instructions=6_000, seed=0,
            )
            for s in specs
        ]

    def test_homogeneous_sweep_forms_a_grid_batch(self):
        summary = _engine().run(self._sweep())
        assert summary.grid_batches == 1
        assert summary.failed == []
        assert all(r.grid for r in summary.results)
        # Only the first point pays the evaluation simulation.
        assert [r.eval_sim_skipped for r in summary.results] == [
            False, True, True,
        ]
        assert "grid batch" in summary.describe()
        doc = summary.to_json()
        assert doc["grid_batches"] == 1
        assert all(r["grid"] for r in doc["results"])

    def test_grid_matches_per_point_engine(self):
        requests = self._sweep()
        grid = _engine().run(requests)
        plain = _per_request(requests)
        assert grid.grid_batches == 1
        assert plain.grid_batches == 0
        assert not any(r.grid for r in plain.results)
        assert _rows(grid) == _rows(plain)

    def test_heterogeneous_requests_stay_scalar(self):
        requests = _requests("bitcount", "stringsearch")
        summary = _engine().run(requests)
        assert summary.grid_batches == 0
        assert not any(r.grid for r in summary.results)

    def test_mixed_batch_routes_each_group_correctly(self):
        requests = self._sweep((1.05, 1.15)) + _requests("stringsearch")
        summary = _engine().run(requests)
        assert summary.grid_batches == 1
        assert [r.grid for r in summary.results] == [True, True, False]
        assert [
            r.request.workload_name for r in summary.results
        ] == ["bitcount", "bitcount", "stringsearch"]

    def test_repeated_identical_points_form_a_deduped_grid(self):
        """Two copies of one operating point are still a grid: the pass
        dedupes them, trains one representative, and both jobs report
        identically to a scalar run of the same request."""
        summary = _engine().run(self._sweep((1.10, 1.10)))
        assert summary.grid_batches == 1
        assert summary.failed == []
        assert all(r.grid for r in summary.results)
        # One training pass, one evaluation sim, shared by both jobs.
        assert [r.train_sim_skipped for r in summary.results] == [
            False, True,
        ]
        assert [r.eval_sim_skipped for r in summary.results] == [
            False, True,
        ]
        scalar = _per_request(self._sweep((1.10,)))
        assert _rows(summary) == _rows(scalar) * 2

    def test_singleton_is_not_a_grid(self):
        summary = _engine().run(self._sweep((1.10,)))
        assert summary.grid_batches == 0

    def test_failed_grid_group_falls_back_per_request(self):
        requests = [
            EstimationRequest(workload="no-such-workload", speculation=s)
            for s in (1.05, 1.10)
        ]
        summary = _engine().run(requests)
        assert len(summary.failed) == 2
        for result in summary.results:
            assert not result.ok
            assert "Traceback" in result.error

    def test_grid_warms_the_shared_cache(self, tmp_path):
        requests = self._sweep()
        cold = _engine(cache_dir=tmp_path).run(requests)
        assert cold.grid_batches == 1
        # A later single-point job hits the grid's stored artifacts.
        warm = _engine(cache_dir=tmp_path).run(requests[:1])
        assert warm.cache_hits == 1
        assert warm.training_runs == 0
        assert _rows(warm) == _rows(cold)[:1]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestParallelMatchesSerial:
    def test_rows_byte_identical(self):
        requests = _requests("bitcount", "stringsearch")
        serial = _engine(max_workers=1).run(requests)
        parallel = _engine(max_workers=2).run(requests)
        assert not serial.parallel
        assert parallel.parallel
        assert parallel.failed == []
        assert _rows(parallel) == _rows(serial)

    def test_sweep_and_singleton_groups_byte_identical(self):
        """Forked fan-out maps request groups: a multi-point sweep group
        and a singleton group must match the serial run row for row."""
        requests = [
            EstimationRequest(
                workload="bitcount", speculation=s,
                train_instructions=4_000, max_instructions=6_000, seed=0,
            )
            for s in (1.05, 1.20)
        ] + _requests("stringsearch")
        serial = _engine(max_workers=1).run(requests)
        parallel = _engine(max_workers=2).run(requests)
        assert not serial.parallel
        assert parallel.parallel
        assert parallel.failed == []
        assert serial.grid_batches == parallel.grid_batches == 1
        assert _rows(parallel) == _rows(serial)

    def test_summary_records_the_fan_out_plan(self):
        requests = _requests("bitcount", "stringsearch")
        serial = _engine(max_workers=1).run(requests)
        parallel = _engine(max_workers=2).run(requests)
        assert serial.plan.executor == "local-serial"
        assert parallel.plan.executor == "local-fork"
        assert parallel.plan.workers == 2
        assert parallel.to_json()["plan"] == parallel.plan.to_json()

    def test_single_job_falls_back_in_process(self):
        summary = _engine(max_workers=4).run(_requests("bitcount"))
        assert not summary.parallel
        assert summary.results[0].ok
