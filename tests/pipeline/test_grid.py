"""Grid parity suite: the batched operating-point evaluator must be
byte-identical to the per-point loop — across workloads and the frozen
scalar kernel references."""

import json

import pytest

from repro.core.request import EstimationRequest
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig
from repro.pipeline.grid import GridRequest, GridResult, execute_grid
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore
from tests._reference import reference_kernels

SMALL = dict(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)

SPECS = (1.05, 1.10, 1.20)

BUDGETS = dict(train_instructions=4_000, max_instructions=6_000)


def _requests(workload="bitcount", specs=SPECS, **overrides):
    fields = dict(BUDGETS, **overrides)
    return [
        EstimationRequest(workload=workload, speculation=s, **fields)
        for s in specs
    ]


def _row(result):
    """The parity basis: everything except wall-clock timing."""
    return json.dumps(
        result.report.to_json(include_timing=False), sort_keys=True
    )


def _pipeline(tmp_path, name):
    return EstimationPipeline(
        ProcessorConfig(**SMALL),
        store=ArtifactStore(tmp_path / name),
        n_data_samples=32,
    )


@pytest.mark.slow
class TestGridParity:
    """Grid vs per-point, fresh pipelines and stores on both sides so
    shared memos cannot mask a divergence."""

    @pytest.mark.parametrize("workload", ["bitcount", "stringsearch"])
    def test_byte_identical_to_per_point(self, tmp_path, workload):
        scalar = _pipeline(tmp_path, "scalar")
        expected = [_row(scalar.execute(r)) for r in _requests(workload)]

        gridpipe = _pipeline(tmp_path, "grid")
        before = kernel_stats().snapshot()
        grid = gridpipe.execute_grid(_requests(workload))
        delta = kernel_stats().delta(before)

        assert isinstance(grid, GridResult)
        assert [_row(r) for r in grid.results] == expected
        assert grid.eval_sims_skipped == len(SPECS) - 1
        assert grid.train_sims_skipped == len(SPECS) - 1
        assert delta.grid_points == len(SPECS)
        telemetry = grid.telemetry()
        assert telemetry["points"] == len(SPECS)
        assert telemetry["grid_points"] == len(SPECS)

    def test_reference_kernels_fall_back_per_point(self, tmp_path):
        """The frozen references batch nothing (``ap_trace_grid`` loops
        over periods, ``combine_grid`` over (AP set, period) cells):
        execute_grid on them must still return the kernels' per-point
        results.  The two higher points: at 1.05 no control DTS reaches
        an error probability, so the report would not see the
        references at all."""
        scalar = _pipeline(tmp_path, "scalar")
        specs = SPECS[1:]
        expected = [
            _row(scalar.execute(r)) for r in _requests(specs=specs)
        ]
        gridpipe = _pipeline(tmp_path, "grid")
        with reference_kernels():
            grid = gridpipe.execute_grid(_requests(specs=specs))
        assert [_row(r) for r in grid.results] == expected

    def test_warm_grid_and_scalar_interop(self, tmp_path):
        """A warm grid re-run serves every point from the store, and a
        later single-point scalar job hits the grid's artifacts."""
        gridpipe = _pipeline(tmp_path, "grid")
        cold = gridpipe.execute_grid(_requests())
        warm = gridpipe.execute_grid(_requests())
        assert warm.control_cache_hits == len(SPECS)
        assert [_row(r) for r in warm.results] == [
            _row(r) for r in cold.results
        ]

        single = gridpipe.execute(_requests()[1])
        assert single.cache_hit
        assert _row(single) == _row(cold.results[1])


class TestGridRequest:
    def test_build_collects_speculations(self):
        grid = GridRequest.build(_requests())
        assert grid.speculations == SPECS
        doc = grid.to_doc()
        assert doc["schema"] == GridRequest.SCHEMA
        assert doc["speculations"] == list(SPECS)
        assert doc["base"]["workload"] == "bitcount"
        assert "speculation" not in doc["base"]

    def test_content_hash_is_stable(self):
        a = GridRequest.build(_requests())
        b = GridRequest.build(_requests())
        assert a.content_hash == b.content_hash
        c = GridRequest.build(_requests(specs=(1.05, 1.10)))
        assert a.content_hash != c.content_hash

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            GridRequest.build([])

    def test_rejects_mixed_workloads(self):
        mixed = _requests() + _requests("stringsearch", specs=(1.25,))
        with pytest.raises(ValueError, match="identical up to speculation"):
            GridRequest.build(mixed)

    def test_rejects_mixed_budgets(self):
        odd = EstimationRequest(
            workload="bitcount", speculation=1.25,
            train_instructions=4_000, max_instructions=9_999,
        )
        with pytest.raises(ValueError, match="identical up to speculation"):
            GridRequest.build(_requests() + [odd])

    def test_base_identity_ignores_speculation_only(self):
        a, b = _requests(specs=(1.05, 1.20))
        assert GridRequest.base_identity(a) == GridRequest.base_identity(b)
        other = EstimationRequest(
            workload="bitcount", speculation=1.05,
            train_instructions=4_000, max_instructions=6_000, seed=3,
        )
        # seed is excluded from identity_doc, so it cannot split a grid
        assert GridRequest.base_identity(a) == GridRequest.base_identity(
            other
        )


class TestModuleEntry:
    def test_execute_grid_function_matches_method(self, tmp_path):
        """The module-level entry and the pipeline delegate agree."""
        pipe = _pipeline(tmp_path, "fn")
        specs = (1.10,)
        via_fn = execute_grid(pipe, _requests(specs=specs))
        via_method = _pipeline(tmp_path, "meth").execute_grid(
            _requests(specs=specs)
        )
        assert _row(via_fn.results[0]) == _row(via_method.results[0])
