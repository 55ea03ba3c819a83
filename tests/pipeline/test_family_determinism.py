"""Cross-family determinism: the same request is stable per family.

Satellite of the core-family refactor: a request answered by the
``ooo-tomasulo`` family must be byte-identical regardless of how it is
executed — through the batch engine or a direct pipeline, grid or
per-point —
and the two families must each be internally deterministic while
producing *different* reports (the family genuinely changes the model).
"""

import json

import pytest

from repro.core import EstimationRequest
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.runner import EstimationEngine

SMALL = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)

BUDGETS = dict(train_instructions=4_000, max_instructions=6_000, seed=0)


def _request(**overrides):
    fields = dict(BUDGETS, workload="bitcount")
    fields.update(overrides)
    return EstimationRequest(**fields)


def _row(report) -> str:
    return json.dumps(report.to_json(include_timing=False), sort_keys=True)


def _pipeline(family, **kwargs):
    return EstimationPipeline(
        ProcessorConfig(pipeline=SMALL, core_family=family),
        n_data_samples=32,
        **kwargs,
    )


@pytest.fixture(scope="module")
def ooo_serial_row():
    pipeline = _pipeline("ooo-tomasulo")
    return _row(pipeline.run(_request(core_family="ooo-tomasulo")))


class TestSameRequestBothFamilies:
    def test_families_run_and_differ(self, ooo_serial_row):
        inorder = _pipeline("inorder6")
        inorder_row = _row(inorder.run(_request()))
        assert inorder_row != ooo_serial_row  # the family changes the model

    def test_dispatch_matches_direct_pipeline(self, ooo_serial_row):
        # An inorder-based pipeline answering an ooo request via family
        # dispatch must agree with a pipeline built for ooo directly.
        base = _pipeline("inorder6")
        result = base.execute(_request(core_family="ooo-tomasulo"))
        assert _row(result.report) == ooo_serial_row


class TestOoOExecutorStability:
    def test_serial_rerun_is_byte_identical(self, ooo_serial_row):
        again = _pipeline("ooo-tomasulo")
        assert _row(again.run(_request(core_family="ooo-tomasulo"))) == (
            ooo_serial_row
        )

    def test_engine_row_matches_pipeline(self, ooo_serial_row):
        """An ooo job run through the batch engine, next to a job of
        another program, matches a direct pipeline run."""
        engine = EstimationEngine(
            ProcessorConfig(pipeline=SMALL, core_family="ooo-tomasulo"),
            n_data_samples=32,
        )
        summary = engine.run(
            [
                _request(core_family="ooo-tomasulo"),
                _request(core_family="ooo-tomasulo", workload="stringsearch"),
            ]
        )
        assert summary.failed == []
        assert _row(summary.results[0].report) == ooo_serial_row


class TestOoOGridStability:
    def test_grid_matches_per_point(self):
        specs = (1.10, 1.25)
        requests = [
            _request(core_family="ooo-tomasulo", speculation=s)
            for s in specs
        ]
        grid_pipe = _pipeline("ooo-tomasulo")
        grid_rows = [
            _row(r.report) for r in grid_pipe.execute_grid(requests).results
        ]
        scalar_pipe = _pipeline("ooo-tomasulo")
        scalar_rows = [
            _row(scalar_pipe.execute(r).report) for r in requests
        ]
        assert grid_rows == scalar_rows
