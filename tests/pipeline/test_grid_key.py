"""The one grouping rule (:func:`repro.pipeline.grid.grid_key`): which
requests may share a grid pass, for the pipeline, the batch engine and
the service's micro-batcher alike."""

import dataclasses
import json

import pytest

from repro import api
from repro.core.request import EstimationRequest
from repro.netlist import PipelineConfig
from repro.pipeline.grid import grid_key
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.runner import EstimationEngine
from repro.service import batch_key, form_batches
from repro.workloads import load_workload

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)

BUDGETS = dict(train_instructions=4_000, max_instructions=6_000, seed=0)


def _request(workload="bitcount", **overrides):
    return EstimationRequest(workload=workload, **dict(BUDGETS, **overrides))


def _impostor():
    """The stringsearch program under the name ``bitcount``."""
    return dataclasses.replace(load_workload("stringsearch"), name="bitcount")


def _same_named_pair():
    return [
        _request(load_workload("bitcount"), speculation=1.05),
        _request(_impostor(), speculation=1.20),
    ]


def _rows(summary):
    return [
        json.dumps(r.report.to_json(include_timing=False), sort_keys=True)
        for r in summary.results
    ]


class TestGridKey:
    def test_workload_objects_key_on_identity(self):
        workload = load_workload("bitcount")
        assert grid_key(_request(workload, speculation=1.05)) == grid_key(
            _request(workload, speculation=1.20)
        )
        a, b = _same_named_pair()
        assert grid_key(a) != grid_key(b)
        assert grid_key(a) != grid_key(_request())

    def test_service_batch_key_is_the_grid_key(self):
        request = _request(speculation=1.10, core_family="ooo-tomasulo")
        doc = api.request_to_json(request)
        assert batch_key(doc) == grid_key(request)

    def test_unparseable_documents_never_coalesce(self):
        good = api.request_to_json(_request())
        bad = dict(good, core_family="no-such-family")
        batches = form_batches(
            [("a", bad, 0.0), ("b", dict(bad), 1.0), ("c", good, 2.0)],
            max_points=16,
        )
        assert [b.job_ids for b in batches] == [["a"], ["b"], ["c"]]


class TestSameNamedWorkloadObjects:
    """Two different workload objects sharing a name must never share a
    grid pass: the second point would be evaluated on the first
    request's program."""

    def test_execute_grid_rejects_the_pair(self):
        pipeline = EstimationPipeline(SMALL, n_data_samples=32)
        with pytest.raises(ValueError, match="identical up to speculation"):
            pipeline.execute_grid(_same_named_pair())

    def test_engine_returns_each_requests_solo_report(self):
        def engine():
            return EstimationEngine(SMALL, n_data_samples=32)

        requests = _same_named_pair()
        summary = engine().run(requests)
        assert summary.failed == []
        assert summary.grid_batches == 0
        solo = [row for r in requests for row in _rows(engine().run([r]))]
        assert _rows(summary) == solo
        assert summary.results[0].report.static_instructions != (
            summary.results[1].report.static_instructions
        )
