"""End-to-end tests of the staged :class:`EstimationPipeline`.

Covers the refactor's acceptance criteria: the ``dta.kernels`` and
``dta.reference`` backends produce byte-identical reports, and a warm
second run against a shared store reports a hit for every
period-independent stage.
"""

import json

import pytest

from repro.core import EstimationRequest
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)


def _request(**overrides):
    kwargs = dict(
        workload="bitcount", train_instructions=4_000,
        max_instructions=6_000, seed=0,
    )
    kwargs.update(overrides)
    return EstimationRequest(**kwargs)


def _row(report) -> str:
    return json.dumps(report.to_json(include_timing=False), sort_keys=True)


@pytest.fixture(scope="module")
def processor():
    return SMALL.build()


@pytest.fixture(scope="module")
def kernels_row(processor):
    pipeline = EstimationPipeline(processor, n_data_samples=32)
    return _row(pipeline.run(_request()))


class TestShimMatchesPipeline:
    def test_reference_backend_is_byte_identical(self, processor, kernels_row):
        pipeline = EstimationPipeline(
            processor, backends={"dta": "reference"}, n_data_samples=32
        )
        assert _row(pipeline.run(_request())) == kernels_row


class TestStoreAwareExecution:
    def test_warm_run_hits_every_persistable_stage(self, tmp_path):
        cold = EstimationPipeline(
            SMALL, store=ArtifactStore(tmp_path), n_data_samples=32
        ).execute(_request())
        assert not cold.cache_hit
        assert cold.event("netlist").status == "computed"
        assert cold.event("datapath").status == "computed"
        assert cold.event("dta").status == "computed"
        assert cold.event("windows").status == "computed"

        warm = EstimationPipeline(
            SMALL, store=ArtifactStore(tmp_path), n_data_samples=32
        ).execute(_request())
        assert warm.cache_hit
        assert warm.event("datapath").status == "hit"
        assert warm.event("dta").status == "hit"
        assert warm.event("windows").status == "hit"
        assert warm.windows_preloaded > 0
        assert _row(warm.report) == _row(cold.report)

    def test_speculation_sweep_reuses_period_independent_windows(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        first = EstimationPipeline(
            SMALL, store=store, n_data_samples=32
        ).execute(_request())
        swept = EstimationPipeline(
            SMALL, store=store, n_data_samples=32
        ).execute(_request(speculation=1.25))
        # New clock period: the control model must be recharacterized,
        # but every logic simulation comes out of the windows artifact.
        assert not swept.cache_hit
        assert swept.event("dta").status == "computed"
        assert swept.event("windows").status == "hit"
        assert swept.windows_preloaded > 0
        training = swept.report.to_json()["timing"]["kernels_training"]
        assert training["sim_calls"] == 0
        assert training["windows_reused"] > 0
        assert _row(swept.report) != _row(first.report)

    def test_prebuilt_processor_runs_storeless(self, processor, kernels_row):
        pipeline = EstimationPipeline(processor, n_data_samples=32)
        assert pipeline.store is None
        result = pipeline.execute(_request())
        assert result.event("netlist").status == "provided"
        assert result.event("datapath").status == "computed"
        assert result.event("windows") is None
        assert _row(result.report) == kernels_row

    def test_describe_reports_plan_and_store(self, tmp_path):
        pipeline = EstimationPipeline(SMALL, store=ArtifactStore(tmp_path))
        doc = pipeline.describe()
        assert doc["schema"] == "repro.pipeline/1"
        assert len(doc["stages"]) >= 5
        assert doc["plan"]["dta"] == "kernels"
        assert doc["store"]["location"] == str(tmp_path)


class TestStatMinBackends:
    @staticmethod
    def _correlated_set():
        import numpy as np

        from repro.sta.gaussian import Gaussian

        items = [
            Gaussian(1.0, 0.04), Gaussian(1.1, 0.09), Gaussian(0.95, 0.02),
        ]
        cov = np.array(
            [
                [0.040, 0.010, 0.005],
                [0.010, 0.090, 0.008],
                [0.005, 0.008, 0.020],
            ]
        )
        return items, cov

    def test_methods_are_distinct_and_mc_is_seeded(self):
        from repro.sta.ssta import statistical_min

        items, cov = self._correlated_set()
        clark = statistical_min(items, cov, method="clark")
        mc = statistical_min(items, cov, method="montecarlo")
        again = statistical_min(items, cov, method="montecarlo")
        assert (mc.mean, mc.var) == (again.mean, again.var)
        assert (mc.mean, mc.var) != (clark.mean, clark.var)

    def test_use_backends_switches_default_dispatch(self):
        from repro.pipeline.registry import use_backends
        from repro.sta.ssta import statistical_min

        items, cov = self._correlated_set()
        explicit = statistical_min(items, cov, method="montecarlo")
        with use_backends(statmin="montecarlo"):
            ambient = statistical_min(items, cov)
        assert (ambient.mean, ambient.var) == (explicit.mean, explicit.var)
        clark = statistical_min(items, cov)
        assert (clark.mean, clark.var) != (explicit.mean, explicit.var)

    def test_montecarlo_pipeline_run_is_repeatable(self, processor):
        def run_mc():
            pipeline = EstimationPipeline(
                processor,
                backends={"statmin": "montecarlo"},
                n_data_samples=32,
            )
            return _row(pipeline.run(_request()))

        assert run_mc() == run_mc(), "seeded Monte Carlo must be repeatable"
