"""End-to-end tests of the staged :class:`EstimationPipeline`.

Covers the staged flow's contracts: a run on the frozen scalar kernel
references (``tests/_reference.py``) produces a byte-identical report,
and a warm second run against a shared store reports a hit for every
period-independent stage.
"""

import json
import os
from unittest import mock

import pytest

from repro.core import EstimationRequest
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore
from tests._reference import reference_kernels

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
    def test_reference_kernels_are_byte_identical(self, processor, kernels_row):
        pipeline = EstimationPipeline(
            processor, n_data_samples=32,
        )
        with reference_kernels():
            row = _row(pipeline.run(_request()))
        assert row == kernels_row


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

    def test_persisted_windows_are_not_rewritten(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pipeline = EstimationPipeline(SMALL, store=store, n_data_samples=32)
        cold = pipeline.execute(_request())
        assert cold.event("windows").status == "computed"
        assert store.stats["windows"]["puts"] == 1
        # A new point on the same pipeline recharacterizes the control
        # model, but every window is an activity-cache hit: the windows
        # entry already holds them all and is not written again.
        swept = pipeline.execute(_request(speculation=1.25))
        assert swept.event("dta").status == "computed"
        training = swept.report.to_json()["timing"]["kernels_training"]
        assert training["sim_calls"] == 0
        assert ("windows", "kernels", "computed") not in [
            (e.stage, e.backend, e.status) for e in swept.events
        ]
        assert store.stats["windows"]["puts"] == 1

    def test_second_warm_job_does_not_decode_windows(self, tmp_path):
        store = ArtifactStore(tmp_path)
        EstimationPipeline(SMALL, store=store, n_data_samples=32).execute(
            _request()
        )
        pipeline = EstimationPipeline(SMALL, store=store, n_data_samples=32)
        first = pipeline.execute(_request())
        assert first.windows_preloaded > 0
        namespaces = []
        get_entry = ArtifactStore.get_entry

        def spy(self, namespace, key):
            namespaces.append(namespace)
            return get_entry(self, namespace, key)

        with mock.patch.object(ArtifactStore, "get_entry", spy):
            second = pipeline.execute(_request(speculation=1.25))
        # The pipeline already holds the entry: confirmed, not decoded.
        assert "windows" not in namespaces
        assert second.event("windows").status == "hit"
        assert second.windows_preloaded == 0
        fresh = EstimationPipeline(
            SMALL, store=store, n_data_samples=32
        ).execute(_request(speculation=1.25))
        assert _row(second.report) == _row(fresh.report)

    def test_rewritten_windows_entry_is_decoded_and_preloaded(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        EstimationPipeline(SMALL, store=store, n_data_samples=32).execute(
            _request()
        )
        pipeline = EstimationPipeline(SMALL, store=store, n_data_samples=32)
        assert pipeline.execute(_request()).windows_preloaded > 0
        (path,) = (tmp_path / "windows").glob("*/*.json")
        key = path.stem
        # Another writer replaces the file: same content, new mtime.
        ArtifactStore(tmp_path).put_entry(
            "windows", key, json.loads(path.read_text())
        )
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**6))
        assert not store.unchanged("windows", key)
        real = EstimationPipeline.preload_windows
        with mock.patch.object(
            EstimationPipeline, "preload_windows", autospec=True,
            side_effect=real,
        ) as preload:
            swept = pipeline.execute(_request(speculation=1.25))
        # The decoded document is preloaded, not thrown away.
        preload.assert_called_once()
        assert swept.event("windows").status == "hit"
        assert store.unchanged("windows", key)

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
