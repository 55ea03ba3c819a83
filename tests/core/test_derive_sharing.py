"""Derived operating points use their base processor's engines.

Only Algorithm 1's slack evaluation depends on the clock period, so a
point derived from a processor must build none of the period-independent
engines (variation model, path enumerator, SSTA, DTA analyzers, stimulus
encoder, trained datapath model) itself: it reads the base's, built once
on first use.
"""

import threading

import numpy as np
import pytest

from repro.cfg import build_cfg
from repro.core import ProcessorModel
from repro.core.collect import SimulationCollector
from repro.cpu import FunctionalSimulator, MachineState, assemble
from repro.cpu.pipeline import InstructionWindow
from repro.dta import algorithm1
from repro.dta.windowpool import ActivityCache
from repro.logicsim.stimulus import StimulusEncoder
from repro.netlist import PipelineConfig
from repro.pipeline import stages
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore
from repro.variation import process

SMALL_PIPELINE = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)


@pytest.fixture(scope="module")
def base(small_pipeline):
    return ProcessorModel(pipeline=small_pipeline)


def _count_constructions(monkeypatch, cls) -> list:
    calls = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls


class TestSharedEngines:
    @pytest.mark.parametrize(
        "engine",
        ["variation", "enumerator", "sta", "ssta", "control_analyzer",
         "data_analyzer", "logic_simulator"],
    )
    def test_derived_point_reads_the_base_engine(self, base, engine):
        point = base.derive(speculation=1.3)
        assert getattr(point, engine) is getattr(base, engine)

    def test_derived_points_share_one_stimulus_encoder(self, base):
        program = assemble(
            """
            li r1, 9
        loop:
            add r2, r2, r1
            sll r3, r2, r1
            subcc r1, r1, 1
            bne loop
            halt
        """,
            name="encoder-sharing",
        )
        collector = SimulationCollector(build_cfg(program))
        FunctionalSimulator(program).run(
            MachineState(), listener=collector.listener
        )
        records = [
            r for blk in collector.samples().values() for r in blk[0].records
        ]
        points = [base.derive(speculation=s) for s in (1.1, 1.3)]
        characterizers = [
            stages.build_characterizer(p, program, ActivityCache())
            for p in points
        ]
        assert all(c.encoder is base.stimulus_encoder for c in characterizers)
        schedule = points[0].make_scheduler(program).schedule(
            InstructionWindow(records)
        )
        fresh = StimulusEncoder(base.pipeline).encode_schedule(schedule)
        for characterizer in characterizers:
            encoded = characterizer.encoder.encode_schedule(schedule)
            assert np.array_equal(encoded, fresh)

    def test_datapath_model_is_trained_once_on_the_base(self, base):
        point = base.derive(speculation=1.05)
        model = point.datapath_model
        assert base.has_engine("datapath_model")
        assert model is base.datapath_model
        assert base.derive(speculation=1.4).datapath_model is model

    def test_point_of_a_point_shares_the_root(self, base):
        point = base.derive(speculation=1.2).derive(speculation=1.25)
        assert point.base is base
        assert point.control_analyzer is base.control_analyzer

    def test_engines_are_built_lazily_on_the_base(self, small_pipeline):
        fresh = ProcessorModel(pipeline=small_pipeline)
        point = fresh.derive(speculation=1.3)
        assert not fresh.has_engine("ssta")
        _ = point.ssta
        assert fresh.has_engine("ssta")
        assert not fresh.has_engine("datapath_model")

    def test_a_build_does_not_wait_for_unrelated_engines(
        self, small_pipeline, monkeypatch
    ):
        fresh = ProcessorModel(pipeline=small_pipeline)
        training, release = threading.Event(), threading.Event()

        def slow_training(processor):
            training.set()
            release.wait(30)
            return "model"

        monkeypatch.setattr(
            ProcessorModel.__dict__["datapath_model"], "build", slow_training
        )
        trainer = threading.Thread(target=lambda: fresh.datapath_model)
        trainer.start()
        try:
            assert training.wait(30)
            point = fresh.derive(speculation=1.3)
            builder = threading.Thread(target=lambda: point.ssta)
            builder.start()
            builder.join(10)
            assert not builder.is_alive(), "ssta waited for training"
            assert fresh.has_engine("ssta")
        finally:
            release.set()
            trainer.join()
        assert point.datapath_model == "model"

    def test_an_attached_engine_stays_on_its_processor(self, base):
        point = base.derive(speculation=1.1)
        point.ssta = "attached"
        assert point.ssta == "attached"
        assert base.ssta != "attached"
        assert base.derive(speculation=1.1).ssta is base.ssta


class TestDatapathEntry:
    KEY = "dp" + "0" * 62

    def test_truncated_entry_under_a_warm_base_is_rewritten(
        self, base, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        point = base.derive(speculation=1.1)
        assert stages.ensure_datapath(point, self.KEY, store) is False
        assert stages.ensure_datapath(point, self.KEY, store) is True
        path = store.path_for("datapath", self.KEY)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert stages.ensure_datapath(point, self.KEY, store) is False
        assert store.stats["datapath"]["corrupt"] == 1
        entry = ArtifactStore(tmp_path).get_entry("datapath", self.KEY)
        assert entry is not None and entry["model"]

    def test_a_loaded_model_is_decoded_once_per_base(
        self, base, small_pipeline, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        assert stages.ensure_datapath(base, self.KEY, store) is False
        fresh = ProcessorModel(pipeline=small_pipeline)
        reader = ArtifactStore(tmp_path)
        assert stages.ensure_datapath(
            fresh.derive(speculation=1.2), self.KEY, reader
        ) is True
        model = fresh.datapath_model
        assert stages.ensure_datapath(
            fresh.derive(speculation=1.3), self.KEY, reader
        ) is True
        assert fresh.datapath_model is model


class TestBaselinePeriod:
    def test_matching_yield_and_droop_share_the_base_period(self, base):
        point = base.derive(speculation=1.3)
        assert point.baseline_period == base.baseline_period
        assert point.clock_period == base.baseline_period / 1.3

    def test_other_yield_quantile_solves_its_own(self, base, small_pipeline):
        point = base.derive(yield_quantile=0.95)
        fresh = ProcessorModel(pipeline=small_pipeline, yield_quantile=0.95)
        assert point.baseline_period == fresh.baseline_period
        assert point.baseline_period != base.baseline_period

    def test_other_droop_solves_its_own(self, base, small_pipeline):
        point = base.derive(droop_guardband=1.0)
        fresh = ProcessorModel(pipeline=small_pipeline, droop_guardband=1.0)
        assert point.baseline_period == fresh.baseline_period


class TestNothingRebuilt:
    def test_derive_builds_no_variation_model(self, base, monkeypatch):
        _ = base.variation
        calls = _count_constructions(
            monkeypatch, process.ProcessVariationModel
        )
        point = base.derive(speculation=1.17, yield_quantile=0.99)
        assert point.variation is base.variation
        _ = point.baseline_period
        assert calls == []

    def test_new_points_construct_no_analyzer(self, monkeypatch):
        config = ProcessorConfig(pipeline=SMALL_PIPELINE)
        pipeline = EstimationPipeline(config, store=None)
        first = pipeline.processor_for(1.01)
        _ = first.control_analyzer, first.data_analyzer, first.clock_period
        calls = _count_constructions(
            monkeypatch, algorithm1.StageDTSAnalyzer
        )
        for speculation in (1.02, 1.06, 1.11, 1.21, 1.33):
            point = pipeline.processor_for(speculation)
            assert point.speculation == speculation
            _ = point.control_analyzer, point.data_analyzer
            _ = point.clock_period
        assert calls == []

    def test_a_point_keeps_its_identity_per_pipeline(self):
        pipeline = EstimationPipeline(
            ProcessorConfig(pipeline=SMALL_PIPELINE), store=None
        )
        assert pipeline.processor_for(1.07) is pipeline.processor_for(1.07)
        assert pipeline.processor_for(1.07).base is pipeline.processor
