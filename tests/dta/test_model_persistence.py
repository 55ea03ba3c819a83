"""Tests for trained-model serialization (control + datapath)."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.cpu.isa import OpClass
from repro.dta.characterize import ControlTimingModel
from repro.dta.datapath import (
    DatapathSample,
    DatapathTimingModel,
    FEATURE_NAMES,
)
from repro.dta.regression import BaggedTrees, RegressionTree
from repro.sta import Gaussian


def _samples(n=60, seed=0):
    rng = as_rng(seed)
    out = []
    for _ in range(n):
        feats = np.ones(len(FEATURE_NAMES))
        feats[1:] = rng.integers(0, 17, size=len(FEATURE_NAMES) - 1)
        arrival = 80.0 + 45.0 * feats[1] + rng.normal(0, 3)
        klass = [OpClass.ADDER, OpClass.MULT][int(rng.integers(2))]
        out.append(DatapathSample(klass, feats, arrival, 12.0))
    return out


class TestRegressionTreePersistence:
    def test_tree_roundtrip_predictions(self):
        rng = as_rng(1)
        x = rng.uniform(0, 10, size=(120, 3))
        y = np.where(x[:, 0] < 5, 1.0, 9.0) + x[:, 1]
        tree = RegressionTree(max_depth=5).fit(x, y)
        again = RegressionTree.from_dict(tree.to_dict())
        np.testing.assert_array_equal(tree.predict(x), again.predict(x))

    def test_ensemble_roundtrip_predictions(self):
        rng = as_rng(2)
        x = rng.uniform(0, 10, size=(150, 2))
        y = np.where(x[:, 0] < 4, 2.0, 7.0)
        bagged = BaggedTrees(n_trees=5).fit(x, y)
        again = BaggedTrees.from_dict(bagged.to_dict())
        m1, s1 = bagged.predict_with_spread(x)
        m2, s2 = again.predict_with_spread(x)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(s1, s2)


class TestDatapathModelPersistence:
    @pytest.mark.parametrize("kind", ["linear", "tree"])
    def test_roundtrip_predictions(self, kind):
        model = DatapathTimingModel(kind)
        model.fit(_samples())
        again = DatapathTimingModel.from_json(model.to_json())
        assert again.model_kind == kind
        rng = as_rng(3)
        f = np.ones((20, len(FEATURE_NAMES)))
        f[:, 1:] = rng.integers(0, 17, size=(20, len(FEATURE_NAMES) - 1))
        for klass in (OpClass.ADDER, OpClass.MULT, OpClass.LOGIC):
            m1, s1 = model.predict_arrival(klass, f)
            m2, s2 = again.predict_arrival(klass, f)
            np.testing.assert_allclose(m1, m2)
            np.testing.assert_allclose(s1, s2)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            DatapathTimingModel().to_json()


class TestControlModelPersistence:
    def test_roundtrip(self):
        model = ControlTimingModel()
        model.record((0, -1, 0), Gaussian(12.5, 2.25), None)
        model.record((0, -1, 1), None, Gaussian(-3.0, 1.0))
        model.record((2, 0, 0), Gaussian(5.0, 0.5), Gaussian(4.0, 0.5))
        again = ControlTimingModel.from_json(model.to_json())
        assert len(again) == len(model)
        for key in model.normal:
            for table in ("normal", "corrected"):
                a = getattr(model, table)[key]
                b = getattr(again, table)[key]
                if a is None:
                    assert b is None
                else:
                    assert b.mean == pytest.approx(a.mean)
                    assert b.var == pytest.approx(a.var)

    def test_fallback_survives_roundtrip(self):
        model = ControlTimingModel()
        model.record((1, 7, 0), Gaussian(9.0, 1.0), Gaussian(8.0, 1.0))
        again = ControlTimingModel.from_json(model.to_json())
        normal, _ = again.get(1, 99, 0)  # unseen edge -> fallback
        assert normal.mean == pytest.approx(9.0)

    def test_mismatched_tables_rejected(self):
        import json

        model = ControlTimingModel()
        model.record((0, -1, 0), None, None)
        doc = json.loads(model.to_json())
        doc["corrected"] = []
        with pytest.raises(ValueError, match="disagree"):
            ControlTimingModel.from_json(json.dumps(doc))


class TestEndToEndPersistence:
    def test_trained_models_roundtrip_through_estimate(self):
        """A persisted-and-reloaded model pair reproduces the estimate."""
        from repro.core import ProcessorModel
        from repro.cpu import assemble
        from repro.netlist import PipelineConfig, generate_pipeline
        from repro.pipeline.pipeline import EstimationPipeline

        pipeline = generate_pipeline(
            PipelineConfig(
                data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                cloud_gates=60, seed=7,
            )
        )
        proc = ProcessorModel(pipeline=pipeline)
        program = assemble(
            "li r1, 30\nloop: mul r2, r2, r1\nsubcc r1, r1, 1\n"
            "bne loop\nhalt",
            name="persist-toy",
        )
        estimator = EstimationPipeline(proc, n_data_samples=32)
        artifacts = estimator.train(program)
        baseline = estimator.estimate(program, artifacts)

        # Persist and reload both trained models.
        from repro.dta.characterize import ControlTimingModel
        from repro.dta.datapath import DatapathTimingModel

        artifacts.control_model = ControlTimingModel.from_json(
            artifacts.control_model.to_json()
        )
        proc.__dict__["datapath_model"] = DatapathTimingModel.from_json(
            proc.datapath_model.to_json()
        )
        again = estimator.estimate(program, artifacts)
        assert again.error_rate_mean == pytest.approx(
            baseline.error_rate_mean
        )

    def test_artifacts_save_load(self, tmp_path):
        """TrainingArtifacts round-trip through disk."""
        from repro.core import ProcessorModel
        from repro.cpu import assemble
        from repro.netlist import PipelineConfig, generate_pipeline
        from repro.pipeline.pipeline import EstimationPipeline

        pipeline = generate_pipeline(
            PipelineConfig(
                data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                cloud_gates=60, seed=7,
            )
        )
        proc = ProcessorModel(pipeline=pipeline)
        program = assemble(
            "li r1, 20\nloop: add r2, r2, r1\nsubcc r1, r1, 1\n"
            "bne loop\nhalt",
            name="artifacts-toy",
        )
        estimator = EstimationPipeline(proc, n_data_samples=24)
        artifacts = estimator.train(program)
        path = tmp_path / "artifacts.json"
        artifacts.save(path)
        reloaded = estimator.load_artifacts(program, path)
        assert len(reloaded.control_model) == len(artifacts.control_model)
        r1 = estimator.estimate(program, artifacts)
        r2 = estimator.estimate(program, reloaded)
        assert r2.error_rate_mean == pytest.approx(r1.error_rate_mean)


class TestArtifactPeriodGuard:
    """Persisted artifacts refuse to load at a different clock period."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        from repro.core import ProcessorModel
        from repro.cpu import assemble
        from repro.netlist import PipelineConfig, generate_pipeline
        from repro.pipeline.pipeline import EstimationPipeline

        pipeline = generate_pipeline(
            PipelineConfig(
                data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                cloud_gates=60, seed=7,
            )
        )
        proc = ProcessorModel(pipeline=pipeline, speculation=1.10)
        program = assemble(
            "li r1, 12\nloop: add r2, r2, r1\nsubcc r1, r1, 1\n"
            "bne loop\nhalt",
            name="period-toy",
        )
        estimator = EstimationPipeline(proc, n_data_samples=16)
        artifacts = estimator.train(program)
        path = tmp_path_factory.mktemp("artifacts") / "trained.json"
        artifacts.save(path)
        return proc, program, path

    def test_doc_records_clock_period(self, trained):
        import json

        proc, _, path = trained
        doc = json.loads(path.read_text())
        assert doc["clock_period"] == pytest.approx(proc.clock_period)

    def test_same_period_loads(self, trained):
        from repro.pipeline.pipeline import EstimationPipeline

        proc, program, path = trained
        reloaded = EstimationPipeline(proc).load_artifacts(program, path)
        assert len(reloaded.control_model) > 0

    def test_other_period_refused(self, trained):
        from repro.pipeline.pipeline import EstimationPipeline

        proc, program, path = trained
        faster = proc.derive(speculation=1.25)
        with pytest.raises(ValueError, match="clock period"):
            EstimationPipeline(faster).load_artifacts(program, path)

    def test_legacy_doc_without_period_refused(self, trained):
        import json

        from repro.pipeline.pipeline import EstimationPipeline

        proc, program, path = trained
        doc = json.loads(path.read_text())
        del doc["clock_period"]
        legacy = path.with_name("legacy.json")
        legacy.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="clock period"):
            EstimationPipeline(proc).load_artifacts(program, legacy)
