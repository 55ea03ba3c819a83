"""Tests for the datapath timing model and its feature extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Instruction, Opcode, OpClass
from repro.cpu.interpreter import StepRecord
from repro.dta.datapath import (
    DatapathSample,
    DatapathTimingModel,
    FEATURE_NAMES,
    carry_chain_length,
    extract_features,
)


class TestCarryChain:
    def test_no_carry(self):
        assert carry_chain_length(0b0101, 0b1010) == 0

    def test_full_ripple(self):
        assert carry_chain_length(0xFFFF, 1) == 16

    def test_partial_chain(self):
        # 0b0111 + 0b0001: the carry is generated at bit 0 and propagates
        # through the two following propagate positions — 3 bits total.
        assert carry_chain_length(0b0111, 0b0001) == 3

    def test_cin_starts_chain(self):
        assert carry_chain_length(0b0011, 0, cin=1) == 2

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_bounds(self, a, b):
        c = carry_chain_length(a, b)
        assert 0 <= c <= 16

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_symmetry(self, a, b):
        assert carry_chain_length(a, b) == carry_chain_length(b, a)


class TestFeatures:
    def _rec(self, a, b, r=0, idx=0):
        return StepRecord(idx, a, b, r, idx + 1)

    def test_feature_vector_length(self):
        ins = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        f = extract_features(ins, self._rec(5, 7), None)
        assert len(f) == len(FEATURE_NAMES)

    def test_adder_carry_feature(self):
        ins = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
        f = extract_features(ins, self._rec(0xFFFF, 1), None)
        assert f[FEATURE_NAMES.index("carry_chain")] == 16

    def test_sub_uses_complemented_operand(self):
        ins = Instruction(Opcode.SUB, rd=1, rs1=2, rs2=3)
        # a - a: complement chain a + ~a + 1 ripples fully.
        f = extract_features(ins, self._rec(0x00FF, 0x00FF), None)
        assert f[FEATURE_NAMES.index("carry_chain")] == 16

    def test_shift_amount_feature(self):
        ins = Instruction(Opcode.SLL, rd=1, rs1=2, rs2=3)
        f = extract_features(ins, self._rec(1, 13), None)
        assert f[FEATURE_NAMES.index("shamt")] == 13

    def test_toggle_features_use_previous(self):
        ins = Instruction(Opcode.AND, rd=1, rs1=2, rs2=3)
        prev = self._rec(0x0F0F, 0x0001, r=0x1111)
        f = extract_features(ins, self._rec(0xF0F0, 0x0001, r=0x1111), prev)
        assert f[FEATURE_NAMES.index("toggle_a")] == 16
        assert f[FEATURE_NAMES.index("toggle_b")] == 0
        assert f[FEATURE_NAMES.index("toggle_r")] == 0

    def test_flushed_previous_is_zero_baseline(self):
        ins = Instruction(Opcode.AND, rd=1, rs1=2, rs2=3)
        f = extract_features(ins, self._rec(0x00FF, 0), None)
        assert f[FEATURE_NAMES.index("toggle_a")] == 8


class TestModelFit:
    def _samples(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(n):
            feats = np.ones(len(FEATURE_NAMES))
            feats[1] = rng.integers(0, 17)
            feats[2:] = rng.integers(0, 17, size=len(FEATURE_NAMES) - 2)
            arrival = 100.0 + 50.0 * feats[1] + rng.normal(0, 2)
            samples.append(
                DatapathSample(OpClass.ADDER, feats, arrival, 10.0)
            )
        return samples

    def test_learns_linear_relation(self):
        model = DatapathTimingModel()
        model.fit(self._samples())
        f_short = np.ones(len(FEATURE_NAMES))
        f_short[1] = 2
        f_long = np.ones(len(FEATURE_NAMES))
        f_long[1] = 14
        m_short, _ = model.predict_arrival(OpClass.ADDER, f_short)
        m_long, _ = model.predict_arrival(OpClass.ADDER, f_long)
        assert m_long[0] - m_short[0] == pytest.approx(600.0, rel=0.15)

    def test_predictions_clamped_to_training_range(self):
        model = DatapathTimingModel()
        samples = self._samples()
        model.fit(samples)
        arrivals = [s.arrival for s in samples]
        f_extreme = np.ones(len(FEATURE_NAMES)) * 100.0
        mean, _ = model.predict_arrival(OpClass.ADDER, f_extreme)
        assert mean[0] <= max(arrivals) + 1e-9
        f_tiny = np.zeros(len(FEATURE_NAMES))
        mean, _ = model.predict_arrival(OpClass.ADDER, f_tiny)
        assert mean[0] >= min(arrivals) - 1e-9

    def test_unknown_class_uses_fallback(self):
        model = DatapathTimingModel()
        model.fit(self._samples())
        mean, sd = model.predict_arrival(
            OpClass.MULT, np.ones(len(FEATURE_NAMES))
        )
        assert np.isfinite(mean).all() and (sd > 0).all()

    def test_unfitted_model_rejects_prediction(self):
        with pytest.raises(RuntimeError):
            DatapathTimingModel().predict_arrival(
                OpClass.ADDER, np.ones(len(FEATURE_NAMES))
            )

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            DatapathTimingModel().fit([])

    def test_predict_slack_inverts_arrival(self):
        model = DatapathTimingModel()
        model.fit(self._samples())
        f = np.ones(len(FEATURE_NAMES))
        f[1] = 8
        mean, sd = model.predict_arrival(OpClass.ADDER, f)
        slack = model.predict_slack(OpClass.ADDER, f, 2000.0, 30.0)[0]
        assert slack.mean == pytest.approx(2000.0 - 30.0 - mean[0])
        assert slack.std == pytest.approx(sd[0])


class TestTrainedOnPipeline:
    def test_trainer_produces_model(self, small_pipeline, library):
        from repro.dta import DatapathTrainer, InstructionDTSAnalyzer
        from repro.dta.algorithm1 import StageDTSAnalyzer
        from repro.logicsim.simulator import LevelizedSimulator
        from repro.logicsim.stimulus import StimulusEncoder
        from repro.netlist import EndpointKind
        from repro.variation import ProcessVariationModel

        analyzer = InstructionDTSAnalyzer(
            StageDTSAnalyzer(
                small_pipeline.netlist,
                library,
                ProcessVariationModel(small_pipeline.netlist, library),
                endpoint_kind=EndpointKind.DATA,
            )
        )
        trainer = DatapathTrainer(
            small_pipeline, analyzer, library.setup_time,
            LevelizedSimulator(small_pipeline.netlist),
            StimulusEncoder(small_pipeline),
        )
        model, samples = trainer.train(samples_per_class=6, seed=1)
        assert model.trained
        assert len(samples) == 6 * 8  # 8 op classes
        arrivals = np.array([s.arrival for s in samples])
        assert (arrivals >= 0).all()
        assert arrivals.max() > 100.0  # something non-trivial activated
