"""Unit tests for the instruction error model's probability machinery."""

import numpy as np
import pytest

from repro.cfg import build_cfg
from repro.core import ProcessorModel
from repro.core.collect import BlockExecutionSample, SimulationCollector
from repro.core.errormodel import InstructionErrorModel, _SAFE_SLACK
from repro.cpu import FunctionalSimulator, MachineState, assemble
from repro.dta.characterize import ControlTimingModel
from repro.netlist import PipelineConfig, generate_pipeline
from repro.pipeline.pipeline import EstimationPipeline
from repro.sta import Gaussian


@pytest.fixture(scope="module")
def env():
    pipeline = generate_pipeline(
        PipelineConfig(
            data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
            cloud_gates=60, seed=7,
        )
    )
    proc = ProcessorModel(pipeline=pipeline)
    program = assemble(
        """
        li r1, 25
    loop:
        mul r2, r2, r1
        add r3, r3, r2
        subcc r1, r1, 1
        bne loop
        halt
    """,
        name="em-toy",
    )
    cfg = build_cfg(program)
    collector = SimulationCollector(cfg)
    FunctionalSimulator(program).run(
        MachineState(), listener=collector.listener
    )
    estimator = EstimationPipeline(proc)
    artifacts = estimator.train(program)
    estimator._dta.characterize_missing(artifacts, collector.samples())
    model = InstructionErrorModel(
        proc, program, cfg, artifacts.control_model
    )
    return proc, program, cfg, collector, model, artifacts


class TestProbabilityHelper:
    def test_negative_mean_high_probability(self):
        p = InstructionErrorModel._probability(
            np.array([-50.0]), np.array([100.0])
        )
        assert p[0] > 0.99

    def test_positive_mean_low_probability(self):
        p = InstructionErrorModel._probability(
            np.array([50.0]), np.array([100.0])
        )
        assert p[0] < 0.01

    def test_zero_variance_step(self):
        p = InstructionErrorModel._probability(
            np.array([-1.0, 1.0, 0.0]), np.zeros(3)
        )
        np.testing.assert_array_equal(p, [1.0, 0.0, 0.0])

    def test_symmetry_at_zero(self):
        p = InstructionErrorModel._probability(
            np.array([0.0]), np.array([25.0])
        )
        assert p[0] == pytest.approx(0.5)


class TestControlArrays:
    def test_safe_sentinel_for_missing_control(self, env):
        proc, program, cfg, collector, model, artifacts = env
        # Use a block/instruction whose control model entry is None (the
        # common case at the calibrated period).
        bid = next(iter(collector.samples()))
        key_found = None
        for (b, pred, k), g in artifacts.control_model.normal.items():
            if g is None:
                key_found = (b, pred, k)
                break
        if key_found is None:
            pytest.skip("every control entry is risky at this period")
        b, pred, k = key_found
        means, variances = model._control_arrays(b, k, [pred], False)
        assert means[0] == _SAFE_SLACK
        assert variances[0] == 0.0


class TestBlockProbabilities:
    def test_shapes_and_bounds(self, env):
        proc, program, cfg, collector, model, _ = env
        samples = collector.samples()
        bid = max(samples, key=lambda b: cfg.block(b).size)
        bp = model.block_probabilities(bid, samples[bid], n_samples=32)
        assert bp.pc.shape == (cfg.block(bid).size, 32)
        assert ((bp.pc >= 0) & (bp.pc <= 1)).all()
        assert ((bp.pe >= 0) & (bp.pe <= 1)).all()

    def test_deterministic_per_seed(self, env):
        proc, program, cfg, collector, model, _ = env
        samples = collector.samples()
        bid = next(iter(samples))
        a = model.block_probabilities(bid, samples[bid], 16, seed=5)
        b = model.block_probabilities(bid, samples[bid], 16, seed=5)
        np.testing.assert_array_equal(a.pc, b.pc)

    def test_empty_samples_rejected(self, env):
        _, _, _, _, model, _ = env
        with pytest.raises(ValueError, match="no execution samples"):
            model.block_probabilities(0, [], 8)

    def test_faster_clock_raises_probabilities(self, env):
        proc, program, cfg, collector, _, artifacts = env
        samples = collector.samples()
        bid = max(samples, key=lambda b: cfg.block(b).size)

        def mean_p(period):
            fast = ProcessorModel(
                pipeline=proc.pipeline, library=proc.library,
                clock_period_override=period,
            )
            fast.__dict__["datapath_model"] = proc.datapath_model
            m = InstructionErrorModel(
                fast, program, cfg, artifacts.control_model
            )
            return float(
                m.block_probabilities(bid, samples[bid], 24).pc.mean()
            )

        slow_p = mean_p(proc.clock_period * 1.2)
        fast_p = mean_p(proc.clock_period * 0.8)
        assert fast_p > slow_p
