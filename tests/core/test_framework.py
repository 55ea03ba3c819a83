"""End-to-end tests of the estimation framework (EstimationPipeline).

Uses a reduced pipeline and a small program so the full train->estimate
flow runs in seconds, then checks the statistical invariants the paper's
construction guarantees.
"""

import numpy as np
import pytest

from repro.core import ProcessorModel
from repro.cpu import assemble
from repro.netlist import PipelineConfig, generate_pipeline
from repro.pipeline.pipeline import EstimationPipeline

SRC = """
    li r1, 60
outer:
    li r2, 9
    li r3, 1
inner:
    mul r4, r3, r1
    add r3, r3, r4
    xor r5, r3, r2
    subcc r2, r2, 1
    bne inner
    st r3, [r1+0x200]
    ld r6, [r1+0x200]
    addcc r6, r6, r3
    subcc r1, r1, 1
    bne outer
    halt
"""


@pytest.fixture(scope="module")
def estimator():
    pipeline = generate_pipeline(
        PipelineConfig(
            data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
            cloud_gates=60, seed=7,
        )
    )
    proc = ProcessorModel(pipeline=pipeline)
    return EstimationPipeline(proc, n_data_samples=64)


@pytest.fixture(scope="module")
def program():
    return assemble(SRC, name="framework-toy")


@pytest.fixture(scope="module")
def report(estimator, program):
    artifacts = estimator.train(program)
    return estimator.estimate(program, artifacts, seed=1)


class TestTraining:
    def test_artifacts_cover_blocks(self, estimator, program):
        artifacts = estimator.train(program)
        assert len(artifacts.control_model) > 0
        assert artifacts.training_seconds > 0
        assert artifacts.training_instructions > 100


class TestReportInvariants:
    def test_error_rate_in_unit_range(self, report):
        assert 0.0 <= report.error_rate_mean <= 100.0
        assert report.error_rate_sd >= 0.0

    def test_lambda_consistency(self, report):
        # Error rate is the mixture mean over the instruction count.
        expected = 100.0 * report.lam.mean / report.total_instructions
        assert report.error_rate_mean == pytest.approx(expected)

    def test_mixture_variance_exceeds_poisson(self, report):
        # Var(N_E) = E[lambda] + Var(lambda) >= E[lambda].
        assert report.mixture.variance >= report.lam.mean * 0.99

    def test_cdf_monotone(self, report):
        grid = report.error_rate_grid(60)
        assert (np.diff(grid["cdf"]) >= -1e-12).all()

    def test_bounds_bracket_cdf(self, report):
        grid = report.error_rate_grid(60)
        assert (grid["lower"] <= grid["cdf"] + 0.01).all()
        assert (grid["upper"] >= grid["cdf"] - 0.01).all()

    def test_bound_distances_reported(self, report):
        assert 0.0 <= report.d_k_lambda <= 1.0
        assert 0.0 <= report.d_k_rate <= 1.0
        assert report.d_k_lambda_bound >= 0.0

    def test_table_row_fields(self, report):
        row = report.table_row()
        assert row["benchmark"] == "framework-toy"
        assert row["instructions"] == report.total_instructions
        assert row["total_s"] == pytest.approx(
            row["training_s"] + row["simulation_s"], abs=0.02
        )

    def test_str_mentions_benchmark(self, report):
        assert "framework-toy" in str(report)


class TestDeterminism:
    def test_estimate_reproducible(self, estimator, program):
        a1 = estimator.train(program)
        r1 = estimator.estimate(program, a1, seed=3)
        a2 = estimator.train(program)
        r2 = estimator.estimate(program, a2, seed=3)
        assert r1.error_rate_mean == pytest.approx(r2.error_rate_mean)
        assert r1.d_k_rate == pytest.approx(r2.d_k_rate)


class TestCorrectionEffect:
    def test_conditional_probabilities_differ(self, estimator, program):
        """p^e must differ from p^c somewhere (the correction effect)."""
        from repro.core.collect import SimulationCollector
        from repro.core.errormodel import InstructionErrorModel
        from repro.cpu import FunctionalSimulator, MachineState

        artifacts = estimator.train(program)
        collector = SimulationCollector(artifacts.cfg)
        FunctionalSimulator(program).run(
            MachineState(), listener=collector.listener
        )
        estimator._dta.characterize_missing(artifacts, collector.samples())
        em = InstructionErrorModel(
            estimator.processor, program, artifacts.cfg,
            artifacts.control_model,
        )
        conds = em.all_block_probabilities(
            collector.samples(), n_samples=32
        )
        max_diff = max(
            float(np.abs(bp.pc - bp.pe).max()) for bp in conds.values()
        )
        assert max_diff > 0.0


class TestOnDemandCharacterization:
    def test_missing_pairs_characterized_during_estimate(
        self, estimator, program
    ):
        """Blocks first reached by the evaluation run get characterized
        on demand, and the new pairs show up in characterized_pairs."""
        # A training budget this small cuts the run off inside the first
        # outer iteration, so later blocks/edges are unseen in training.
        artifacts = estimator.train(program, max_instructions=8)
        pairs_before = len(artifacts.control_model)
        report = estimator.estimate(
            program, artifacts, max_instructions=5_000, seed=1
        )
        assert report.characterized_pairs > pairs_before
        assert report.characterized_pairs == len(artifacts.control_model)

    def test_second_estimate_adds_nothing(self, estimator, program):
        artifacts = estimator.train(program, max_instructions=8)
        estimator.estimate(program, artifacts, max_instructions=5_000)
        pairs = len(artifacts.control_model)
        estimator.estimate(program, artifacts, max_instructions=5_000)
        assert len(artifacts.control_model) == pairs

    def test_fallback_edge_matches_first_sorted_pred(
        self, estimator, program
    ):
        """An edge seen only in evaluation resolves through the model's
        fallback: the block's first *recorded* edge.  Characterization
        records in sorted key order, so that edge is deterministic."""
        artifacts = estimator.train(program)
        model = artifacts.control_model
        by_block: dict[int, list[int]] = {}
        for bid, pred, _k in model.normal:
            by_block.setdefault(bid, []).append(pred)
        bid, preds = next(iter(sorted(by_block.items())))
        assert sorted(set(preds))[0] == preds[0]
        unseen = max(preds) + 1_000
        assert model.get(bid, unseen, 0) == model.get(bid, preds[0], 0)


class TestValidation:
    def test_pipeline_keeps_validations(self, estimator):
        with pytest.raises(ValueError):
            EstimationPipeline(estimator.processor, n_data_samples=1)
        with pytest.raises(ValueError):
            EstimationPipeline(estimator.processor, window_workers=0)


class TestFrequencySensitivity:
    def test_error_rate_grows_with_frequency(self, program):
        pipeline = generate_pipeline(
            PipelineConfig(
                data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                cloud_gates=60, seed=7,
            )
        )
        base = ProcessorModel(pipeline=pipeline, speculation=1.10)
        rates = []
        for proc in (base, base.derive(speculation=1.25)):
            est = EstimationPipeline(proc, n_data_samples=48)
            artifacts = est.train(program)
            rates.append(
                est.estimate(program, artifacts).error_rate_mean
            )
        assert rates[1] > rates[0]
