"""Tests for the EstimationRequest API and Workload.run_spec."""

import pytest

from repro.core import EstimationRequest, ProcessorModel
from repro.cpu import assemble
from repro.netlist import PipelineConfig, generate_pipeline
from repro.pipeline.pipeline import EstimationPipeline
from repro.workloads import load_workload


class TestValidation:
    def test_defaults_are_valid(self):
        request = EstimationRequest(workload="bitcount")
        assert request.train_scale == "small"
        assert request.eval_scale == "large"

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            EstimationRequest(workload="bitcount", train_scale="huge")

    def test_rejects_bad_speculation(self):
        with pytest.raises(ValueError):
            EstimationRequest(workload="bitcount", speculation=0.0)

    def test_rejects_bad_reservoir(self):
        with pytest.raises(ValueError):
            EstimationRequest(workload="bitcount", reservoir_size=0)


class TestIdentity:
    def test_workload_name_from_string_and_object(self):
        by_name = EstimationRequest(workload="bitcount")
        by_object = EstimationRequest(workload=load_workload("bitcount"))
        assert by_name.workload_name == "bitcount"
        assert by_object.workload_name == "bitcount"
        assert by_name.identity_doc() == by_object.identity_doc()

    def test_resolve_workload(self):
        request = EstimationRequest(workload="bitcount")
        assert request.resolve_workload().name == "bitcount"
        with pytest.raises(ValueError):
            EstimationRequest(workload="doom3").resolve_workload()

    def test_explicit_seed_wins(self):
        request = EstimationRequest(workload="bitcount", seed=42)
        assert request.resolved_seed() == 42

    def test_derived_seed_is_deterministic(self):
        a = EstimationRequest(workload="bitcount")
        assert a.resolved_seed() == a.resolved_seed()
        assert (
            a.resolved_seed()
            == EstimationRequest(workload="bitcount").resolved_seed()
        )
        b = EstimationRequest(workload="bitcount", speculation=1.2)
        assert a.resolved_seed() != b.resolved_seed()

    def test_describe_mentions_operating_point(self):
        request = EstimationRequest(workload="bitcount", speculation=1.2)
        text = request.describe()
        assert "bitcount" in text
        assert "1.2" in text


class TestRunSpec:
    def test_run_spec_matches_parts(self):
        workload = load_workload("bitcount")
        program, setup, budget = workload.run_spec("small")
        assert program is workload.program
        assert budget == workload.budget("small")
        assert callable(setup)

    def test_run_spec_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            load_workload("bitcount").run_spec("huge")


class TestEstimatorRun:
    @pytest.fixture(scope="class")
    def estimator(self):
        pipeline = generate_pipeline(
            PipelineConfig(
                data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                cloud_gates=60, seed=7,
            )
        )
        return EstimationPipeline(
            ProcessorModel(pipeline=pipeline), n_data_samples=32
        )

    def test_run_equals_manual_train_estimate(self, estimator):
        request = EstimationRequest(
            workload="bitcount",
            train_instructions=4_000,
            max_instructions=6_000,
            seed=0,
        )
        report = estimator.run(request)

        workload = load_workload("bitcount")
        program, train_setup, _ = workload.run_spec("small")
        artifacts = estimator.train(
            program, setup=train_setup, max_instructions=4_000
        )
        _, eval_setup, _ = workload.run_spec("large")
        manual = estimator.estimate(
            program, artifacts, setup=eval_setup,
            max_instructions=6_000, seed=0,
        )
        assert report.error_rate_mean == pytest.approx(
            manual.error_rate_mean
        )
        assert report.total_instructions == manual.total_instructions

    def test_run_accepts_precomputed_artifacts(self, estimator):
        request = EstimationRequest(
            workload="bitcount",
            train_instructions=4_000,
            max_instructions=6_000,
            seed=0,
        )
        baseline = estimator.run(request)
        workload = load_workload("bitcount")
        program, train_setup, _ = workload.run_spec("small")
        artifacts = estimator.train(
            program, setup=train_setup, max_instructions=4_000
        )
        again = estimator.run(request, artifacts=artifacts)
        assert again.error_rate_mean == pytest.approx(
            baseline.error_rate_mean
        )
