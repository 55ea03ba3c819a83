"""Tests for the per-instruction breakdown API."""

import pytest

from repro.core import ProcessorModel
from repro.cpu import assemble
from repro.netlist import PipelineConfig, generate_pipeline
from repro.pipeline.pipeline import EstimationPipeline


@pytest.fixture(scope="module")
def setup():
    pipeline = generate_pipeline(
        PipelineConfig(
            data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
            cloud_gates=60, seed=7,
        )
    )
    proc = ProcessorModel(pipeline=pipeline)
    program = assemble(
        """
        li r1, 50
    loop:
        mul r2, r2, r1
        add r3, r3, r2
        subcc r1, r1, 1
        bne loop
        halt
    """,
        name="breakdown-toy",
    )
    estimator = EstimationPipeline(proc, n_data_samples=48)
    artifacts = estimator.train(program)
    rows = estimator.instruction_breakdown(program, artifacts)
    return program, estimator, artifacts, rows


def test_rows_cover_executed_instructions(setup):
    program, _, _, rows = setup
    indices = {r["index"] for r in rows}
    # Every instruction except none (all execute in this program).
    assert indices == set(range(len(program)))


def test_shares_sum_to_one(setup):
    _, _, _, rows = setup
    assert sum(r["share"] for r in rows) == pytest.approx(1.0)


def test_sorted_by_contribution(setup):
    _, _, _, rows = setup
    contributions = [r["expected_errors"] for r in rows]
    assert contributions == sorted(contributions, reverse=True)


def test_loop_body_dominates(setup):
    program, _, _, rows = setup
    # The 50x loop instructions must outweigh the one-shot prologue.
    top = rows[0]
    assert top["executions"] == 50


def test_expected_errors_consistent(setup):
    _, _, _, rows = setup
    for r in rows:
        assert r["expected_errors"] == pytest.approx(
            r["executions"] * r["mean_probability"]
        )
        assert 0.0 <= r["mean_probability"] <= 1.0


def test_lambda_matches_estimate(setup):
    program, estimator, artifacts, rows = setup
    report = estimator.estimate(program, artifacts)
    lam_breakdown = sum(r["expected_errors"] for r in rows)
    assert lam_breakdown == pytest.approx(report.lam.mean, rel=0.05)
