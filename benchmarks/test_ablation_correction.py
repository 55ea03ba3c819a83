"""Ablation ``abl-correction`` — the error-correction conditioning.

Section 4.1's point: after a corrected error the next instruction launches
from the state the correction mechanism induced, so instruction error
probabilities are *conditional* (p^c vs p^e); ignoring the distinction
(classic DTA would use p^c everywhere) biases both the marginal
probabilities and the Chen–Stein dependence terms.  This ablation
quantifies the bias on a real benchmark.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.cfg import MarginalSolver
from repro.cfg.marginal import BlockProbabilities
from repro.core.collect import SimulationCollector
from repro.core.errormodel import InstructionErrorModel
from repro.cpu import FunctionalSimulator, MachineState
from repro.pipeline.pipeline import EstimationPipeline
from repro.stats import chen_stein_bound
from repro.workloads import load_workload


def _conditionals(processor, workload):
    estimator = EstimationPipeline(processor)
    artifacts = estimator.train(
        workload.program,
        setup=workload.setup(workload.dataset("small")),
        max_instructions=workload.budget("small"),
    )
    collector = SimulationCollector(artifacts.cfg)
    state = MachineState()
    workload.setup(workload.dataset("large"))(state)
    FunctionalSimulator(workload.program).run(
        state,
        max_instructions=250_000,
        listener=collector.listener,
    )
    estimator._dta.characterize_missing(artifacts, collector.samples())
    error_model = InstructionErrorModel(
        processor, workload.program, artifacts.cfg, artifacts.control_model
    )
    conditionals = error_model.all_block_probabilities(
        collector.samples(), n_samples=96
    )
    return artifacts.cfg, collector.profile(), conditionals


def _lambda_and_bound(cfg, profile, conditionals):
    marginals, p_in = MarginalSolver(cfg, profile).solve(conditionals)
    executions = {
        bid: int(profile.block_counts[bid])
        for bid in profile.executed_blocks()
    }
    lam = sum(
        executions[bid] * marginals[bid].sum(axis=0).mean()
        for bid in marginals
    )
    chen = chen_stein_bound(
        marginals,
        {bid: bp.pe for bid, bp in conditionals.items()},
        p_in,
        executions,
    )
    return float(lam), chen


def test_conditioning_effect(benchmark, processor):
    workload = load_workload("gsm.decode")

    def run():
        cfg, profile, conditionals = _conditionals(processor, workload)
        full_lam, full_chen = _lambda_and_bound(cfg, profile, conditionals)
        # Ablated model: ignore the correction effect (p^e := p^c).
        ablated = {
            bid: BlockProbabilities(pc=bp.pc, pe=bp.pc)
            for bid, bp in conditionals.items()
        }
        abl_lam, abl_chen = _lambda_and_bound(cfg, profile, ablated)
        n = profile.total_instructions
        return {
            "full": (100 * full_lam / n, full_chen.d_kolmogorov),
            "ablated": (100 * abl_lam / n, abl_chen.d_kolmogorov),
        }

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        ["model", "mean ER %", "d_K(R_E) bound"],
        [
            ["with p^e conditioning", round(out["full"][0], 4),
             round(out["full"][1], 4)],
            ["p^e := p^c (ablated)", round(out["ablated"][0], 4),
             round(out["ablated"][1], 4)],
        ],
        "ablation: error-correction conditioning",
    )
    er_full, dk_full = out["full"]
    er_abl, dk_abl = out["ablated"]
    # The conditioning changes the estimate measurably (the flushed state
    # activates different paths than the errant instruction's state)...
    assert er_full != pytest.approx(er_abl, rel=1e-3)
    # ...and both remain in a plausible range.
    assert 0.01 < er_full < 5.0 and 0.01 < er_abl < 5.0
