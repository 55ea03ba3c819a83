"""Ablation ``abl-poisson`` — validating the limit-theorem approximations.

The paper replaces the (intractable) Poisson binomial with a Poisson
mixture and bounds the error analytically; at reproduction scale we can
check the approximations directly:

  * exact Poisson binomial vs Poisson for independent small-probability
    indicators (the Le Cam regime the law of rare events promises);
  * the Eq. 14 mixture vs Monte Carlo over the *dependent* indicator
    chain of a real benchmark, with the Chen–Stein bound as the certified
    ceiling.
"""

import numpy as np
import pytest
from scipy import stats as sstats

from conftest import print_table
from repro._util import as_rng
from repro.cfg import MarginalSolver
from repro.core.collect import SimulationCollector
from repro.core.errormodel import InstructionErrorModel
from repro.cpu import FunctionalSimulator, MachineState
from repro.pipeline import stages
from repro.pipeline.pipeline import EstimationPipeline
from repro.sta import Gaussian
from repro.stats import (
    IndicatorChainSimulator,
    PoissonGaussianMixture,
    chen_stein_bound,
    poisson_binomial_cdf,
    stein_normal_bound,
)
from repro.workloads import load_workload


def test_poisson_limit_regime(benchmark):
    """Exact PBD -> Poisson as indicators grow and probabilities shrink."""

    def distances():
        rng = as_rng(3)
        out = []
        for n, scale in ((100, 0.05), (1000, 0.005), (10000, 0.0005)):
            p = rng.random(n) * 2 * scale
            lam = p.sum()
            kmax = int(lam + 10 * np.sqrt(lam) + 10)
            exact = poisson_binomial_cdf(p, max_count=kmax)
            pois = sstats.poisson.cdf(np.arange(kmax + 1), lam)
            out.append((n, float(np.abs(exact - pois).max())))
        return out

    rows = benchmark.pedantic(distances, rounds=1, iterations=1)
    print_table(
        ["indicators", "d_K(PBD, Poisson)"],
        [[n, round(d, 5)] for n, d in rows],
        "ablation: law of rare events",
    )
    dists = [d for _, d in rows]
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-3


def test_mixture_vs_dependent_chain(benchmark, processor):
    """Eq. 14 vs Monte Carlo over the dependent indicator chain.

    The comparison uses bitcount's *small* run so each Monte Carlo walk
    replays the whole program (a partial walk would over-weight the
    program's start-up phase relative to the profile the analytic model
    mixes with).  The chain additionally randomizes loop trip counts —
    variance the paper's fixed-``e_i`` formulation does not model — so the
    observed gap is checked against bound + MC noise + a small structural
    allowance.
    """

    def run():
        workload = load_workload("bitcount")
        estimator = EstimationPipeline(processor)
        artifacts = estimator.train(
            workload.program,
            setup=workload.setup(workload.dataset("small")),
            max_instructions=workload.budget("small"),
        )
        collector = SimulationCollector(artifacts.cfg)
        state = MachineState()
        workload.setup(workload.dataset("small"))(state)
        block_trace: list[int] = []
        is_leader = [False] * len(workload.program)
        for blk in artifacts.cfg.blocks:
            is_leader[blk.start] = True
        block_of = artifacts.cfg.block_of_instruction

        def listener(pc, a, b, r, nxt):
            collector.listener(pc, a, b, r, nxt)
            if is_leader[pc]:
                block_trace.append(block_of[pc])

        FunctionalSimulator(workload.program).run(
            state, max_instructions=workload.budget("small"),
            listener=listener,
        )
        profile = collector.profile()
        stages.characterize_missing(artifacts, collector.samples())
        error_model = InstructionErrorModel(
            processor, workload.program, artifacts.cfg,
            artifacts.control_model,
        )
        conditionals = error_model.all_block_probabilities(
            collector.samples(), n_samples=128
        )
        marginals, p_in = MarginalSolver(
            artifacts.cfg, profile
        ).solve(conditionals)
        executions = {
            bid: int(profile.block_counts[bid])
            for bid in profile.executed_blocks()
        }
        stein = stein_normal_bound(marginals, executions)
        chen = chen_stein_bound(
            marginals,
            {bid: bp.pe for bid, bp in conditionals.items()},
            p_in,
            executions,
        )
        mixture = PoissonGaussianMixture(
            Gaussian(stein.mean, stein.variance)
        )
        chain = IndicatorChainSimulator(
            artifacts.cfg,
            profile,
            {bid: bp.pc for bid, bp in conditionals.items()},
            {bid: bp.pe for bid, bp in conditionals.items()},
        )
        counts = chain.sample_error_counts_on_trace(
            block_trace, 300, seed_or_rng=1
        )
        grid = np.arange(0, counts.max() + 5)
        empirical = chain.empirical_cdf(counts, grid)
        analytic = np.asarray(mixture.cdf(grid))
        gap = float(np.abs(empirical - analytic).max())
        return (
            gap,
            chen.d_kolmogorov,
            stein.d_kolmogorov_empirical,
            len(counts),
        )

    gap, chen_bound, stein_emp, n_walks = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    mc_noise = 1.36 / np.sqrt(n_walks)
    total = chen_bound + stein_emp + mc_noise
    print_table(
        ["quantity", "value"],
        [
            ["observed d_K(MC, Eq.14 mixture)", round(gap, 4)],
            ["Chen-Stein bound (Poisson part)", round(chen_bound, 4)],
            ["d_K(lambda, normal) (CLT part)", round(stein_emp, 4)],
            ["MC resolution (95% KS band)", round(mc_noise, 4)],
            ["combined ceiling (Section 6.4)", round(total, 4)],
        ],
        "ablation: Poisson-mixture accuracy",
    )
    # Section 6.4 combines the two approximation errors; the observed gap
    # must sit within their sum (plus Monte Carlo resolution).
    assert gap <= total + 0.02
