"""Validate the limit-theorem approximations against ground truth.

The paper bounds its Poisson/normal approximations analytically because
its simulator is too slow for Monte Carlo (Section 5).  At reproduction
scale we *can* Monte-Carlo the dependent-indicator chain, and for small
cases compute the exact Poisson binomial — so this example closes the
loop: it compares the Eq. 14 mixture CDF against the empirical error-count
distribution and checks that the Chen–Stein bound indeed dominates the
observed approximation error.

Run:  python examples/validate_approximations.py
"""

import numpy as np

from repro.cfg import MarginalSolver, build_cfg
from repro.core import ProcessorModel
from repro.core.collect import SimulationCollector
from repro.cpu import FunctionalSimulator, MachineState
from repro.pipeline import stages
from repro.pipeline.pipeline import EstimationPipeline
from repro.sta import Gaussian
from repro.stats import (
    IndicatorChainSimulator,
    PoissonGaussianMixture,
    chen_stein_bound,
    stein_normal_bound,
)
from repro.workloads import load_workload


def main() -> None:
    workload = load_workload("stringsearch")
    program = workload.program
    processor = ProcessorModel()
    estimator = EstimationPipeline(processor)
    artifacts = estimator.train(
        program, setup=workload.setup(workload.dataset("small"))
    )

    cfg = artifacts.cfg
    simulator = FunctionalSimulator(program)
    state = MachineState()
    workload.setup(workload.dataset("large"))(state)
    collector = SimulationCollector(cfg)
    simulator.run(
        state,
        max_instructions=workload.budget("large"),
        listener=collector.listener,
    )
    profile = collector.profile()
    stages.characterize_missing(artifacts, collector.samples())

    from repro.core.errormodel import InstructionErrorModel

    error_model = InstructionErrorModel(
        processor, program, cfg, artifacts.control_model
    )
    conditionals = error_model.all_block_probabilities(
        collector.samples(), n_samples=128
    )
    marginals, p_in = MarginalSolver(cfg, profile).solve(conditionals)
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
    mixture = PoissonGaussianMixture(Gaussian(stein.mean, stein.variance))
    n_instr = profile.total_instructions

    print(f"benchmark: {workload.name}, {n_instr:,} instructions")
    print(f"lambda ~ N({stein.mean:.1f}, {stein.variance:.1f})")
    print(f"Chen-Stein bound d_K(N_E, Poisson) <= {chen.d_kolmogorov:.4f}")
    print(
        f"Stein bound d_K(lambda, normal)   <= {stein.d_kolmogorov:.4f} "
        f"(measured {stein.d_kolmogorov_empirical:.4f})"
    )

    print("\nMonte Carlo over the dependent indicator chain...")
    chain = IndicatorChainSimulator(
        cfg,
        profile,
        {bid: bp.pc for bid, bp in conditionals.items()},
        {bid: bp.pe for bid, bp in conditionals.items()},
    )
    counts = chain.sample_error_counts(600, n_instr // 20, seed_or_rng=0)
    # Rescale the analytic lambda to the shorter MC walks.
    scale = (n_instr // 20) / n_instr
    mc_mixture = PoissonGaussianMixture(
        Gaussian(stein.mean * scale, stein.variance * scale**2)
    )
    grid = np.arange(0, max(counts.max(), 10) + 1)
    empirical = chain.empirical_cdf(counts, grid)
    analytic = np.asarray(mc_mixture.cdf(grid))
    gap = float(np.abs(empirical - analytic).max())
    mc_noise = 1.36 / np.sqrt(len(counts))  # ~95% KS band for 600 walks

    print(
        f"observed  d_K(empirical, Eq.14 mixture) = {gap:.4f} "
        f"(MC resolution ~{mc_noise:.3f})"
    )
    verdict = (
        "within the Chen-Stein bound"
        if gap <= chen.d_kolmogorov + mc_noise
        else "EXCEEDS the bound (investigate!)"
    )
    print(f"=> {verdict}")

    print(f"\n{'k':>5s} {'empirical':>10s} {'mixture':>9s}")
    step = max(1, len(grid) // 12)
    for k in grid[::step]:
        print(f"{k:5d} {empirical[k]:10.3f} {analytic[k]:9.3f}")


if __name__ == "__main__":
    main()
