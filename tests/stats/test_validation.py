"""Tests for the dependent-indicator Monte Carlo simulator."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.cfg import EdgeProfiler, build_cfg
from repro.cpu import FunctionalSimulator, MachineState, assemble
from repro.stats import IndicatorChainSimulator


@pytest.fixture
def loop_setup():
    # A long loop keeps walk restarts (which re-enter the flushed p_in = 1
    # state) rare relative to the sampled instruction budget.
    program = assemble(
        """
        li r1, 400
    loop:
        subcc r1, r1, 1
        bne loop
        halt
    """
    )
    cfg = build_cfg(program)
    profiler = EdgeProfiler(cfg)
    FunctionalSimulator(program).run(
        MachineState(), listener=profiler.listener
    )
    return cfg, profiler.profile()


def _uniform(cfg, prof, pc_val, pe_val, s=4):
    pc, pe = {}, {}
    for bid in prof.executed_blocks():
        n = cfg.block(bid).size
        pc[bid] = np.full((n, s), pc_val)
        pe[bid] = np.full((n, s), pe_val)
    return pc, pe


class TestIndicatorChain:
    def test_zero_probability_no_errors(self, loop_setup):
        cfg, prof = loop_setup
        pc, pe = _uniform(cfg, prof, 0.0, 0.0)
        sim = IndicatorChainSimulator(cfg, prof, pc, pe)
        assert sim.sample_error_count(500, as_rng(0)) == 0

    def test_certain_probability_all_errors(self, loop_setup):
        cfg, prof = loop_setup
        pc, pe = _uniform(cfg, prof, 1.0, 1.0)
        sim = IndicatorChainSimulator(cfg, prof, pc, pe)
        n = 500
        count = sim.sample_error_count(n, as_rng(0))
        assert count >= n  # block granularity may slightly overshoot

    def test_mean_matches_independent_case(self, loop_setup):
        cfg, prof = loop_setup
        p = 0.05
        pc, pe = _uniform(cfg, prof, p, p)
        sim = IndicatorChainSimulator(cfg, prof, pc, pe)
        counts = sim.sample_error_counts(400, 1000, as_rng(1))
        assert counts.mean() / 1000 == pytest.approx(p, rel=0.1)

    def test_dependence_raises_variance(self, loop_setup):
        """p^e >> p^c clusters errors, inflating the count variance."""
        cfg, prof = loop_setup
        p_marginal = 0.05
        pc_i, pe_i = _uniform(cfg, prof, p_marginal, p_marginal)
        ind = IndicatorChainSimulator(cfg, prof, pc_i, pe_i)
        # Dependent chain tuned to the same marginal: p = pc + (pe-pc) p
        # -> pc = p (1 - pe) / (1 - p) with pe large.
        pe_val = 0.8
        pc_val = p_marginal * (1 - pe_val) / (1 - p_marginal)
        pc_d, pe_d = _uniform(cfg, prof, pc_val, pe_val)
        dep = IndicatorChainSimulator(cfg, prof, pc_d, pe_d)
        rng = as_rng(2)
        ci = ind.sample_error_counts(300, 2000, rng)
        cd = dep.sample_error_counts(300, 2000, rng)
        # Means agree up to the flushed-restart transients (each program
        # restart enters with p_in = 1, and with pe = 0.8 the elevated
        # state takes ~1/(1-pe) instructions to decay).
        assert cd.mean() == pytest.approx(ci.mean(), rel=0.25)
        assert cd.var() > 1.5 * ci.var()

    def test_empirical_cdf(self, loop_setup):
        cfg, prof = loop_setup
        pc, pe = _uniform(cfg, prof, 0.01, 0.01)
        sim = IndicatorChainSimulator(cfg, prof, pc, pe)
        counts = np.array([1, 2, 2, 5])
        grid = np.array([0, 1, 2, 3, 5, 6])
        np.testing.assert_allclose(
            sim.empirical_cdf(counts, grid),
            [0.0, 0.25, 0.75, 0.75, 1.0, 1.0],
        )

    def test_fixed_sample_index_deterministic_probabilities(self, loop_setup):
        cfg, prof = loop_setup
        rng = as_rng(3)
        pc, pe = {}, {}
        for bid in prof.executed_blocks():
            n = cfg.block(bid).size
            pc[bid] = np.stack(
                [np.zeros(4), np.ones(4) * 0.5], axis=1
            )[:n] if n <= 4 else None
            pc[bid] = np.column_stack(
                [np.zeros(n), np.full(n, 0.5)]
            )
            pe[bid] = pc[bid]
        sim = IndicatorChainSimulator(cfg, prof, pc, pe)
        # Sample 0 has probability zero everywhere.
        assert sim.sample_error_count(300, as_rng(4), sample_index=0) == 0
        assert sim.sample_error_count(300, as_rng(4), sample_index=1) > 0
