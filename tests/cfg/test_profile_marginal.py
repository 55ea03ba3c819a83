"""Tests for profiling and the marginal-probability solver."""

import numpy as np
import pytest

from repro.cfg import (
    BlockProbabilities,
    EdgeProfiler,
    MarginalSolver,
    build_cfg,
)
from repro.cfg.cfg import ENTRY_EDGE
from repro.cpu import FunctionalSimulator, MachineState, assemble


@pytest.fixture
def loop_program():
    return assemble(
        """
        li r1, 8
    loop:
        subcc r1, r1, 1
        bne loop
        halt
    """
    )


def _profile(program):
    cfg = build_cfg(program)
    profiler = EdgeProfiler(cfg)
    FunctionalSimulator(program).run(
        MachineState(), listener=profiler.listener
    )
    return cfg, profiler.profile()


class TestProfiler:
    def test_block_counts(self, loop_program):
        cfg, prof = _profile(loop_program)
        loop_bid = cfg.block_of_instruction[1]
        assert prof.block_counts[loop_bid] == 8
        assert prof.block_counts[cfg.entry_block] == 1

    def test_activation_probabilities_sum_to_one(self, loop_program):
        cfg, prof = _profile(loop_program)
        for bid in prof.executed_blocks():
            probs = prof.activation_probabilities(cfg, bid)
            assert sum(probs.values()) == pytest.approx(1.0)

    def test_loop_edge_probability(self, loop_program):
        cfg, prof = _profile(loop_program)
        loop_bid = cfg.block_of_instruction[1]
        probs = prof.activation_probabilities(cfg, loop_bid)
        # 7 of 8 entries come from the back edge.
        assert probs[loop_bid] == pytest.approx(7 / 8)

    def test_entry_edge_recorded(self, loop_program):
        cfg, prof = _profile(loop_program)
        assert prof.edge_counts[(ENTRY_EDGE, cfg.entry_block)] == 1

    def test_unexecuted_block_empty(self):
        program = assemble(
            "ba skip\ndead: nop\nba dead\nskip: halt"
        )
        cfg, prof = _profile(program)
        dead_bid = cfg.block_of_instruction[1]
        assert prof.block_counts[dead_bid] == 0
        assert prof.activation_probabilities(cfg, dead_bid) == {}

    def test_total_instructions(self, loop_program):
        _, prof = _profile(loop_program)
        assert prof.total_instructions == 1 + 8 * 2 + 1


def _uniform_probs(cfg, prof, pc_val, pe_val, n_samples=4):
    probs = {}
    for bid in prof.executed_blocks():
        n = cfg.block(bid).size
        probs[bid] = BlockProbabilities(
            pc=np.full((n, n_samples), pc_val),
            pe=np.full((n, n_samples), pe_val),
        )
    return probs


class TestMarginalSolver:
    def test_identical_conditionals_give_marginal_equal(self, loop_program):
        """When p^c == p^e the chain dependence vanishes: p == p^c."""
        cfg, prof = _profile(loop_program)
        solver = MarginalSolver(cfg, prof)
        probs = _uniform_probs(cfg, prof, 0.01, 0.01)
        marginals, p_in = solver.solve(probs)
        for bid, rows in marginals.items():
            np.testing.assert_allclose(rows, 0.01, rtol=1e-12)

    def test_recurrence_hand_computed(self):
        """Single straight-line block: fold Eq. 1 by hand."""
        program = assemble("nop\nnop\nhalt")
        cfg, prof = _profile(program)
        probs = {
            0: BlockProbabilities(
                pc=np.array([[0.1], [0.2], [0.3]]),
                pe=np.array([[0.5], [0.6], [0.7]]),
            )
        }
        marginals, p_in = MarginalSolver(cfg, prof).solve(probs)
        # Entry: p_in = 1 (flushed state).
        np.testing.assert_allclose(p_in[0], 1.0)
        p1 = 0.5 * 1.0 + 0.1 * 0.0
        p2 = 0.6 * p1 + 0.2 * (1 - p1)
        p3 = 0.7 * p2 + 0.3 * (1 - p2)
        np.testing.assert_allclose(
            marginals[0][:, 0], [p1, p2, p3], rtol=1e-12
        )

    def test_cycle_fixed_point(self, loop_program):
        """The loop's input probability satisfies Eq. 2 at the solution."""
        cfg, prof = _profile(loop_program)
        solver = MarginalSolver(cfg, prof)
        probs = _uniform_probs(cfg, prof, 0.02, 0.4, n_samples=1)
        marginals, p_in = solver.solve(probs)
        loop_bid = cfg.block_of_instruction[1]
        act = prof.activation_probabilities(cfg, loop_bid)
        entry_bid = cfg.entry_block
        expected = act[entry_bid] * marginals[entry_bid][-1, 0] + (
            act[loop_bid] * marginals[loop_bid][-1, 0]
        )
        assert p_in[loop_bid][0] == pytest.approx(expected, rel=1e-9)

    def test_agreement_with_monte_carlo_chain(self, loop_program):
        """Marginals match a direct simulation of the indicator chain."""
        from repro._util import as_rng

        cfg, prof = _profile(loop_program)
        probs = _uniform_probs(cfg, prof, 0.05, 0.6, n_samples=1)
        marginals, _ = MarginalSolver(cfg, prof).solve(probs)
        loop_bid = cfg.block_of_instruction[1]

        # Simulate the program's indicator chain many times.
        rng = as_rng(0)
        n_runs = 30000
        hits = np.zeros(2)  # loop block has 2 instructions
        visits = 0
        for _ in range(n_runs):
            err = True  # flushed at program start
            # entry block: 1 instruction (li)
            err = rng.random() < (0.6 if err else 0.05)
            for it in range(8):
                states = []
                for k in range(2):
                    err = rng.random() < (0.6 if err else 0.05)
                    states.append(err)
                hits += states
                visits += 1
        mc = hits / visits
        # Compare the *stationary* marginal (solver gives the edge-weighted
        # marginal, mixing first and subsequent iterations).
        np.testing.assert_allclose(
            marginals[loop_bid][:, 0], mc, atol=0.01
        )

    def test_missing_block_rejected(self, loop_program):
        cfg, prof = _profile(loop_program)
        with pytest.raises(ValueError, match="missing probabilities"):
            MarginalSolver(cfg, prof).solve({})

    def test_wrong_row_count_rejected(self, loop_program):
        cfg, prof = _profile(loop_program)
        probs = _uniform_probs(cfg, prof, 0.1, 0.1)
        bad_bid = prof.executed_blocks()[0]
        probs[bad_bid] = BlockProbabilities(
            pc=np.full((99, 4), 0.1), pe=np.full((99, 4), 0.1)
        )
        with pytest.raises(ValueError, match="instruction rows"):
            MarginalSolver(cfg, prof).solve(probs)

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError, match="outside"):
            BlockProbabilities(
                pc=np.array([[1.5]]), pe=np.array([[0.5]])
            )

    def test_marginals_stay_in_unit_interval(self, loop_program):
        cfg, prof = _profile(loop_program)
        probs = _uniform_probs(cfg, prof, 0.9, 0.99)
        marginals, p_in = MarginalSolver(cfg, prof).solve(probs)
        for rows in marginals.values():
            assert ((rows >= 0) & (rows <= 1)).all()
        for v in p_in.values():
            assert ((v >= 0) & (v <= 1)).all()
