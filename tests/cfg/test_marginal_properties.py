"""Property tests for the marginal solver on random CFG structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import as_rng
from repro.cfg import BlockProbabilities, MarginalSolver, build_cfg
from repro.cfg.cfg import ENTRY_EDGE
from repro.cpu import FunctionalSimulator, MachineState, assemble


def _random_program_source(seed: int) -> str:
    """A random but always-terminating branchy program."""
    rng = as_rng(seed)
    n_blocks = int(rng.integers(3, 7))
    lines = [f"    li r1, {int(rng.integers(5, 30))}"]
    for b in range(n_blocks):
        lines.append(f"blk{b}:")
        for _ in range(int(rng.integers(1, 4))):
            op = ["add", "xor", "mul", "srl"][int(rng.integers(4))]
            lines.append(
                f"    {op} r{int(rng.integers(2, 8))}, "
                f"r{int(rng.integers(2, 8))}, {int(rng.integers(1, 16))}"
            )
        if b + 1 < n_blocks and rng.random() < 0.5:
            # Conditional back edge driven by the loop counter.
            lines.append("    subcc r1, r1, 1")
            target = int(rng.integers(0, b + 1))
            lines.append(f"    bne blk{target}")
    lines.append("    halt")
    return "\n".join(lines)


def _profile_and_probs(seed: int, pc_scale: float, pe_scale: float):
    program = assemble(_random_program_source(seed))
    cfg = build_cfg(program)
    from repro.cfg import EdgeProfiler

    profiler = EdgeProfiler(cfg)
    FunctionalSimulator(program).run(
        MachineState(), max_instructions=100_000,
        listener=profiler.listener,
    )
    profile = profiler.profile()
    rng = as_rng(seed + 1)
    probs = {}
    for bid in profile.executed_blocks():
        n = cfg.block(bid).size
        probs[bid] = BlockProbabilities(
            pc=rng.random((n, 3)) * pc_scale,
            pe=rng.random((n, 3)) * pe_scale,
        )
    return cfg, profile, probs


@given(st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_marginals_always_valid_probabilities(seed):
    cfg, profile, probs = _profile_and_probs(seed, 0.3, 0.9)
    marginals, p_in = MarginalSolver(cfg, profile).solve(probs)
    for rows in marginals.values():
        assert np.isfinite(rows).all()
        assert ((rows >= -1e-12) & (rows <= 1 + 1e-12)).all()
    for v in p_in.values():
        assert ((v >= 0) & (v <= 1)).all()


@given(st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_fixed_point_residual_is_zero(seed):
    """Eq. 2 holds exactly at the solver's solution."""
    cfg, profile, probs = _profile_and_probs(seed, 0.2, 0.7)
    marginals, p_in = MarginalSolver(cfg, profile).solve(probs)
    for bid in marginals:
        act = profile.activation_probabilities(cfg, bid)
        expected = np.zeros_like(p_in[bid])
        for pred, pa in act.items():
            if pred == ENTRY_EDGE:
                expected += pa * 1.0
            else:
                expected += pa * marginals[pred][-1]
        np.testing.assert_allclose(p_in[bid], expected, atol=1e-9)


@given(st.integers(0, 120))
@settings(max_examples=20, deadline=None)
def test_marginal_between_conditionals(seed):
    """Each marginal is a convex combination of p^c and p^e, so it lies
    between them elementwise."""
    cfg, profile, probs = _profile_and_probs(seed, 0.3, 0.9)
    marginals, p_in = MarginalSolver(cfg, profile).solve(probs)
    for bid, rows in marginals.items():
        lo = np.minimum(probs[bid].pc, probs[bid].pe)
        hi = np.maximum(probs[bid].pc, probs[bid].pe)
        assert (rows >= lo - 1e-9).all()
        assert (rows <= hi + 1e-9).all()


@given(st.integers(0, 80))
@settings(max_examples=15, deadline=None)
def test_zero_conditionals_give_zero_marginals(seed):
    cfg, profile, probs = _profile_and_probs(seed, 0.0, 0.0)
    marginals, p_in = MarginalSolver(cfg, profile).solve(probs)
    for rows in marginals.values():
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)
