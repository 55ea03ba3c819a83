"""Parity of the shared block segmentation with the frozen listeners.

``EdgeProfiler`` is the one block-segmenting listener; the two
collectors extend it.  Each one must keep exactly what its frozen
stand-alone predecessor (``tests/_reference.py``) kept: the profile,
every reservoir in slot order, the edge-window map, and the reservoir
generator's next draw.
"""

import numpy as np
import pytest

from repro.cfg import EdgeProfiler, build_cfg
from repro.core import SimulationCollector
from repro.cpu import FunctionalSimulator, MachineState, assemble
from repro.dta.characterize import ControlSampleCollector
from repro.workloads import load_workload
from tests import _reference

WORKLOADS = ["bitcount", "dijkstra", "gsm.decode", "patricia",
             "stringsearch", "typeset"]
BUDGETS = [6, 997, 20_000, 123_457]
RESERVOIRS = [8, 160]
TAILS = [2, 5]


def _run(workload, budget):
    """Run the frozen and the new listeners side by side on one run."""
    program, setup, _ = load_workload(workload).run_spec("small")
    cfg = build_cfg(program)
    pairs = [(_reference.EdgeProfiler(cfg), EdgeProfiler(cfg))]
    pairs += [
        (
            _reference.SimulationCollector(cfg, reservoir_size=size),
            SimulationCollector(cfg, reservoir_size=size),
        )
        for size in RESERVOIRS
    ]
    pairs += [
        (
            _reference.ControlSampleCollector(cfg, tail_length=tail),
            ControlSampleCollector(cfg, tail_length=tail),
        )
        for tail in TAILS
    ]
    listeners = [c.listener for pair in pairs for c in pair]

    def listener(pc, a, b, r, nxt):
        for each in listeners:
            each(pc, a, b, r, nxt)

    state = MachineState()
    setup(state)
    FunctionalSimulator(program).run(
        state, max_instructions=budget, listener=listener
    )
    return pairs


def _assert_profiles_equal(got, want):
    np.testing.assert_array_equal(got.block_counts, want.block_counts)
    assert got.block_counts.dtype == want.block_counts.dtype
    assert got.edge_counts == want.edge_counts
    assert list(got.edge_counts) == list(want.edge_counts)
    assert got.total_instructions == want.total_instructions


def _assert_samples_equal(got, want):
    """Profile, reservoirs in slot order, and the generator's next draw."""
    _assert_profiles_equal(got.profile(), want.profile())
    assert list(got.samples().items()) == list(want.samples().items())
    assert got._rng.integers(1 << 62) == want._rng.integers(1 << 62)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_listeners_match_frozen_reference(workload, budget):
    pairs = _run(workload, budget)
    (ref_ep, new_ep), sim_pairs, control_pairs = pairs[0], pairs[1:3], pairs[3:]
    _assert_profiles_equal(new_ep.profile(), ref_ep.result())
    for ref, new in sim_pairs:
        _assert_samples_equal(new, ref)
    for ref, new in control_pairs:
        assert list(new.samples.items()) == list(ref.samples.items())


@pytest.mark.parametrize(
    "collector",
    [EdgeProfiler, SimulationCollector, ControlSampleCollector],
    ids=lambda cls: cls.__name__,
)
def test_execution_must_start_at_a_leader(collector):
    program, setup, _ = load_workload("bitcount").run_spec("small")
    cfg = build_cfg(program)
    state = MachineState()
    setup(state)
    state.pc = next(b for b in cfg.blocks if b.size > 1).start + 1
    listener = collector(cfg).listener
    with pytest.raises(AssertionError, match="block leader"):
        FunctionalSimulator(program).run(
            state, max_instructions=10, listener=listener
        )


def test_budget_cut_frees_its_reserved_slot():
    """An execution cut off by the budget after a full reservoir drew its
    slot leaves that slot empty, as the frozen collector dropped it."""
    program = assemble(
        """
        li r1, 40
    loop:
        add r2, r2, r1
        subcc r1, r1, 1
        bne loop
        halt
    """
    )
    cfg = build_cfg(program)
    for budget in range(1, 3 * 40 + 3):
        for size in (1, 2):
            ref = _reference.SimulationCollector(cfg, reservoir_size=size)
            new = SimulationCollector(cfg, reservoir_size=size)
            for collector in (ref, new):
                FunctionalSimulator(program).run(
                    MachineState(), max_instructions=budget,
                    listener=collector.listener,
                )
            _assert_samples_equal(new, ref)
