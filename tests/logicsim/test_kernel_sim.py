"""Property tests for the batched logic-simulation kernels.

The level-grouped evaluation, the cached flushed state, and the batched
stimulus encoder must be *exactly* equivalent to the per-gate / per-call
references frozen in ``tests/_reference.py`` — all three only reorganize
boolean work.
"""

import numpy as np
import pytest

from repro.kernels import kernel_stats
from repro.logicsim import LevelizedSimulator, StimulusEncoder
from repro.logicsim.stimulus import StageOccupancy
from repro.netlist import PipelineConfig, generate_pipeline
from tests import _reference

CONFIGS = [
    PipelineConfig(data_width=8, mult_width=4, ctrl_regs=8,
                   cloud_gates=40, seed=1),
    PipelineConfig(data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                   cloud_gates=60, seed=7),
    PipelineConfig(data_width=10, mult_width=5, shift_bits=3, ctrl_regs=9,
                   cloud_gates=90, seed=23),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
def test_level_grouped_matches_pergate(config):
    netlist = generate_pipeline(config).netlist
    sim = LevelizedSimulator(netlist)
    rng = np.random.default_rng(config.seed)
    for n_cycles in (1, 7, 33):
        sources = rng.random((n_cycles, sim.n_sources)) < 0.5
        batched = sim.evaluate(sources)
        reference = _reference.evaluate(sim, sources)
        assert np.array_equal(batched, reference)


def test_flushed_state_cached_and_reused():
    netlist = generate_pipeline(CONFIGS[0]).netlist
    sim = LevelizedSimulator(netlist)
    zero = np.zeros((1, sim.n_sources), dtype=bool)
    expected = sim.evaluate(zero)[0]
    before = kernel_stats().flushed_state_reuses
    first = sim.flushed_state()
    assert np.array_equal(first, expected)
    assert kernel_stats().flushed_state_reuses == before
    again = sim.flushed_state()
    assert again is first
    assert kernel_stats().flushed_state_reuses == before + 1


def test_activity_uses_cached_flushed_state():
    netlist = generate_pipeline(CONFIGS[0]).netlist
    sim = LevelizedSimulator(netlist)
    rng = np.random.default_rng(3)
    sources = rng.random((5, sim.n_sources)) < 0.5
    implicit = sim.activity(sources)
    explicit = sim.activity(sources, previous_state=sim.flushed_state())
    assert np.array_equal(implicit.activated, explicit.activated)
    assert np.array_equal(implicit.values, explicit.values)


def _random_schedule(pipe, rng, n_cycles):
    schedule = []
    for _ in range(n_cycles):
        cycle = []
        for s in range(pipe.num_stages):
            n_ctrl = len(pipe.ctrl_src[s])
            overrides = {
                int(i): bool(rng.random() < 0.5)
                for i in rng.integers(0, max(n_ctrl, 1), size=2)
            } if n_ctrl else {}
            cycle.append(StageOccupancy(
                token=int(rng.integers(0, 6)),
                op_token=int(rng.integers(0, 4)),
                class_token=int(rng.integers(0, 3)),
                data={b: int(rng.integers(0, 256))
                      for b in pipe.data_src[s]},
                ctrl_overrides=overrides,
            ))
        schedule.append(cycle)
    return schedule


@pytest.mark.parametrize("config", CONFIGS[:2], ids=lambda c: f"seed{c.seed}")
def test_stimulus_cache_matches_reference(config):
    pipe = generate_pipeline(config)
    encoder = StimulusEncoder(pipe)
    rng = np.random.default_rng(config.seed + 100)
    schedule = _random_schedule(pipe, rng, 9)
    cached = encoder.encode_schedule(schedule)
    reference = np.stack(
        [_reference.encode_cycle(encoder, cycle) for cycle in schedule]
    )
    assert np.array_equal(cached, reference)
    # Repeat encodes stay identical.
    assert np.array_equal(encoder.encode_schedule(schedule), reference)
