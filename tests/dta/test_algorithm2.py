"""Tests for Algorithm 2 (instruction DTS)."""

import numpy as np
import pytest

from repro.dta import InstructionDTSAnalyzer, StageDTSAnalyzer
from repro.logicsim import LevelizedSimulator
from repro.netlist import EndpointKind, GateType, Netlist, TimingLibrary
from repro.variation import ProcessVariationModel
from tests._dts import stage_dts


@pytest.fixture
def two_stage_netlist():
    """Two pipeline stages with distinct path depths.

    Stage 0: in0 -> NOT -> DFF0 (short).
    Stage 1: in1 -> NOT -> NOT -> NOT -> DFF1 (long).
    """
    nl = Netlist("twostage", num_stages=2)
    a = nl.add_input("in0", 0, EndpointKind.CONTROL)
    b = nl.add_input("in1", 1, EndpointKind.CONTROL)
    n0 = nl.add_gate("s0_n", GateType.NOT, (a,), 0)
    nl.add_dff("ff0", n0, 0, EndpointKind.CONTROL)
    n1 = nl.add_gate("s1_n1", GateType.NOT, (b,), 1)
    n2 = nl.add_gate("s1_n2", GateType.NOT, (n1,), 1)
    n3 = nl.add_gate("s1_n3", GateType.NOT, (n2,), 1)
    nl.add_dff("ff1", n3, 1, EndpointKind.CONTROL)
    return nl


def _setup(nl):
    lib = TimingLibrary()
    stage = StageDTSAnalyzer(nl, lib, ProcessVariationModel(nl, lib))
    return InstructionDTSAnalyzer(stage), lib


def _activity(nl, rows):
    return LevelizedSimulator(nl).activity(np.array(rows, dtype=bool))


def _instruction_dts(an, tr, entry, period, **kw):
    """DTS of the instruction entering at ``entry``, at one period."""
    return an.window_dts_grid(tr, [entry], [period], **kw)[0][0]


def test_min_over_stages(two_stage_netlist):
    nl = two_stage_netlist
    an, lib = _setup(nl)
    # Sources: in0, in1, ff0, ff1.  The instruction enters stage 0 at
    # cycle 0 (toggling in0) and stage 1 at cycle 1 (toggling in1).
    tr = _activity(nl, [[1, 0, 0, 0], [1, 1, 0, 0]])
    period = 800.0
    dts = _instruction_dts(an, tr, 0, period, include_safe=True)
    d = nl.nominal_delays(lib)
    gid = {g.name: g.gid for g in nl.gates}
    long_delay = d[gid["in1"]] + d[gid["s1_n1"]] + d[gid["s1_n2"]] + (
        d[gid["s1_n3"]]
    )
    # The stage-1 (longer) path dominates the minimum.
    assert dts.mean <= period - long_delay - lib.setup_time + 1e-9
    assert dts.var > 0


def test_deterministic_equals_min_of_stage_dts(two_stage_netlist):
    nl = two_stage_netlist
    an, lib = _setup(nl)
    tr = _activity(nl, [[1, 0, 0, 0], [1, 1, 0, 0]])
    period = 800.0
    inst = _instruction_dts(
        an, tr, 0, period, mode="deterministic", include_safe=True
    )
    s0, s1 = (
        stage_dts(
            an.stage_analyzer, s, tr, period, mode="deterministic",
            include_safe=True,
        )[s]
        for s in (0, 1)
    )
    stage_means = [s.mean for s in (s0, s1) if s is not None]
    assert stage_means, "at least one stage must be active"
    assert inst.mean == pytest.approx(min(stage_means))


def test_out_of_window_cycles_skipped(two_stage_netlist):
    nl = two_stage_netlist
    an, _ = _setup(nl)
    tr = _activity(nl, [[1, 0, 0, 0]])  # single-cycle window
    # Entry at cycle 0: stage 1 would be at cycle 1 (outside the trace).
    dts = _instruction_dts(an, tr, 0, 800.0, include_safe=True)
    assert dts is not None  # stage 0 still contributes


def test_no_activity_returns_none(two_stage_netlist):
    nl = two_stage_netlist
    an, _ = _setup(nl)
    tr = _activity(nl, [[0, 0, 0, 0], [0, 0, 0, 0]])
    assert _instruction_dts(an, tr, 0, 800.0, include_safe=True) is None


def test_window_dts_matches_individual(two_stage_netlist):
    nl = two_stage_netlist
    an, _ = _setup(nl)
    tr = _activity(
        nl, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]]
    )
    (batch,) = an.window_dts_grid(tr, [0, 1, 2], [800.0], include_safe=True)
    for entry, got in zip([0, 1, 2], batch):
        single = _instruction_dts(an, tr, entry, 800.0, include_safe=True)
        if single is None:
            assert got is None
        else:
            assert got.mean == pytest.approx(single.mean)
            assert got.var == pytest.approx(single.var)


def test_instruction_ap_dedupes(two_stage_netlist):
    nl = two_stage_netlist
    an, _ = _setup(nl)
    tr = _activity(nl, [[1, 0, 0, 0], [1, 1, 0, 0]])
    traces = [
        an.stage_analyzer.ap_trace_grid(s, tr, [800.0], include_safe=True)[0]
        for s in range(an.num_stages)
    ]
    union = an.instruction_ap(tr, 0, traces)
    keys = [(p.gates, p.sink) for p in union]
    assert len(keys) == len(set(keys))
