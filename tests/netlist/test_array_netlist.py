"""The array netlist against the per-gate walks it replaced.

``Netlist.arrays`` feeds every analysis: validation, the topological
order and levels, the critical-path search, the simulator's batch plan
and graph DTA.  Each is checked against its frozen per-gate reference
in ``tests/_reference.py``: on random clouds from
:func:`~repro.netlist.builders.build_random_cloud`, and on both core
families through the path registry and Monte Carlo chip rates.
"""

import json
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import as_rng
from repro.core.montecarlo import MonteCarloValidator
from repro.dta.graphdta import GraphDTSAnalyzer
from repro.logicsim.simulator import LevelizedSimulator
from repro.netlist import (
    EndpointKind,
    GateType,
    Netlist,
    PathEnumerator,
    TimingLibrary,
    build_random_cloud,
)
from repro.pipeline.ir import ProcessorConfig
from repro.workloads import load_workload
from tests import _reference as ref

KINDS = (None, EndpointKind.CONTROL, EndpointKind.DATA)


def _cloud_netlist(seed: int, n_gates: int, tie: float) -> Netlist:
    """Two random clouds over shared input ports and feedback
    flip-flops; a share ``tie`` of the cloud heads is captured, so
    a low share leaves dangling logic."""
    rng = as_rng(seed)
    nl = Netlist("cloud", num_stages=2)
    ins = [
        nl.add_input(f"in{i}", stage=i % 2, kind=KINDS[1 + i % 2])
        for i in range(4)
    ]
    fb = nl.add_dff("fb", None, stage=1, kind=EndpointKind.CONTROL)
    heads = []
    for s in range(2):
        cloud = build_random_cloud(
            nl, ins + [fb], n_gates, f"c{s}", stage=s,
            depth_bias=0.3 + 0.5 * float(rng.random()), seed=seed + s,
        )
        heads += cloud.bus("heads")
    nl.connect_dff(fb, heads[0])
    for i, h in enumerate(heads[1:]):
        if rng.random() < tie:
            nl.add_dff(f"ff{i}", h, stage=i % 2, kind=KINDS[1 + i % 2])
    return nl


def _same_outcome(fn_a, fn_b):
    """Both calls return the same value or raise the same message."""
    outcomes = []
    for fn in (fn_a, fn_b):
        try:
            outcomes.append(("ok", fn()))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _reference_levels(nl: Netlist) -> np.ndarray:
    level = np.zeros(len(nl), dtype=int)
    for gid in ref.topological_order(nl):
        level[gid] = 1 + max(level[i] for i in nl.gate(gid).inputs)
    return level


@given(
    seed=st.integers(0, 10_000),
    n_gates=st.integers(1, 60),
    tie=st.sampled_from([0.5, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_random_clouds_match_per_gate_walks(seed, n_gates, tie):
    nl = _cloud_netlist(seed, n_gates, tie)
    library = TimingLibrary()
    _same_outcome(nl.validate, lambda: ref.validate(nl))
    assert nl.topological_order() == ref.topological_order(nl)
    assert np.array_equal(nl.arrays().level, _reference_levels(nl))
    delays = nl.nominal_delays(library)
    assert np.array_equal(delays, ref.nominal_delays(nl, library))
    assert [nl.fanout(g) for g in range(len(nl))] == ref.fanout_lists(nl)
    assert nl.endpoint_ids() == [g.gid for g in nl.gates if g.is_endpoint]
    for stage in (None, 0, 1):
        for kind in KINDS:
            assert nl.endpoint_ids(stage, kind, captures=True) == (
                ref.capture_endpoints(nl, stage, kind)
            )

    en = PathEnumerator(nl, delays)
    assert np.array_equal(en.arrivals, ref.compute_arrivals(en))
    for e in nl.endpoint_ids(captures=True):
        for k in (4, 12):
            assert en.critical_paths(e, k) == ref.critical_paths(en, e, k)

    sim = LevelizedSimulator(nl)
    plan, expected = sim._plan, ref.build_plan(sim)
    assert len(plan) == len(expected)
    for (code, ids, fanin), (code_r, ids_r, fanin_r) in zip(plan, expected):
        assert code == code_r
        assert np.array_equal(ids, ids_r)
        assert np.array_equal(fanin, fanin_r)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_graph_arrivals_match_per_gate_walk(seed):
    nl = _cloud_netlist(seed, 40, 1.0)
    library = TimingLibrary()
    rng = as_rng(seed)
    graph = GraphDTSAnalyzer(nl, library)
    sources = rng.integers(0, 2, size=(6, len(nl.endpoint_ids()))) > 0
    activity = LevelizedSimulator(nl).activity(sources)
    chips = graph.delays * (1.0 + 0.1 * rng.standard_normal((3, len(nl))))
    assert np.array_equal(
        graph.activated_arrivals_multi(activity, chips),
        ref.activated_arrivals_multi(graph, activity, chips),
    )
    assert np.array_equal(
        graph.activated_arrivals(activity),
        ref.activated_arrivals_multi(graph, activity, graph.delays[None])[0],
    )


def test_arrays_follow_placement_and_reconnection():
    nl = Netlist(num_stages=1)
    a = nl.add_input("a", kind=EndpointKind.CONTROL)
    n = nl.add_gate("n", GateType.NOT, (a,))
    ff = nl.add_dff("ff", None, stage=0, kind=EndpointKind.DATA)
    assert nl.fanout_count(n) == 0
    with pytest.raises(ValueError, match="unconnected D pin"):
        nl.validate()
    nl.connect_dff(ff, n)
    nl.validate()
    assert nl.fanout(n) == [ff]
    nl.place(n, 3.0, 4.0)
    assert nl.placements()[n].tolist() == [3.0, 4.0]
    assert (nl.gate(n).x, nl.gate(n).y) == (3.0, 4.0)


# --------------------------------------------------------------------- #
# Both core families: the registry and Monte Carlo chip rates
# --------------------------------------------------------------------- #

def _family_run(family: str) -> tuple[tuple[dict, dict], np.ndarray]:
    processor = ProcessorConfig(core_family=family, speculation=1.45).build()
    registries = (
        processor.control_analyzer.stage_analyzer.registry_doc(),
        processor.data_analyzer.stage_analyzer.registry_doc(),
    )
    program, setup, _ = load_workload("bitcount").run_spec("small", seed=0)
    mc = MonteCarloValidator(processor, n_chips=8, windows_per_block=2)
    result = mc.estimate(program, setup=setup, max_instructions=3000, seed=0)
    return registries, result.chip_error_rates


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_family_registry_and_chip_rates_match_per_gate_walks(family):
    registries, rates = _family_run(family)
    with ExitStack() as stack:
        for owner, name, body in ref.STRUCTURE_PATCHES:
            stack.enter_context(mock.patch.object(owner, name, body))
        ref_registries, ref_rates = _family_run(family)
    assert json.dumps(registries) == json.dumps(ref_registries)
    assert np.array_equal(rates, ref_rates)
    assert rates.shape == (8,)
