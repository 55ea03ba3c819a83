"""Unit tests for the Netlist graph container."""

import numpy as np
import pytest

from repro.netlist import EndpointKind, GateType, Netlist, TimingLibrary


def test_add_gate_assigns_dense_ids(chain_netlist):
    ids = [g.gid for g in chain_netlist.gates]
    assert ids == list(range(len(chain_netlist)))


def test_duplicate_names_rejected():
    nl = Netlist()
    nl.add_input("a", 0, EndpointKind.CONTROL)
    with pytest.raises(ValueError, match="duplicate"):
        nl.add_input("a", 0, EndpointKind.CONTROL)


def test_forward_references_rejected():
    nl = Netlist()
    with pytest.raises(ValueError, match="already-added"):
        nl.add_gate("g", GateType.NOT, (5,), 0)


def test_stage_bounds_checked():
    nl = Netlist(num_stages=2)
    with pytest.raises(ValueError, match="stage"):
        nl.add_input("a", 5, EndpointKind.CONTROL)


def test_unconnected_dff_stage_bounds_checked():
    nl = Netlist(num_stages=2)
    with pytest.raises(ValueError, match="stage 7 out of range"):
        nl.add_dff("q", None, stage=7, kind=EndpointKind.DATA)
    with pytest.raises(ValueError, match="stage -1 out of range"):
        nl.add_dff("q", None, stage=-1, kind=EndpointKind.DATA)
    assert len(nl) == 0


def test_gate_by_name(chain_netlist):
    assert chain_netlist.gate_by_name("n1").gtype == GateType.NOT


def test_endpoints_filters(pipeline):
    nl = pipeline.netlist
    ctrl = nl.endpoints(kind=EndpointKind.CONTROL)
    data = nl.endpoints(kind=EndpointKind.DATA)
    assert ctrl and data
    assert all(g.endpoint_kind == EndpointKind.CONTROL for g in ctrl)
    stage3 = nl.endpoints(stage=3)
    assert all(g.stage == 3 for g in stage3)
    # Filters intersect consistently.
    both = nl.endpoints(stage=3, kind=EndpointKind.DATA)
    assert set(g.gid for g in both) == (
        {g.gid for g in stage3} & {g.gid for g in data}
    )


def test_fanout_tracks_connections(diamond_netlist):
    nl = diamond_netlist
    a = nl.gate_by_name("in").gid
    # 'in' drives n1 and the AND gate.
    assert sorted(
        nl.gate(o).name for o in nl.fanout(a)
    ) == ["and", "n1"]
    assert nl.fanout_count(nl.gate_by_name("and").gid) == 1  # the DFF


def test_topological_order_is_driver_first(diamond_netlist):
    nl = diamond_netlist
    order = nl.topological_order()
    pos = {gid: i for i, gid in enumerate(order)}
    for gid in order:
        for i in nl.gate(gid).inputs:
            if nl.gate(i).is_combinational:
                assert pos[i] < pos[gid]


def test_unconnected_dff_fails_validation():
    nl = Netlist()
    nl.add_input("a", 0, EndpointKind.CONTROL)
    nl.add_dff("ff", None, 0, EndpointKind.CONTROL)
    with pytest.raises(ValueError, match="unconnected D pin"):
        nl.validate()


def test_connect_dff_resolves_placeholder():
    nl = Netlist()
    a = nl.add_input("a", 0, EndpointKind.CONTROL)
    ff = nl.add_dff("ff", None, 0, EndpointKind.CONTROL)
    g = nl.add_gate("n", GateType.NOT, (a,), 0)
    nl.connect_dff(ff, g)
    nl.validate()


def test_connect_dff_rejects_non_dff(chain_netlist):
    with pytest.raises(ValueError, match="not a DFF"):
        chain_netlist.connect_dff(chain_netlist.gate_by_name("n1").gid, 0)


def test_dangling_gate_fails_validation():
    nl = Netlist()
    a = nl.add_input("a", 0, EndpointKind.CONTROL)
    nl.add_dff("ff", a, 0, EndpointKind.CONTROL)
    nl.add_gate("dangle", GateType.NOT, (a,), 0)
    with pytest.raises(ValueError, match="dangling"):
        nl.validate()


def test_sequential_loop_through_dff_is_valid():
    nl = Netlist()
    ff = nl.add_dff("state", None, 0, EndpointKind.CONTROL)
    g = nl.add_gate("inv", GateType.NOT, (ff,), 0)
    nl.connect_dff(ff, g)  # classic toggle flop: loop broken by the FF
    nl.validate()


def test_nominal_delays_reflect_fanout(library):
    nl = Netlist()
    a = nl.add_input("a", 0, EndpointKind.CONTROL)
    n = nl.add_gate("n", GateType.NOT, (a,), 0)
    nl.add_dff("f1", n, 0, EndpointKind.CONTROL)
    nl.add_dff("f2", n, 0, EndpointKind.CONTROL)
    d = nl.nominal_delays(library)
    assert d[n] == library.delay(GateType.NOT, fanout=2)
    assert d[a] == 0.0


def test_placements_shape(pipeline):
    p = pipeline.netlist.placements()
    assert p.shape == (len(pipeline.netlist), 2)
    assert np.isfinite(p).all()


def test_summary_counts(pipeline):
    s = pipeline.netlist.summary()
    assert s["gates"] == len(pipeline.netlist)
    assert s["control_endpoints"] > 0
    assert s["data_endpoints"] > 0
    assert s["combinational"] + s["control_endpoints"] + s["data_endpoints"] == (
        s["gates"]
    )
