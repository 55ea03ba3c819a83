"""One critical-path enumeration per processor.

``PathEnumerator.critical_paths`` breaks ties by push order, so the
``k`` most critical paths of an endpoint are a prefix of its ``k' > k``
most critical ones.  The enumerator keeps each endpoint's longest list
and serves smaller ``k`` from it, and ``ProcessorModel`` hands one
enumerator to every timing engine.
"""

import pytest

from repro.core.family import resolve_core_family
from repro.core.processor import ProcessorModel
from repro.netlist import TimingLibrary
from repro.netlist.gates import GateType
from repro.netlist.paths import PathEnumerator


@pytest.fixture(scope="module", params=["inorder6", "ooo-tomasulo"])
def netlist(request):
    return resolve_core_family(request.param).build_netlist(None).netlist


def _enumerator(netlist):
    return PathEnumerator(netlist, netlist.nominal_delays(TimingLibrary()))


def test_shorter_lists_are_prefixes_for_every_dff(netlist):
    dffs = [g.gid for g in netlist.gates if g.gtype == GateType.DFF]
    short, deep = _enumerator(netlist), _enumerator(netlist)
    for e in dffs:
        four = short.critical_paths(e, 4)
        twelve = deep.critical_paths(e, 12)
        assert four == twelve[:4]
        # Served from the memo, and computed afresh past it.
        assert deep.critical_paths(e, 4) == four
        assert short.critical_paths(e, 12) == twelve


def test_memo_returns_copies(netlist):
    enum = _enumerator(netlist)
    e = next(g.gid for g in netlist.gates if g.gtype == GateType.DFF)
    paths = enum.critical_paths(e, 6)
    paths.clear()
    assert len(enum.critical_paths(e, 6)) > 0


def test_processor_engines_share_one_enumerator():
    proc = ProcessorModel()
    shared = proc.enumerator
    assert proc.sta.enumerator is shared
    assert proc.ssta.enumerator is shared
    assert proc.data_analyzer.stage_analyzer._enumerator is shared
    assert proc.control_analyzer.stage_analyzer._enumerator is shared
    assert proc.derive(speculation=1.2).enumerator is shared
