"""AP selection with a window's first-activated picks memo.

``StageDTSAnalyzer.ap_trace_grid`` keeps the period-independent half of
AP selection (``_StagePlan.first_activated``: every endpoint's first
activated path per cycle and criticality ordering) in the memo it is
given, so a later call on the same activity computes only the
risky-endpoint masks and the assembly.  With a cold memo and with a warm
one, every per-cycle AP set must equal the frozen batched selection of
``tests/_reference.py`` path for path, and periods must share trace
objects exactly as they do there.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.dta import StageDTSAnalyzer
from repro.dta.algorithm1 import _StagePlan
from repro.logicsim import LevelizedSimulator
from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline
from tests import _reference

CONFIG = PipelineConfig(
    data_width=8, mult_width=4, ctrl_regs=8, cloud_gates=40, seed=1
)


@pytest.fixture(scope="module")
def analyzer():
    pipe = generate_pipeline(CONFIG)
    return StageDTSAnalyzer(
        pipe.netlist, TimingLibrary(), paths_per_endpoint=6
    )


@pytest.fixture(scope="module")
def trace(analyzer):
    sim = LevelizedSimulator(analyzer.netlist)
    rng = np.random.default_rng(42)
    return sim.activity(rng.random((12, sim.n_sources)) < 0.5)


def _periods(analyzer):
    """A cold list (aggressive first, masks repeating) and a warm list of
    new, longer periods whose risky endpoints the cold list covers."""
    dmax = max(
        p.delay
        for eps in analyzer._stage_endpoints.values()
        for ep in eps
        for p in ep.paths
    )
    cold = [dmax * f for f in (0.7, 1.05, 0.9, 0.7, 1.2, 0.9)]
    warm = [dmax * f for f in (0.95, 0.8, 0.95, 1.1)]
    return cold, warm


@contextmanager
def _frozen_selection():
    with mock.patch.object(
        _StagePlan, "first_activated", _reference.first_activated
    ), mock.patch.object(_StagePlan, "assemble", _reference.assemble):
        yield


def _frozen(analyzer, stage, trace, periods, mode, include_safe):
    with _frozen_selection():
        return analyzer.ap_trace_grid(
            stage, trace, periods, mode, include_safe
        )


def _ids(traces):
    return [[[(p.gates, p.sink) for p in cycle] for cycle in t] for t in traces]


def _sharing(traces):
    """Each period's index of the first period with its trace object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(t), i) for i, t in enumerate(traces)]


@pytest.mark.parametrize("mode", ["statistical", "deterministic"])
@pytest.mark.parametrize("include_safe", [False, True])
def test_cold_and_warm_memo_equal_frozen_selection(
    analyzer, trace, mode, include_safe
):
    cold, warm = _periods(analyzer)
    for stage in range(analyzer.netlist.num_stages):
        memo: dict = {}
        for periods, computed in ((cold, None), (warm, 0), (cold, 0)):
            want = _frozen(analyzer, stage, trace, periods, mode, include_safe)
            with mock.patch.object(
                _StagePlan, "first_activated", autospec=True,
                side_effect=_StagePlan.first_activated,
            ) as spy:
                got = analyzer.ap_trace_grid(
                    stage, trace, periods, mode, include_safe, picks=memo
                )
            if computed is not None:
                assert spy.call_count == computed
            assert _ids(got) == _ids(want)
            assert _sharing(got) == _sharing(want)
        assert set(memo) <= {(stage, mode)}


def test_frozen_selection_equals_scalar_scan(analyzer, trace):
    """The frozen batched selection is itself the per-endpoint scan."""
    cold, _ = _periods(analyzer)
    for mode in ("statistical", "deterministic"):
        for stage in range(analyzer.netlist.num_stages):
            want = _reference.ap_trace_grid(analyzer, stage, trace, cold, mode)
            got = _frozen(analyzer, stage, trace, cold, mode, False)
            assert _ids(got) == _ids(want)


def test_masks_repeat_and_the_memo_fills(analyzer, trace):
    cold, _ = _periods(analyzer)
    memo: dict = {}
    risky_stages = 0
    for stage in range(analyzer.netlist.num_stages):
        traces = analyzer.ap_trace_grid(stage, trace, cold, picks=memo)
        assert len({id(t) for t in traces}) < len(cold)
        risky_stages += any(any(cycle) for cycle in traces[0])
    assert risky_stages > 0
    for (stage, mode), picks in memo.items():
        plan = analyzer._stage_plans[stage]
        assert mode == "statistical"
        assert picks.shape == (2, trace.n_cycles, len(plan.eps))
        assert picks.dtype == np.min_scalar_type(plan.n_paths)
        assert not picks.flags.writeable


def test_memo_keeps_modes_apart(analyzer, trace):
    cold, _ = _periods(analyzer)
    stage = max(
        range(analyzer.netlist.num_stages),
        key=lambda s: len(analyzer._stage_endpoints[s]),
    )
    memo: dict = {}
    for mode in ("statistical", "deterministic", "statistical"):
        got = analyzer.ap_trace_grid(stage, trace, cold, mode, picks=memo)
        want = _frozen(analyzer, stage, trace, cold, mode, False)
        assert _ids(got) == _ids(want)
    assert memo[(stage, "statistical")].shape[0] == 2
    assert memo[(stage, "deterministic")].shape[0] == 1
