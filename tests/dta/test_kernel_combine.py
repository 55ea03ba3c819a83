"""Kernel-layer equivalence tests for Algorithm 1 (AP selection + combine).

The batched AP selection and the memoized/precomputed combine path must
reproduce the frozen scalar references of ``tests/_reference.py``: AP
sets path-for-path, and statistical-min results bitwise (``Gaussian`` is
a frozen dataclass, so ``==`` compares the float payload exactly).
"""

import numpy as np
import pytest

from repro.dta import StageDTSAnalyzer
from repro.kernels import kernel_stats
from repro.logicsim import LevelizedSimulator
from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline
from tests import _reference

CONFIG = PipelineConfig(
    data_width=8, mult_width=4, ctrl_regs=8, cloud_gates=40, seed=1
)


@pytest.fixture(scope="module")
def pipe():
    return generate_pipeline(CONFIG)


@pytest.fixture(scope="module")
def analyzer(pipe):
    return StageDTSAnalyzer(
        pipe.netlist, TimingLibrary(), paths_per_endpoint=6
    )


@pytest.fixture(scope="module")
def trace(pipe):
    sim = LevelizedSimulator(pipe.netlist)
    rng = np.random.default_rng(42)
    sources = rng.random((12, sim.n_sources)) < 0.5
    return sim.activity(sources)


def _periods(analyzer):
    dmax = max(
        p.delay
        for eps in analyzer._stage_endpoints.values()
        for ep in eps
        for p in ep.paths
    )
    return [dmax * 0.9, dmax * 1.05]


def _ap_ids(aps):
    return [[(p.gates, p.sink) for p in cycle] for cycle in aps]


@pytest.mark.parametrize("mode", ["statistical", "deterministic"])
@pytest.mark.parametrize("include_safe", [False, True])
def test_batched_ap_matches_reference(analyzer, trace, mode, include_safe):
    periods = _periods(analyzer)
    for stage in range(analyzer.netlist.num_stages):
        batched = analyzer.ap_trace_grid(
            stage, trace, periods, mode, include_safe
        )
        for period, got in zip(periods, batched):
            reference = _reference.ap_trace(
                analyzer, stage, trace, period, mode, include_safe
            )
            assert _ap_ids(got) == _ap_ids(reference)


def _ap_sets(analyzer, trace, period, mode):
    aps = []
    for stage in range(analyzer.netlist.num_stages):
        (trace_aps,) = analyzer.ap_trace_grid(
            stage, trace, [period], mode, include_safe=True
        )
        aps.extend(ap for ap in trace_aps if ap)
    return aps


def _combine(analyzer, ap, period, mode="statistical"):
    """One AP set at one period."""
    return analyzer.combine_grid([ap], [period], mode)[0][0]


def test_memoized_combine_bitwise_equal_to_direct(analyzer, trace):
    period = _periods(analyzer)[1]
    aps = _ap_sets(analyzer, trace, period, "statistical")
    assert aps  # the random trace must actually activate paths
    direct = []
    for ap in aps:
        analyzer._combine_memo.clear()
        direct.append(_combine(analyzer, ap, period))
    analyzer._combine_memo.clear()
    memo_once = [dts for (dts,) in analyzer.combine_grid(aps, [period])]
    memo_again = [_combine(analyzer, ap, period) for ap in aps]
    assert memo_once == direct
    assert memo_again == direct


def test_combine_memo_hit_counters(analyzer, trace):
    period = _periods(analyzer)[0] * 1.001  # distinct memo keyspace
    aps = _ap_sets(analyzer, trace, period, "statistical")
    _combine(analyzer, aps[0], period)  # warm the memo for this key
    before = kernel_stats().snapshot()
    _combine(analyzer, aps[0], period)
    delta = kernel_stats().delta(before)
    assert delta.combine_calls == 1
    assert delta.combine_memo_hits == 1
    assert delta.clark_reductions == 0


def test_precomputed_cov_matches_reference(analyzer, trace):
    period = _periods(analyzer)[1]
    aps = _ap_sets(analyzer, trace, period, "statistical")
    for ap in aps[:20]:
        analyzer._combine_memo.clear()
        fast = _combine(analyzer, ap, period)
        reference = _reference.combine(analyzer, ap, period)
        assert fast.mean == pytest.approx(reference.mean, rel=1e-9)
        assert fast.var == pytest.approx(reference.var, rel=1e-9, abs=1e-12)


def test_deterministic_mode_bypasses_memo(analyzer, trace):
    period = _periods(analyzer)[1]
    aps = _ap_sets(analyzer, trace, period, "deterministic")
    memo = dict(analyzer._combine_memo)
    result = _combine(analyzer, aps[0], period, mode="deterministic")
    reference = _reference.combine(
        analyzer, aps[0], period, mode="deterministic"
    )
    assert result == reference
    assert result.var == 0.0
    assert analyzer._combine_memo == memo


def test_empty_ap_combines_to_none(analyzer):
    assert analyzer.combine_grid([[]], [100.0]) == [[None]]
