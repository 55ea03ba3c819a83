"""One ``combine_grid`` call over ragged AP sets x clock periods.

Every (set, period) cell must be the frozen scalar ``combine`` of
``tests/_reference.py`` bit for bit, and the call must leave the kernel
counters, the memo and the covariance cache exactly as one call per cell
on a fresh analyzer does.  Each set holds at most one path per capture
endpoint: the analyzer seeds the cells between two paths of one
endpoint from the blocked ``path_cov_matrix``, which matches the
reference's ``path_cov`` to rounding only, while cross-endpoint cells
are bitwise ``path_cov``.
"""

import json

import numpy as np
import pytest

from repro.dta import StageDTSAnalyzer
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline
from repro.netlist.paths import PathEnumerator
from tests import _reference

CONFIG = PipelineConfig(
    data_width=8, mult_width=4, ctrl_regs=8, cloud_gates=40, seed=1
)
COUNTERS = (
    "combine_calls",
    "combine_memo_hits",
    "clark_reductions",
    "cov_cells_computed",
    "cov_cache_hits",
)


@pytest.fixture(scope="module")
def pipe():
    return generate_pipeline(CONFIG)


def _analyzer(pipe):
    return StageDTSAnalyzer(
        pipe.netlist, TimingLibrary(), paths_per_endpoint=4
    )


@pytest.fixture(scope="module")
def ap_sets(pipe):
    """Ragged sets of one path per endpoint, some deeper than the
    analyzer registered, with a repeated set, a one-path set and an
    empty set."""
    enum = PathEnumerator(
        pipe.netlist, pipe.netlist.nominal_delays(TimingLibrary())
    )
    by_sink: dict[int, list] = {}
    for path in _analyzer(pipe)._registered:
        by_sink.setdefault(path.sink, []).append(path)
    for sink in list(by_sink)[::5]:
        by_sink[sink] += enum.critical_paths(sink, k=7)[4:]
    pools = list(by_sink.values())
    rng = np.random.default_rng(5)
    sets = [
        [
            pools[s][rng.integers(len(pools[s]))]
            for s in rng.choice(len(pools), size=n, replace=False)
        ]
        for n in rng.integers(2, 25, size=12)
    ]
    return sets + [sets[4], [sets[0][0]], []]


def _periods(ap_sets):
    top = max(p.delay for ap in ap_sets for p in ap)
    # A repeated period is one more memo hit per set.
    return [top * 1.02, top * 0.95, top * 1.02, top * 1.1]


@pytest.mark.parametrize("mode", ["statistical", "deterministic"])
def test_one_call_equals_reference_per_cell(pipe, ap_sets, mode):
    analyzer = _analyzer(pipe)
    periods = _periods(ap_sets)
    got = analyzer.combine_grid(ap_sets, periods, mode)
    want = _reference.combine_grid(analyzer, ap_sets, periods, mode)
    assert got == want
    assert got[-1] == [None] * len(periods)
    assert all(dts is not None for row in got[:-1] for dts in row)


def _run(analyzer, reduce):
    before = kernel_stats().snapshot()
    results = reduce(analyzer)
    delta = kernel_stats().delta(before)
    return (
        results,
        {name: getattr(delta, name) for name in COUNTERS},
        json.dumps(analyzer.registry_doc()),
        list(analyzer._cov_cache),
        set(analyzer._combine_memo),
    )


def test_one_call_leaves_per_cell_state(pipe, ap_sets):
    periods = _periods(ap_sets)
    got = _run(
        _analyzer(pipe), lambda an: an.combine_grid(ap_sets, periods)
    )
    want = _run(
        _analyzer(pipe),
        lambda an: [
            [an.combine_grid([ap], [cp])[0][0] for cp in periods]
            for ap in ap_sets
        ],
    )
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]
    assert got[4] == want[4]
    # Each distinct (set, period) cell is reduced once; every other
    # non-empty cell is a memo hit.
    distinct = {
        (cp, tuple((p.gates, p.sink) for p in ap))
        for ap in ap_sets
        if ap
        for cp in periods
    }
    counters = got[1]
    assert counters["combine_calls"] == (len(ap_sets) - 1) * len(periods)
    assert counters["combine_memo_hits"] == (
        counters["combine_calls"] - len(distinct)
    )
    assert counters["clark_reductions"] == sum(
        len(ids) - 1 for _, ids in distinct
    )
