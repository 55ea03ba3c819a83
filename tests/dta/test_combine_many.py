"""``combine_grid`` over many AP sets equals one call per AP set.

The batched combine looks up the memo in input order, fills the missing
covariance cells of all distinct unreduced sets with one
``path_cov_rows`` call per budget batch and reduces them in one ragged
lock-step Clark chain.  Against sequential one-set calls on a fresh
analyzer it must give the same Gaussians bit for bit, the same kernel
counter deltas, the same memo, and the same covariance cache (values
and insertion order, hence the same ``registry_doc()``).
"""

import json

import numpy as np
import pytest

import repro.dta.algorithm1 as algorithm1
from repro.dta import StageDTSAnalyzer
from repro.dta.trainer import DatapathTrainer
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline
from repro.netlist.paths import PathEnumerator
from repro.pipeline.ir import ProcessorConfig
from repro.variation import ProcessVariationModel

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
    """Random AP sets over the analyzed paths plus deeper paths the
    analyzer has not registered, with the batch's edge cases."""
    analyzer = _analyzer(pipe)
    enum = PathEnumerator(
        pipe.netlist, pipe.netlist.nominal_delays(TimingLibrary())
    )
    deeper = [
        p
        for eps in analyzer._stage_endpoints.values()
        for ep in eps[:3]
        for p in enum.critical_paths(ep.endpoint, k=7)[4:]
    ]
    pool = analyzer._registered + deeper
    rng = np.random.default_rng(11)
    sets = [
        [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        for n in rng.integers(1, 30, size=40)
    ]
    sets += [
        [],
        sets[3],  # repeated inside the batch: a memo hit
        sets[7][::-1],  # same paths, other order: its own reduction
        sets[9] + sets[9][:2],  # a path repeated inside one set
        [pool[0]],
        [pool[0]],
    ]
    return sets


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


def _check(pipe, ap_sets, period, mode="statistical"):
    warm = ap_sets[:5]

    def batched(analyzer):
        analyzer.combine_grid(warm, [period], mode)
        return [dts for (dts,) in analyzer.combine_grid(ap_sets, [period], mode)]

    def sequential(analyzer):
        for ap in warm:
            analyzer.combine_grid([ap], [period], mode)
        return [
            analyzer.combine_grid([ap], [period], mode)[0][0] for ap in ap_sets
        ]

    got = _run(_analyzer(pipe), batched)
    want = _run(_analyzer(pipe), sequential)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == want[3]
    assert got[4] == want[4]
    return got


def _period(ap_sets):
    return max(p.delay for ap in ap_sets for p in ap) * 1.02


def test_equals_sequential_combine(pipe, ap_sets):
    got = _check(pipe, ap_sets, _period(ap_sets))
    results, counters = got[0], got[1]
    assert results[ap_sets.index([])] is None
    assert counters["combine_memo_hits"] >= 5 + 2
    assert counters["cov_cells_computed"] > 0
    assert counters["cov_cache_hits"] > 0


def test_deterministic_mode(pipe, ap_sets):
    _check(pipe, ap_sets, _period(ap_sets), mode="deterministic")


def _count_fills(monkeypatch):
    calls = []
    fill = ProcessVariationModel.path_cov_rows
    monkeypatch.setattr(
        ProcessVariationModel, "path_cov_rows",
        lambda *args: calls.append(1) or fill(*args),
    )
    return calls


@pytest.mark.parametrize("budget", [1, 60, 1 << 18])
def test_budget_batches(pipe, ap_sets, monkeypatch, budget):
    monkeypatch.setattr(algorithm1, "_FILL_CELLS", budget)
    period = _period(ap_sets)
    _check(pipe, ap_sets, period)
    # The batches the budget allows: distinct multi-path sets in order.
    batches, cells, seen = 0, 0, set()
    for ap in ap_sets:
        key = tuple((p.gates, p.sink) for p in ap)
        if len(ap) < 2 or key in seen:
            continue
        seen.add(key)
        n = len(ap) * (len(ap) - 1) // 2
        if batches == 0 or cells + n > budget:
            batches, cells = batches + 1, 0
        cells += n
    calls = _count_fills(monkeypatch)
    _analyzer(pipe).combine_grid(ap_sets, [period])
    assert 1 <= len(calls) <= batches
    if budget == 1 << 18:
        assert batches == 1


def test_training_fills_once_per_budget_batch(monkeypatch):
    proc = ProcessorConfig(
        pipeline=PipelineConfig(
            data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
            cloud_gates=60, seed=7,
        )
    ).build()
    trainer = DatapathTrainer(
        proc.pipeline, proc.data_analyzer, proc.library.setup_time,
        proc.logic_simulator, proc.stimulus_encoder,
        scheduler_factory=proc.core_family.make_scheduler,
    )
    calls = _count_fills(monkeypatch)
    before = kernel_stats().snapshot()
    trainer.train(samples_per_class=6, seed=1)
    delta = kernel_stats().delta(before)
    assert delta.combine_calls > delta.combine_memo_hits + 1
    assert delta.cov_cells_computed > 0
    assert len(calls) == 1
