"""Chunked AP selection in training equals one selection per window.

``DatapathTrainer.ap_traces`` stacks the activation rows of consecutive
training windows, selects each chunk's AP sets with one
``StageDTSAnalyzer.ap_trace_grid`` call per stage, and slices every
window's cycles back out.  Each window's traces must be the ones a
per-window ``ap_trace_grid`` selects, for chunk budgets from one window
to all of them.
"""

import numpy as np
import pytest

import repro.dta.trainer as trainer_mod
from repro.dta.trainer import _CLASS_OPS, _T_REF, DatapathTrainer
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig

SMALL = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)


@pytest.fixture(scope="module", params=["inorder6", "ooo-tomasulo"])
def setup(request):
    proc = ProcessorConfig(pipeline=SMALL, core_family=request.param).build()
    trainer = DatapathTrainer(
        proc.pipeline,
        proc.data_analyzer,
        proc.library.setup_time,
        proc.logic_simulator,
        proc.stimulus_encoder,
        scheduler_factory=proc.core_family.make_scheduler,
    )
    rng = np.random.default_rng(4)
    rows = []
    for klass in list(_CLASS_OPS) * 2:
        program, _, rec_prev, rec_target = trainer.sample_window(klass, rng)
        rows.append(trainer.stimulus(program, rec_prev, rec_target)[0])
    return trainer, trainer.simulator.activities(rows)


def _paths(trace):
    return [[(p.gates, p.sink) for p in ap] for ap in trace]


@pytest.mark.parametrize("windows_per_chunk", [1, 3, 7, 1000])
def test_chunked_traces_equal_per_window_traces(
    setup, monkeypatch, windows_per_chunk
):
    trainer, activities = setup
    stage_analyzer = trainer.analyzer.stage_analyzer
    cells = max(a.activated.size for a in activities)
    monkeypatch.setattr(
        trainer_mod, "_APSEL_CELLS", windows_per_chunk * cells
    )
    calls = []
    ap_trace_grid = stage_analyzer.ap_trace_grid
    monkeypatch.setattr(
        stage_analyzer, "ap_trace_grid",
        lambda *args, **kw: calls.append(1) or ap_trace_grid(*args, **kw),
    )
    got = list(trainer.ap_traces(activities))
    chunks = sum(1 for _ in trainer_mod._chunks(activities))
    monkeypatch.undo()
    n_stages = trainer.analyzer.num_stages
    assert len(calls) == chunks * n_stages
    if windows_per_chunk == 1:
        assert chunks == len(activities)
    if windows_per_chunk == 1000:
        assert chunks == 1
    assert len(got) == len(activities)
    for activity, traces in zip(activities, got):
        assert len(traces) == n_stages
        for s, trace in enumerate(traces):
            (want,) = stage_analyzer.ap_trace_grid(
                s, activity, [_T_REF], include_safe=True
            )
            assert _paths(trace) == _paths(want)
