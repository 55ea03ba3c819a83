"""Training's AP selection on the target rows equals a full selection.

``DatapathTrainer.target_aps`` selects AP sets only on the rows each
window's target instruction occupies: per stage, those rows of every
window are stacked and selected a chunk of at most ``_APSEL_CELLS``
activation cells at a time, and each window's union is built from its
rows.  Each union must hold the same ``Path`` objects, in the same
order, as a full ``ap_trace_grid`` per stage over the whole window
followed by ``instruction_ap``, for row budgets from one row to all of
them.
"""

from collections import Counter

import numpy as np
import pytest

import repro.dta.trainer as trainer_mod
from repro.cpu.pipeline import InstructionWindow
from repro.dta.algorithm2 import entry_pairs
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
    schedules, entries = [], []
    for klass in list(_CLASS_OPS) * 2:
        program, _, rec_prev, rec_target = trainer.sample_window(klass, rng)
        scheduler = trainer.scheduler_factory(program, trainer.pipeline)
        window = InstructionWindow([rec_prev, rec_target])
        schedules.append(scheduler.schedule(window))
        entries.append(scheduler.entries(window, [1])[0])
    rows = trainer.encoder.encode_schedules(schedules)
    return trainer, trainer.simulator.activities(rows), entries


def _full_union(trainer, activity, entry):
    """Every cycle of every stage selected, then the target's union."""
    traces = [
        trainer.analyzer.stage_analyzer.ap_trace_grid(
            s, activity, [_T_REF], include_safe=True
        )[0]
        for s in range(trainer.analyzer.num_stages)
    ]
    return trainer.analyzer.instruction_ap(activity, entry, traces)


@pytest.mark.parametrize("rows_per_call", [1, 3, 7, 1000])
def test_chunked_traces_equal_per_window_traces(
    setup, monkeypatch, rows_per_call
):
    trainer, activities, entries = setup
    stage_analyzer = trainer.analyzer.stage_analyzer
    n_gates = activities[0].n_gates
    budget = rows_per_call * n_gates
    monkeypatch.setattr(trainer_mod, "_APSEL_CELLS", budget)
    calls = []
    ap_trace_grid = stage_analyzer.ap_trace_grid
    monkeypatch.setattr(
        stage_analyzer, "ap_trace_grid",
        lambda s, activity, *args, **kw: (
            calls.append((s, activity.activated.size))
            or ap_trace_grid(s, activity, *args, **kw)
        ),
    )
    got = trainer.target_aps(activities, entries)
    monkeypatch.undo()
    assert all(cells <= budget for _, cells in calls)
    # The targets' in-window rows, per stage.
    rows = Counter(
        s
        for activity, entry in zip(activities, entries)
        for s, t in entry_pairs(entry, trainer.analyzer.num_stages)
        if 0 <= t < activity.n_cycles
    )
    assert sum(cells for _, cells in calls) == rows.total() * n_gates
    assert len(calls) == sum(-(-n // rows_per_call) for n in rows.values())
    if rows_per_call == 1:
        assert len(calls) == rows.total()
    if rows_per_call == 1000:
        assert len(calls) == len(rows)
    assert len(got) == len(activities)
    assert any(got)
    for activity, entry, union in zip(activities, entries, got):
        want = _full_union(trainer, activity, entry)
        assert len(union) == len(want)
        assert all(p is q for p, q in zip(union, want))
