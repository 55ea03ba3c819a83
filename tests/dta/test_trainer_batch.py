"""Batched datapath training equals the per-window loop it replaced.

``DatapathTrainer.train`` draws every training window first, settles
all of them in one ``LevelizedSimulator.evaluate`` call, and then runs
``measure`` once per window on that window's slice of the activity.
The reference below draws, simulates and measures one window at a time
(the loop ``train`` used to be); both must give the same samples bit
for bit and the same fitted model, for each core family.  So must the
frozen path of ``tests/_reference.py`` (a freshly compiled program per
window, uncached tokens and the recursive tree fit), and the memoized
static tokens must equal the uncached ones on every bundled program.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from repro._util import as_rng
from repro.cpu.pipeline import InstructionWindow
from repro.dta.datapath import (
    DatapathSample,
    DatapathTimingModel,
    extract_features,
)
from repro.dta.trainer import _CLASS_OPS, _T_REF, DatapathTrainer
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.workloads import list_workloads, load_workload
from tests import _reference

SMALL = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)
PER_CLASS = 12
SEED = 3


def _trainer(family):
    proc = ProcessorConfig(pipeline=SMALL, core_family=family).build()
    return DatapathTrainer(
        proc.pipeline,
        proc.data_analyzer,
        proc.library.setup_time,
        proc.logic_simulator,
        proc.stimulus_encoder,
        scheduler_factory=proc.core_family.make_scheduler,
    )


def _reference_train(trainer, samples_per_class, seed):
    """Draw, simulate and measure one window at a time."""
    rng = as_rng(seed)
    samples = []
    for klass in _CLASS_OPS:
        for _ in range(samples_per_class):
            program, target_ins, rec_prev, rec_target = (
                trainer.sample_window(klass, rng)
            )
            scheduler = trainer.scheduler_factory(program, trainer.pipeline)
            window = InstructionWindow([rec_prev, rec_target])
            activity = trainer.simulator.activity(
                trainer.encoder.encode_schedule(scheduler.schedule(window))
            )
            dts = trainer.analyzer.window_dts_grid(
                activity, scheduler.entries(window, [1]), [_T_REF],
                include_safe=True,
            )[0][0]
            if dts is None:
                arrival, sd = 0.0, 0.5
            else:
                arrival = float(_T_REF - trainer.setup_time - dts.mean)
                sd = float(max(dts.std, 0.5))
            samples.append(
                DatapathSample(
                    op_class=klass,
                    features=extract_features(target_ins, rec_target, rec_prev),
                    arrival=arrival,
                    arrival_sd=sd,
                )
            )
    model = DatapathTimingModel()
    model.fit(samples)
    return model, samples


def _assert_same_training(got_model, got, want_model, want):
    """Samples equal bit for bit, and the fitted models serialize alike."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.op_class == w.op_class
        assert np.array_equal(g.features, w.features)
        assert g.arrival == w.arrival and g.arrival_sd == w.arrival_sd
    assert got_model.to_json() == want_model.to_json()


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_batched_training_equals_per_window_loop(family):
    want_model, want = _reference_train(_trainer(family), PER_CLASS, SEED)
    trainer = _trainer(family)
    calls = []
    measure = trainer.measure
    trainer.measure = lambda *args: calls.append(1) or measure(*args)
    before = kernel_stats().snapshot()
    got_model, got = trainer.train(samples_per_class=PER_CLASS, seed=SEED)
    sims = kernel_stats().delta(before).sim_calls
    assert len(calls) == len(got) == PER_CLASS * len(_CLASS_OPS)
    # One batched evaluate, plus the flushed state on first use.
    assert sims <= 2
    _assert_same_training(got_model, got, want_model, want)
    assert any(s.arrival > 0.0 for s in got)


def test_activities_equal_per_window_activity():
    trainer = _trainer("inorder6")
    rng = np.random.default_rng(0)
    n = trainer.simulator.n_sources
    blocks = [rng.random((int(c), n)) < 0.5 for c in (1, 5, 3, 5, 2)]
    batched = trainer.simulator.activities(blocks)
    for block, trace in zip(blocks, batched):
        single = trainer.simulator.activity(block)
        assert np.array_equal(trace.activated, single.activated)
        assert np.array_equal(trace.values, single.values)


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_training_equals_frozen_path(family):
    with ExitStack() as stack:
        for owner, name, body in _reference.TRAINING_PATCHES:
            stack.enter_context(mock.patch.object(owner, name, body))
        want_model, want = _trainer(family).train(
            samples_per_class=PER_CLASS, seed=SEED
        )
    got_model, got = _trainer(family).train(
        samples_per_class=PER_CLASS, seed=SEED
    )
    _assert_same_training(got_model, got, want_model, want)


@pytest.mark.parametrize("name", list_workloads())
def test_memoized_tokens_equal_uncached(name):
    program = load_workload(name).program
    for i, ins in enumerate(program.instructions):
        assert program.token_of(i) == _reference.static_token(i, ins)
        assert program.op_token_of(i) == _reference.coarse_token(
            ins.op.value, int(ins.set_cc)
        )
        assert program.class_token_of(i) == _reference.coarse_token(
            ins.op_class.value, 0
        )
