"""The error model's shared datapath half equals the per-point code.

The error model's period-independent half (resampled executions,
datapath arrivals, one tree prediction per op class) is kept in the
program's pass inputs (``PassInputs.datapath_half``) and serves every
operating point with its ``(seed, n_samples)``;
``InstructionErrorModel.all_block_probabilities`` runs only the control
gather, Clark minimum and probability per operating point.  Every probability row must equal, byte
for byte, the frozen per-instruction, per-point body of
``tests/_reference.py``: for both core families, several sample counts,
explicit-seed and ``seed=None`` grids, an edge that was never
characterized (the ``_by_block`` fallback) and absent control Gaussians
(the ``_SAFE_SLACK`` stand-in).
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.collect import BlockExecutionSample
from repro.core.errormodel import InstructionErrorModel
from repro.core.request import EstimationRequest
from repro.dta.characterize import ControlTimingModel
from repro.dta.datapath import DatapathTimingModel
from repro.netlist import PipelineConfig
from repro.pipeline import stages
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from tests._reference import reference_kernels

SMALL = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)

SPECS = (1.05, 1.20, 1.45)

FAMILIES = ("inorder6", "ooo-tomasulo")


def _requests(specs=SPECS, seed=0):
    return [
        EstimationRequest(
            workload="bitcount", speculation=s, seed=seed,
            train_instructions=3_000, max_instructions=4_000,
        )
        for s in specs
    ]


def _spy_grid(pipeline, requests):
    """Run one grid pass, recording every error-model call with the
    datapath half it used."""
    calls = []
    real = InstructionErrorModel.all_block_probabilities

    def spy(self, samples, n_samples=128, seed=0, half=None):
        got = real(self, samples, n_samples, seed, half)
        calls.append(
            (self, samples, n_samples, seed, self.datapath_half, got)
        )
        return got

    with mock.patch.object(
        InstructionErrorModel, "all_block_probabilities", spy
    ):
        pipeline.execute_grid(requests)
    return calls


def _reference(model, samples, n_samples, seed):
    with reference_kernels():
        return model.all_block_probabilities(samples, n_samples, seed)


def _through_slot(inputs, model, samples, n_samples, seed):
    """``model``'s probabilities through the ``datapath_half`` slot of
    ``inputs`` (``stages.block_conditionals``), and the half the slot
    holds afterwards."""
    got = stages.block_conditionals(
        model.processor, model.program, model.cfg, model.control_model,
        samples, None, n_samples, seed, inputs=inputs,
    )
    return got, inputs.datapath_half


def _assert_bytes_equal(got, want):
    assert sorted(got) == sorted(want)
    for bid in want:
        assert got[bid].pc.tobytes() == want[bid].pc.tobytes(), bid
        assert got[bid].pe.tobytes() == want[bid].pe.tobytes(), bid


@pytest.fixture(scope="module", params=FAMILIES)
def pipeline(request):
    pipe = EstimationPipeline(
        ProcessorConfig(pipeline=SMALL, core_family=request.param),
        n_data_samples=24,
    )
    pipe.execute_grid(_requests(specs=(1.0,)))  # train the datapath
    return pipe


@pytest.fixture(scope="module")
def grid_calls(pipeline):
    """The error-model calls of one explicit-seed 3-point grid."""
    return _spy_grid(pipeline, _requests())


class TestGridPass:
    def test_explicit_seed_points_share_one_half(self, grid_calls):
        assert len(grid_calls) == len(SPECS)
        halves = {id(half) for *_, half, _ in grid_calls}
        assert len(halves) == 1
        model, samples, _, _, half, _ = grid_calls[0]
        assert (half.seed, half.n_samples) == (0, 24)
        assert half.built_from(model.datapath, samples, 24, 0)
        periods = {model.clock_period for model, *_ in grid_calls}
        assert len(periods) == len(SPECS)

    def test_explicit_seed_points_equal_reference(self, grid_calls):
        for model, samples, n_samples, seed, _, got in grid_calls:
            want = _reference(model, samples, n_samples, seed)
            _assert_bytes_equal(got, want)

    def test_unseeded_grid_equals_reference(self, pipeline):
        calls = _spy_grid(pipeline, _requests(seed=None))
        seeds = [seed for _, _, _, seed, _, _ in calls]
        assert len(set(seeds)) == len(SPECS)
        assert [half.seed for *_, half, _ in calls] == seeds
        assert len({id(half) for *_, half, _ in calls}) == len(SPECS)
        for model, samples, n_samples, seed, _, got in calls:
            want = _reference(model, samples, n_samples, seed)
            _assert_bytes_equal(got, want)


@pytest.mark.parametrize("n_samples", [1, 24, 128])
def test_shared_memo_equals_reference(grid_calls, n_samples):
    """The pass inputs' one-entry slot (the memo) serves every point."""
    inputs = stages.PassInputs()
    halves = set()
    for model, samples, _, seed, _, _ in grid_calls:
        got, half = _through_slot(inputs, model, samples, n_samples, seed)
        halves.add(id(half))
        want = _reference(model, samples, n_samples, seed)
        _assert_bytes_equal(got, want)
    assert len(halves) == 1
    half = inputs.datapath_half
    assert (half.seed, half.n_samples) == (0, n_samples)


def test_fallback_edge_and_absent_control_equal_reference(grid_calls):
    """A quarter of each block's executions enter from an edge the
    control model never saw (``get`` falls back to the block's first
    recorded edge), and a quarter from an edge recorded with no risky
    path at all (``None`` Gaussians, the ``_SAFE_SLACK`` stand-in)."""
    model, samples, *_ = grid_calls[-1]
    control = ControlTimingModel.from_json(model.control_model.to_json())
    unseen, safe = 10_000, 10_001
    mixed = {}
    for bid, blk in samples.items():
        for k in range(model.cfg.block(bid).size):
            control.record((bid, safe, k), None, None)
        mixed[bid] = [
            BlockExecutionSample(
                pred=(s.pred, unseen, s.pred, safe)[i % 4],
                entry_prev=s.entry_prev,
                records=s.records,
            )
            for i, s in enumerate(blk)
        ]
    edited = InstructionErrorModel(
        model.processor, model.program, model.cfg, control
    )
    inputs = stages.PassInputs()
    for n_samples in (1, 24):
        got, _ = _through_slot(inputs, edited, mixed, n_samples, 3)
        _assert_bytes_equal(got, _reference(edited, mixed, n_samples, 3))
    taken = np.concatenate(list(inputs.datapath_half.preds.values()))
    assert {unseen, safe} <= set(taken.tolist())


def test_memo_shared_across_sample_sets_keeps_them_apart(grid_calls):
    """One slot fed two different sample dicts with the same seed and
    sample count builds a half for each: neither gets the other's
    resampled executions."""
    model, samples, *_ = grid_calls[0]
    reversed_samples = {bid: blk[::-1] for bid, blk in samples.items()}
    inputs = stages.PassInputs()
    halves = []
    for chosen in (samples, reversed_samples, samples):
        got, half = _through_slot(inputs, model, chosen, 24, 5)
        assert half.samples is chosen
        halves.append(half)
        _assert_bytes_equal(got, _reference(model, chosen, 24, 5))
    assert len({id(half) for half in halves}) == 3


@pytest.mark.parametrize("k", [1, 3])
def test_one_prediction_per_op_class_for_any_grid_size(pipeline, k):
    """A k-point explicit-seed grid at a seed the pipeline has not kept
    a half for predicts each op class once."""
    real = DatapathTimingModel.predict_arrival
    classes = []

    def count(self, klass, features):
        classes.append(klass)
        return real(self, klass, features)

    with mock.patch.object(DatapathTimingModel, "predict_arrival", count):
        calls = _spy_grid(pipeline, _requests(specs=SPECS[:k], seed=7 + k))
    model, samples, *_ = calls[0]
    present = {
        model.program[model.cfg.block(bid).start + i].op_class
        for bid in samples
        for i in range(model.cfg.block(bid).size)
    }
    assert len(calls) == k
    assert sorted(classes, key=lambda c: c.value) == sorted(
        present, key=lambda c: c.value
    )


def test_empty_block_is_rejected(grid_calls):
    model, *_ = grid_calls[0]
    with pytest.raises(ValueError, match="no execution samples"):
        model.all_block_probabilities({0: []}, 8)
