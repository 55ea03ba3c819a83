"""The batched stimulus encoder equals the frozen per-cycle encoder.

``StimulusEncoder.encode_schedules`` encodes every cycle of many
schedules at once: distinct control patterns as one SplitMix64 array
program, overrides and data buses as scatters.  Each row must equal
``tests/_reference.py::encode_cycle`` (Python bit loops, one cycle at a
time) on the windows the estimator encodes — both families' training
schedules and the control characterizer's windows — and on random
schedules with overrides, out-of-word values and buses wider than 64
bits.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.core.request import EstimationRequest
from repro.cpu.pipeline import InstructionWindow
from repro.cpu.state import MachineState
from repro.dta.trainer import _CLASS_OPS, DatapathTrainer
from repro.logicsim.stimulus import (
    StageOccupancy,
    StimulusEncoder,
    token_bits,
    token_bits_array,
)
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore
from tests import _reference


def _assert_reference(encoder, schedules, got):
    assert len(got) == len(schedules)
    for schedule, rows in zip(schedules, got):
        want = np.stack(
            [_reference.encode_cycle(encoder, cycle) for cycle in schedule]
        )
        assert rows.dtype == bool
        assert np.array_equal(rows, want)


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
@pytest.mark.parametrize("token", [0, 1, 2**64 - 1])
def test_token_bits_array_equals_token_bits(width, token):
    got = token_bits_array(np.array([token], dtype=np.uint64), width)
    assert got.shape == (1, width)
    assert got[0].tolist() == token_bits(token, width)


def test_token_bits_array_keeps_the_token_shape():
    tokens = np.array([[0, 1, 2**64 - 1], [7, 2**63, 12345]], dtype=np.uint64)
    got = token_bits_array(tokens, 130)
    assert got.shape == (2, 3, 130)
    for index in np.ndindex(tokens.shape):
        assert got[index].tolist() == token_bits(int(tokens[index]), 130)


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_training_schedules_equal_reference(family):
    """The 384 training windows of ``train``'s default draw."""
    proc = ProcessorConfig(core_family=family).build()
    trainer = DatapathTrainer(
        proc.pipeline, proc.data_analyzer, proc.library.setup_time,
        proc.logic_simulator,
        proc.stimulus_encoder,
        scheduler_factory=proc.core_family.make_scheduler,
    )
    encoder = proc.stimulus_encoder
    rng = np.random.default_rng(2019)
    state = MachineState()
    n_windows = 0
    for klass in _CLASS_OPS:
        schedules = []
        for _ in range(48):
            program, _, rec_prev, rec_target = trainer.sample_window(
                klass, rng, state
            )
            scheduler = trainer.scheduler_factory(program, proc.pipeline)
            schedules.append(
                scheduler.schedule(InstructionWindow([rec_prev, rec_target]))
            )
        _assert_reference(encoder, schedules, encoder.encode_schedules(schedules))
        n_windows += len(schedules)
    assert n_windows == 384


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_estimation_windows_equal_reference(family):
    """Every encoding call of a small estimation, among them the
    characterizer's normal + corrected window pairs."""
    calls = []
    encode = StimulusEncoder.encode_schedules

    def record(self, schedules):
        out = encode(self, schedules)
        calls.append((self, schedules, out))
        return out

    config = ProcessorConfig(
        pipeline=PipelineConfig(
            data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
            cloud_gates=60, seed=7,
        ),
    )
    request = EstimationRequest(
        workload="stringsearch", speculation=1.10, core_family=family,
        train_instructions=300, max_instructions=3_000,
    )
    with mock.patch.object(
        StimulusEncoder, "encode_schedules", autospec=True,
        side_effect=record,
    ):
        EstimationPipeline(
            config, store=ArtifactStore(), n_data_samples=16
        ).execute_grid([request])
    edge_pairs = [call for call in calls if len(call[1]) == 2]
    assert edge_pairs
    for encoder, schedules, out in calls:
        _assert_reference(encoder, schedules, out)


def _wide_pipeline():
    """A stand-in pipeline with empty, narrow and wider-than-a-word
    control groups and buses; stage 1's control sources overlap stage
    0's ``wide`` bus and stage 2's ``a`` bus overlaps stage 2's own
    control sources, so the per-stage write order shows."""
    n = 700
    ids = iter(range(n))

    def take(width):
        return [next(ids) for _ in range(width)]

    wide0 = take(130)
    ctrl2 = take(70)
    ctrl_src = [take(5), wide0[10:60], ctrl2, []]
    data_src = [
        {"wide": wide0, "one": take(1)},
        {"word": take(64), "zero": []},
        {"a": ctrl2[:20] + take(43), "b": take(65)},
        {"huge": take(200)},
    ]
    return SimpleNamespace(
        netlist=SimpleNamespace(endpoint_ids=lambda: list(range(n))),
        ctrl_src=ctrl_src,
        data_src=data_src,
        num_stages=4,
    )


def _random_occupancy(rng, n_ctrl, buses):
    overrides = {
        int(i): bool(rng.integers(2))
        for i in rng.integers(0, max(n_ctrl, 1), size=3)
    } if n_ctrl else {}
    values = [
        0, 1, -1, 2**64 - 1, 2**64, 2**130 + 5, -(2**70) - 3,
        int(rng.integers(0, 2**63)),
    ]
    return StageOccupancy(
        token=int(rng.choice([0, 2**64 - 1, 2**64 + 9, -5, int(rng.integers(9))])),
        op_token=int(rng.integers(0, 4)),
        class_token=int(rng.integers(0, 3)),
        data={
            bus: values[int(rng.integers(len(values)))]
            for bus in buses
            if rng.random() < 0.8
        },
        ctrl_overrides=overrides,
    )


@pytest.mark.parametrize("seed", range(5))
def test_random_wide_schedules_equal_reference(seed):
    pipeline = _wide_pipeline()
    encoder = StimulusEncoder(pipeline)
    rng = np.random.default_rng(seed)
    schedules = [
        [
            [
                _random_occupancy(
                    rng, len(pipeline.ctrl_src[s]), pipeline.data_src[s]
                )
                for s in range(pipeline.num_stages)
            ]
            for _ in range(int(rng.integers(1, 6)))
        ]
        for _ in range(7)
    ]
    _assert_reference(encoder, schedules, encoder.encode_schedules(schedules))
    # A one-schedule call is the same code path.
    for schedule in schedules:
        _assert_reference(
            encoder, [schedule], [encoder.encode_schedule(schedule)]
        )


def test_empty_schedule_list_and_empty_schedule():
    encoder = StimulusEncoder(_wide_pipeline())
    assert encoder.encode_schedules([]) == []
    with pytest.raises(ValueError, match="at least one"):
        encoder.encode_schedules([[[StageOccupancy()] * 4], []])
