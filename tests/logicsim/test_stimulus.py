"""Tests for pipeline-state stimulus encoding."""

import numpy as np
import pytest

from repro.logicsim import (
    StageOccupancy,
    StimulusEncoder,
    int_to_bits,
    mix64,
)
from repro.logicsim.stimulus import token_bits


def _encode_cycle(encoder, cycle):
    """One cycle's source row, through ``encode_schedule``."""
    return encoder.encode_schedule([cycle])[0]


class TestBitHelpers:
    def test_int_to_bits_little_endian(self):
        assert int_to_bits(0b1011, 4) == [True, True, False, True]

    def test_int_to_bits_truncates(self):
        assert int_to_bits(0xFF, 4) == [True] * 4

    def test_int_to_bits_zero_width(self):
        assert int_to_bits(5, 0) == []

    def test_int_to_bits_negative_width(self):
        with pytest.raises(ValueError):
            int_to_bits(1, -1)

    def test_mix64_deterministic_and_dispersive(self):
        assert mix64(1) == mix64(1)
        assert mix64(1) != mix64(2)
        # Bit dispersion: nearby inputs share few output bits.
        diff = bin(mix64(100) ^ mix64(101)).count("1")
        assert diff > 16

    def test_token_bits_width(self):
        assert len(token_bits(5, 7)) == 7
        assert len(token_bits(5, 130)) == 130

    def test_token_bits_stable(self):
        assert token_bits(12345, 64) == token_bits(12345, 64)
        assert token_bits(12345, 64) != token_bits(54321, 64)


class TestEncoder:
    def test_row_shape(self, pipeline):
        enc = StimulusEncoder(pipeline)
        row = _encode_cycle(enc, [StageOccupancy() for _ in range(6)])
        assert row.shape == (enc.n_sources,)

    def test_wrong_stage_count_rejected(self, pipeline):
        enc = StimulusEncoder(pipeline)
        with pytest.raises(ValueError, match="stage entries"):
            _encode_cycle(enc, [StageOccupancy()])

    def test_empty_schedule_rejected(self, pipeline):
        enc = StimulusEncoder(pipeline)
        with pytest.raises(ValueError, match="at least one"):
            enc.encode_schedule([])

    def test_same_token_same_pattern(self, pipeline):
        enc = StimulusEncoder(pipeline)
        cyc = [StageOccupancy(token=7) for _ in range(6)]
        r1 = _encode_cycle(enc, cyc)
        r2 = _encode_cycle(enc, cyc)
        np.testing.assert_array_equal(r1, r2)

    def test_different_tokens_different_patterns(self, pipeline):
        enc = StimulusEncoder(pipeline)
        r1 = _encode_cycle(enc, [StageOccupancy(token=7) for _ in range(6)])
        r2 = _encode_cycle(enc, [StageOccupancy(token=8) for _ in range(6)])
        assert (r1 != r2).any()

    def test_same_token_distinct_per_stage(self, pipeline):
        """An instruction drives different control patterns in each stage."""
        enc = StimulusEncoder(pipeline)
        row = _encode_cycle(
            enc,
            [StageOccupancy(token=42) for _ in range(6)]
        )
        pos = enc._source_pos
        patterns = []
        for s in range(6):
            gids = pipeline.ctrl_src[s][: pipeline.config.ctrl_regs]
            patterns.append(tuple(row[pos[g]] for g in gids))
        assert len(set(patterns)) > 1

    def test_data_values_encoded_little_endian(self, pipeline):
        enc = StimulusEncoder(pipeline)
        cyc = [StageOccupancy() for _ in range(6)]
        cyc[3] = StageOccupancy(token=1, data={"op_a": 0b101})
        row = _encode_cycle(enc, cyc)
        pos = enc._source_pos
        bus = pipeline.data_src[3]["op_a"]
        got = [bool(row[pos[g]]) for g in bus[:4]]
        assert got == [True, False, True, False]

    def test_unknown_bus_names_ignored(self, pipeline):
        enc = StimulusEncoder(pipeline)
        cyc = [StageOccupancy() for _ in range(6)]
        cyc[3] = StageOccupancy(token=1, data={"nonexistent": 7})
        _encode_cycle(enc, cyc)  # silently ignored: buses are per-stage

    def test_schedule_stacking(self, pipeline):
        enc = StimulusEncoder(pipeline)
        sched = [
            [StageOccupancy(token=t) for _ in range(6)] for t in range(3)
        ]
        arr = enc.encode_schedule(sched)
        assert arr.shape == (3, enc.n_sources)
