"""Tests for the hierarchical control encoding and semantic overrides."""

import numpy as np
import pytest

from repro.logicsim import StageOccupancy, StimulusEncoder


def _encode_cycle(encoder, cycle):
    """One cycle's source row, through ``encode_schedule``."""
    return encoder.encode_schedule([cycle])[0]


@pytest.fixture
def encoder(pipeline):
    return StimulusEncoder(pipeline)


def _ctrl_bits(encoder, pipeline, row, stage):
    pos = encoder._source_pos
    return np.array(
        [row[pos[g]] for g in pipeline.ctrl_src[stage]], dtype=bool
    )


class TestHierarchy:
    def test_same_class_shares_class_bits(self, encoder, pipeline):
        """Instructions of the same opcode class differ only in the
        op-level and instruction-level bit groups."""
        a = [
            StageOccupancy(token=11, op_token=21, class_token=31)
            for _ in range(6)
        ]
        b = [
            StageOccupancy(token=12, op_token=22, class_token=31)
            for _ in range(6)
        ]
        ra = _encode_cycle(encoder, a)
        rb = _encode_cycle(encoder, b)
        for s in range(6):
            bits_a = _ctrl_bits(encoder, pipeline, ra, s)
            bits_b = _ctrl_bits(encoder, pipeline, rb, s)
            class_positions = [
                i for i in range(len(bits_a)) if i % 4 < 2
            ]
            np.testing.assert_array_equal(
                bits_a[class_positions], bits_b[class_positions]
            )

    def test_same_op_shares_op_bits(self, encoder, pipeline):
        a = [
            StageOccupancy(token=11, op_token=21, class_token=31)
            for _ in range(6)
        ]
        b = [
            StageOccupancy(token=99, op_token=21, class_token=31)
            for _ in range(6)
        ]
        ra = _encode_cycle(encoder, a)
        rb = _encode_cycle(encoder, b)
        for s in range(6):
            bits_a = _ctrl_bits(encoder, pipeline, ra, s)
            bits_b = _ctrl_bits(encoder, pipeline, rb, s)
            op_positions = [i for i in range(len(bits_a)) if i % 4 == 2]
            np.testing.assert_array_equal(
                bits_a[op_positions], bits_b[op_positions]
            )

    def test_similar_instructions_flip_few_bits(self, encoder, pipeline):
        """The hierarchy's purpose: same-class instructions keep most
        control state stable between cycles."""
        same_class = _encode_cycle(
            encoder,
            [StageOccupancy(token=1, op_token=2, class_token=3)] * 6
        ) != _encode_cycle(
            encoder,
            [StageOccupancy(token=4, op_token=2, class_token=3)] * 6
        )
        different = _encode_cycle(
            encoder,
            [StageOccupancy(token=1, op_token=2, class_token=3)] * 6
        ) != _encode_cycle(
            encoder,
            [StageOccupancy(token=4, op_token=5, class_token=6)] * 6
        )
        assert same_class.sum() < 0.6 * different.sum()


class TestOverrides:
    def test_override_wins_over_hash(self, encoder, pipeline):
        for value in (False, True):
            cyc = [StageOccupancy(token=7) for _ in range(6)]
            cyc[3] = StageOccupancy(token=7, ctrl_overrides={6: value})
            row = _encode_cycle(encoder, cyc)
            bits = _ctrl_bits(encoder, pipeline, row, 3)
            assert bits[6] == value

    def test_overrides_do_not_leak_to_other_bits(self, encoder, pipeline):
        base = _encode_cycle(
            encoder,
            [StageOccupancy(token=7) for _ in range(6)]
        )
        cyc = [StageOccupancy(token=7) for _ in range(6)]
        cyc[3] = StageOccupancy(token=7, ctrl_overrides={6: True, 7: True})
        row = _encode_cycle(encoder, cyc)
        diff = np.flatnonzero(base != row)
        pos = encoder._source_pos
        allowed = {
            pos[pipeline.ctrl_src[3][6]], pos[pipeline.ctrl_src[3][7]]
        }
        assert set(diff.tolist()) <= allowed


class TestSchedulerSemantics:
    def test_alu_selects_follow_opcode(self):
        from repro.cpu import FunctionalSimulator, MachineState, assemble
        from repro.cpu.pipeline import InstructionWindow, PipelineScheduler

        program = assemble(
            "li r1, 3\nli r2, 5\nadd r3, r1, r2\nmul r4, r1, r2\n"
            "and r5, r1, r2\nsrl r6, r1, 1\nhalt"
        )
        sim = FunctionalSimulator(program)
        state = MachineState()
        records = [sim.step(state) for _ in range(6)]
        sched = PipelineScheduler(program).schedule(
            InstructionWindow(records)
        )
        # Instruction i reaches EX at cycle i + 3.
        expected = {
            2: (False, False),  # add -> adder
            3: (True, True),    # mul -> multiplier
            4: (True, False),   # and -> logic (sel0=1, sel1=0)
            5: (False, True),   # srl -> shifter (sel0=0, sel1=1)
        }
        for idx, (sel0, sel1) in expected.items():
            occ = sched[idx + 3][3]
            assert occ.ctrl_overrides[6] == sel0, idx
            assert occ.ctrl_overrides[7] == sel1, idx

    def test_load_select_in_me_and_wb(self):
        from repro.cpu import FunctionalSimulator, MachineState, assemble
        from repro.cpu.pipeline import InstructionWindow, PipelineScheduler

        program = assemble("li r1, 9\nld r2, [r1+0]\nst r2, [r1+1]\nhalt")
        sim = FunctionalSimulator(program)
        state = MachineState()
        records = [sim.step(state) for _ in range(3)]
        sched = PipelineScheduler(program).schedule(
            InstructionWindow(records)
        )
        assert sched[1 + 4][4].ctrl_overrides[0] is True  # ld in ME
        assert sched[2 + 4][4].ctrl_overrides[0] is False  # st in ME
        assert sched[1 + 5][5].ctrl_overrides[0] is True  # ld in WB
