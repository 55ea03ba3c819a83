"""Training windows draw the operand values of the per-operand loop.

``DatapathTrainer.sample_window`` draws all 132 operands of a window
(4 registers and 128 memory words) in one ``rng.integers`` call.  The
reference below is the per-operand loop it replaced, frozen here: a
bit width from ``integers(1, 17)``, then a value from
``integers(1 << width)``.  Both must give the same programs and step
records and leave the generator in the same state, whatever the
32-bit word alignment the window starts at.  Windows run on one reused
``MachineState`` must give the records of a fresh state per window.
"""

import numpy as np
import pytest

import repro.dta.trainer as trainer_mod
from repro.cpu.interpreter import FunctionalSimulator
from repro.cpu.isa import Instruction, Opcode, OpClass, WORD_MASK
from repro.cpu.program import Program
from repro.cpu.state import MachineState
from repro.dta.trainer import _CLASS_OPS, DatapathTrainer
from repro.netlist import PipelineConfig
from repro.pipeline.ir import ProcessorConfig

SMALL = PipelineConfig(
    data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
    cloud_gates=60, seed=7,
)


def _sample_operand(rng) -> int:
    width = int(rng.integers(1, 17))
    return int(rng.integers(1 << width)) & WORD_MASK


def _reference_window(trainer, klass, rng):
    """``sample_window`` as a per-operand loop of scalar draws."""
    prev_klass = list(_CLASS_OPS)[int(rng.integers(len(_CLASS_OPS)))]
    prev_ins = trainer._sample_instruction(prev_klass, rng)
    target_ins = trainer._sample_instruction(klass, rng)
    program = Program(
        [prev_ins, target_ins, Instruction(Opcode.NOP),
         Instruction(Opcode.HALT)],
        labels={"L": 2},
        name="dp-train",
    )
    sim = FunctionalSimulator(program)
    state = MachineState()
    for reg in (2, 3, 5, 6):
        state.regs[reg] = _sample_operand(rng)
    for addr in range(0, 128):
        state.write_mem(addr, _sample_operand(rng))
    rec_prev = sim.step(state)
    rec_target = sim.step(state)
    return program, target_ins, rec_prev, rec_target


@pytest.fixture(scope="module")
def trainer():
    proc = ProcessorConfig(pipeline=SMALL).build()
    return DatapathTrainer(
        proc.pipeline, proc.data_analyzer, proc.library.setup_time,
        proc.logic_simulator, proc.stimulus_encoder,
    )


def _window_key(window):
    program, target_ins, rec_prev, rec_target = window
    return program.instructions, program.labels, target_ins, rec_prev, rec_target


@pytest.mark.parametrize("seed", range(40))
def test_windows_and_stream_equal_scalar_draws(trainer, seed):
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    pending = set()
    for step, klass in enumerate(list(_CLASS_OPS) * 2):
        # Odd and even counts of one-word draws between windows move
        # the start of a window's operands across both halves of a
        # 64-bit output.
        for _ in range((seed + step) % 3):
            assert got_rng.integers(2) == want_rng.integers(2)
        pending.add(got_rng.bit_generator.state["has_uint32"])
        got = trainer.sample_window(klass, got_rng)
        want = _reference_window(trainer, klass, want_rng)
        assert _window_key(got) == _window_key(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert pending == {0, 1}


def test_class_draws_that_shift_the_alignment(trainer):
    """MULT's op choice is ``integers(1)``, which takes no word, and a
    register-register op's ``set_cc`` is ``integers(2)``, which takes
    one; windows of both kinds keep the stream."""
    assert len(_CLASS_OPS[OpClass.MULT]) == 1
    got_rng = np.random.default_rng(11)
    want_rng = np.random.default_rng(11)
    for klass in [OpClass.MULT, OpClass.ADDER, OpClass.MULT,
                  OpClass.SHIFT, OpClass.LOGIC] * 4:
        got = trainer.sample_window(klass, got_rng)
        want = _reference_window(trainer, klass, want_rng)
        assert _window_key(got) == _window_key(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_reused_state_equals_fresh_state(trainer, monkeypatch):
    """One ``MachineState`` serves every window of ``train``.  Windows
    that store to a high address, followed by windows that load it,
    must still see the records of a fresh state per window: each window
    puts back the memory words it wrote."""
    draw = trainer_mod._sample_operands

    def high_base(rng, n):
        # r5, the base register of every load and store, points at the
        # top 64 words, where stores and loads of different windows meet.
        values = draw(rng, n)
        values[2] = 0xFFC0
        return values

    monkeypatch.setattr(trainer_mod, "_sample_operands", high_base)
    got_rng = np.random.default_rng(5)
    want_rng = np.random.default_rng(5)
    state = MachineState()
    stored: dict[int, int] = {}
    reloads = 0
    for klass in [OpClass.STORE, OpClass.LOAD] * 60:
        got = trainer.sample_window(klass, got_rng, state)
        want = trainer.sample_window(klass, want_rng)
        assert _window_key(got) == _window_key(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        program, _, *records = got
        for rec in records:
            address = (rec.a + rec.b) & 0xFFFF
            op = program[rec.index].op
            if op == Opcode.LD and stored.get(address):
                reloads += 1
            if op == Opcode.ST and address >= 128:
                stored[address] = rec.result
    assert reloads > 0
    assert state.memory == MachineState().memory
