"""Pipeline occupancy modelling for characterization windows.

The control-network characterizer (Section 4) executes short instruction
sequences — a basic block plus the tail of a predecessor — through the
in-order pipeline and needs to know, for every cycle, which instruction
occupies which stage and with which operand values.  This module converts a
window of executed instructions (:class:`~repro.cpu.interpreter.StepRecord`
values, or ``None`` for bubbles) into the per-cycle
:class:`~repro.logicsim.stimulus.StageOccupancy` schedules consumed by the
stimulus encoder.

The model is ideal single-issue in-order flow: one instruction enters the
pipeline per cycle, no stalls (LEON3's integer pipeline is close to
stall-free on register workloads; memory stalls would only stretch windows,
not change which paths activate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.interpreter import StepRecord
from repro.cpu.isa import Opcode, OpClass, WORD_MASK
from repro.cpu.program import Program
from repro.logicsim.stimulus import PipelineCycle, StageOccupancy

__all__ = ["InstructionWindow", "PipelineScheduler"]


@dataclass(slots=True)
class InstructionWindow:
    """A sequence of pipeline slots.

    Each slot is a :class:`StepRecord` (an executed dynamic instruction) or
    ``None`` (a bubble — flushed/idle pipeline slot).
    """

    slots: list[StepRecord | None]

    def __len__(self) -> int:
        return len(self.slots)

    def with_bubble_before(self, k: int) -> "InstructionWindow":
        """Copy with a bubble inserted before slot ``k``.

        This is the paper's error-correction emulation: computing the
        conditional error probability p^e of instruction ``k`` given the
        previous instruction erred, by mimicking the flushed pipeline state
        the correction mechanism leaves behind.
        """
        if not 0 <= k < len(self.slots):
            raise IndexError(f"slot {k} out of range")
        return InstructionWindow(self.slots[:k] + [None] + self.slots[k:])


#: ALU functional-select encodings: (alu_sel1, alu_sel0) routes the EX
#: result mux to the adder / logic unit / barrel shifter / multiplier.
_ALU_SELECT = {
    OpClass.ADDER: (False, False),
    OpClass.LOAD: (False, False),  # address adder
    OpClass.STORE: (False, False),
    OpClass.LOGIC: (False, True),
    OpClass.SHIFT: (True, False),
    OpClass.MULT: (True, True),
}
_LOGIC_SELECT = {  # (op1, op0) of the logic unit
    Opcode.AND: (False, False),
    Opcode.OR: (False, True),
    Opcode.XOR: (True, False),
}


def _ex_overrides(ins) -> dict[int, bool]:
    """Semantic EX-stage control bits derived from the opcode."""
    sel1, sel0 = _ALU_SELECT.get(ins.op_class, (False, False))
    op1, op0 = _LOGIC_SELECT.get(ins.op, (False, False))
    return {
        3: ins.op == Opcode.SUB,  # subtract enable (operand complement)
        4: op0,
        5: op1,
        6: sel0,
        7: sel1,
    }


def _flags_proxy(record: StepRecord | None) -> int:
    """Approximate condition-code value from a producing record."""
    if record is None:
        return 0
    r = record.result
    z = int(r == 0)
    n = int(bool(r & 0x8000))
    return z | (n << 1)


class PipelineScheduler:
    """Maps instruction windows onto per-cycle stage occupancy.

    Args:
        program: The program the window's records refer to.
        num_stages: Pipeline depth (6 for the modelled LEON3 integer unit).
    """

    def __init__(
        self,
        program: Program,
        num_stages: int = 6,
    ) -> None:
        if num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        self.program = program
        self.num_stages = num_stages

    def _occupancy(
        self,
        stage: int,
        record: StepRecord | None,
        prev: StepRecord | None,
    ) -> StageOccupancy:
        if record is None:
            return StageOccupancy()
        ins = self.program[record.index]
        token = self.program.token_of(record.index)
        op_token = self.program.op_token_of(record.index)
        class_token = self.program.class_token_of(record.index)
        a, b, result = record.a, record.b, record.result
        overrides: dict[int, bool] = {}
        if stage == 3:
            overrides = _ex_overrides(ins)
        elif stage in (4, 5):
            overrides = {0: ins.op == Opcode.LD}
        if stage == 0:
            data = {
                "pc": record.index & WORD_MASK,
                # The next-PC register holds the prediction that led here.
                "pc_next": record.index & WORD_MASK,
                "fetch_imm": ins.imm & 0xFF,
            }
        elif stage == 2:
            data = {
                "rf_a": a & WORD_MASK,
                "rf_b": b & WORD_MASK,
                "imm": ins.imm & WORD_MASK,
            }
        elif stage == 3:
            data = {
                "op_a": a & WORD_MASK,
                "op_b": b & WORD_MASK,
                "cc": _flags_proxy(prev),
            }
        elif stage == 4:
            if ins.op in (Opcode.LD, Opcode.ST):
                address = (a + ins.imm) & WORD_MASK
                loaded = result & WORD_MASK if ins.op == Opcode.LD else 0
            else:
                address = result & WORD_MASK
                loaded = 0
            data = {
                "ma": address,
                "mem_d": loaded,
                "ex_result": result & WORD_MASK,
            }
        elif stage == 5:
            data = {
                "wb_src": result & WORD_MASK,
                "me_result": result & WORD_MASK,
            }
        else:
            data = {}
        return StageOccupancy(
            token=token,
            op_token=op_token,
            class_token=class_token,
            data=data,
            ctrl_overrides=overrides,
        )

    def schedule(self, window: InstructionWindow) -> list[PipelineCycle]:
        """Per-cycle pipeline occupancy for a window.

        Slot ``i`` enters stage 0 at cycle ``i`` and stage ``s`` at cycle
        ``i + s``; the schedule spans ``len(window) + num_stages - 1``
        cycles so the last slot drains fully.
        """
        slots = window.slots
        n_cycles = len(slots) + self.num_stages - 1
        cycles: list[PipelineCycle] = []
        for c in range(n_cycles):
            cycle: PipelineCycle = []
            for s in range(self.num_stages):
                i = c - s
                record = slots[i] if 0 <= i < len(slots) else None
                prev = slots[i - 1] if 1 <= i <= len(slots) else None
                cycle.append(self._occupancy(s, record, prev))
            cycles.append(cycle)
        return cycles

    def entry_cycle(self, slot_index: int) -> int:
        """Cycle at which slot ``slot_index`` enters stage 0."""
        return slot_index

    def entries(
        self, window: InstructionWindow, slot_indices: list[int]
    ) -> list[int]:
        """Analyzer entry specs for the given slots.

        The in-order trajectory is fully described by the entry cycle
        (stage ``s`` at ``entry + s``), so the specs are plain integers;
        out-of-order schedulers return explicit (stage, cycle) pair
        lists from the same method.
        """
        return [self.entry_cycle(i) for i in slot_indices]
