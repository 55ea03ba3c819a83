"""Fast functional instruction-set simulator.

The simulator plays the role of the paper's LLVM-instrumented native
execution (Section 4, "Datapath Activity Characterization"): it executes
the program at architecture level and exposes, per dynamic instruction, the
operand values the datapath timing model needs.  Each static instruction is
compiled to a closure before it first runs, keeping the interpreter loop
lean; the closures are pure functions of the machine state, so programs
that share a static instruction at the same index share its closure.

A *listener* — ``listener(index, a, b, result, next_pc)`` — receives every
dynamic instruction; pass ``None`` to run at full speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.cpu.isa import Instruction, Opcode, WORD_BITS, WORD_MASK
from repro.cpu.program import Program
from repro.cpu.state import MachineState

__all__ = ["FunctionalSimulator", "ExecutionResult", "StepRecord"]

_SIGN_BIT = 1 << (WORD_BITS - 1)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One executed dynamic instruction.

    ``a``/``b`` are the datapath operand values (rs1 value and rs2/immediate
    value; address base and offset for memory ops) and ``result`` the value
    produced (loaded data for ``ld``, stored data for ``st``, taken flag for
    branches).
    """

    index: int
    a: int
    b: int
    result: int
    next_pc: int


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """Outcome of a :meth:`FunctionalSimulator.run` call."""

    instructions: int
    halted: bool
    final_pc: int


def _signed(x: int) -> int:
    return x - (1 << WORD_BITS) if x & _SIGN_BIT else x


class FunctionalSimulator:
    """Executes a :class:`Program` on a :class:`MachineState`.

    Args:
        program: The program to execute.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        # Compiled on first use: :meth:`step` compiles only the
        # instructions it runs, :meth:`run` the whole program.
        self._exec: list = [None] * len(program)

    def _compiled(self, index: int):
        fn = self._exec[index]
        if fn is None:
            fn = self._exec[index] = self._compile(
                index, self.program[index], self.program.target_of(index)
            )
        return fn

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    @staticmethod
    @lru_cache(maxsize=1 << 12)
    def _compile(index: int, ins: Instruction, target: int | None):
        """Build ``fn(state) -> (a, b, result, next_pc)`` for instruction
        ``ins`` at ``index`` (``target``: its resolved branch target)."""
        op = ins.op
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        imm = ins.imm & WORD_MASK
        set_cc = ins.set_cc
        nxt = index + 1

        def read_b(state):
            return state.regs[rs2] if rs2 is not None else imm

        if op in (Opcode.ADD, Opcode.SUB):
            sub = op == Opcode.SUB

            def fn(state, _read_b=read_b):
                a = state.regs[rs1]
                b = _read_b(state)
                full = a - b if sub else a + b
                r = full & WORD_MASK
                if rd:
                    state.regs[rd] = r
                if set_cc:
                    f = state.flags
                    f.z = r == 0
                    f.n = bool(r & _SIGN_BIT)
                    if sub:
                        f.c = a < b  # borrow
                        f.v = bool(((a ^ b) & (a ^ r)) & _SIGN_BIT)
                    else:
                        f.c = full > WORD_MASK
                        f.v = bool((~(a ^ b) & (a ^ r)) & _SIGN_BIT)
                return a, b, r, nxt

            return fn

        if op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            bitop = {
                Opcode.AND: lambda a, b: a & b,
                Opcode.OR: lambda a, b: a | b,
                Opcode.XOR: lambda a, b: a ^ b,
            }[op]

            def fn(state, _read_b=read_b, _bitop=bitop):
                a = state.regs[rs1]
                b = _read_b(state)
                r = _bitop(a, b)
                if rd:
                    state.regs[rd] = r
                if set_cc:
                    f = state.flags
                    f.z = r == 0
                    f.n = bool(r & _SIGN_BIT)
                    f.c = f.v = False
                return a, b, r, nxt

            return fn

        if op in (Opcode.SLL, Opcode.SRL, Opcode.SRA):

            def fn(state, _read_b=read_b, _op=op):
                a = state.regs[rs1]
                b = _read_b(state)
                sh = b & (WORD_BITS - 1)
                if _op == Opcode.SLL:
                    r = (a << sh) & WORD_MASK
                elif _op == Opcode.SRL:
                    r = a >> sh
                else:
                    r = (_signed(a) >> sh) & WORD_MASK
                if rd:
                    state.regs[rd] = r
                if set_cc:
                    f = state.flags
                    f.z = r == 0
                    f.n = bool(r & _SIGN_BIT)
                    f.c = f.v = False
                return a, b, r, nxt

            return fn

        if op == Opcode.MUL:

            def fn(state, _read_b=read_b):
                a = state.regs[rs1]
                b = _read_b(state)
                r = (a * b) & WORD_MASK
                if rd:
                    state.regs[rd] = r
                if set_cc:
                    f = state.flags
                    f.z = r == 0
                    f.n = bool(r & _SIGN_BIT)
                    f.c = f.v = False
                return a, b, r, nxt

            return fn

        if op == Opcode.LI:

            def fn(state):
                if rd:
                    state.regs[rd] = imm
                return 0, imm, imm, nxt

            return fn

        if op == Opcode.LD:

            def fn(state):
                a = state.regs[rs1]
                r = state.memory[(a + imm) & 0xFFFF]
                if rd:
                    state.regs[rd] = r
                return a, imm, r, nxt

            return fn

        if op == Opcode.ST:

            def fn(state):
                a = state.regs[rs1]
                value = state.regs[rd]
                state.memory[(a + imm) & 0xFFFF] = value
                return a, imm, value, nxt

            return fn

        if ins.is_branch:
            cond = FunctionalSimulator._branch_condition(op)

            def fn(state, _cond=cond):
                taken = _cond(state.flags)
                return (
                    state.flags.as_int(),
                    0,
                    int(taken),
                    target if taken else nxt,
                )

            return fn

        if op == Opcode.CALL:

            def fn(state):
                state.regs[15] = nxt & WORD_MASK
                return nxt, 0, 0, target

            return fn

        if op == Opcode.RET:

            def fn(state):
                return state.regs[15], 0, 0, state.regs[15]

            return fn

        if op == Opcode.HALT:

            def fn(state):
                state.halted = True
                return 0, 0, 0, index

            return fn

        if op == Opcode.NOP:

            def fn(state):
                return 0, 0, 0, nxt

            return fn

        raise NotImplementedError(f"opcode {op}")

    @staticmethod
    def _branch_condition(op: Opcode):
        return {
            Opcode.BA: lambda f: True,
            Opcode.BEQ: lambda f: f.z,
            Opcode.BNE: lambda f: not f.z,
            Opcode.BLT: lambda f: f.n != f.v,
            Opcode.BGE: lambda f: f.n == f.v,
            Opcode.BGT: lambda f: (not f.z) and f.n == f.v,
            Opcode.BLE: lambda f: f.z or f.n != f.v,
            Opcode.BCC: lambda f: not f.c,
            Opcode.BCS: lambda f: f.c,
        }[op]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self, state: MachineState) -> StepRecord:
        """Execute the instruction at ``state.pc``."""
        index = state.pc
        a, b, r, nxt = self._compiled(index)(state)
        state.pc = nxt
        return StepRecord(index, a, b, r, nxt)

    def run(
        self,
        state: MachineState,
        max_instructions: int = 10_000_000,
        listener=None,
    ) -> ExecutionResult:
        """Run until ``halt`` or the instruction budget is exhausted.

        Raises ``RuntimeError`` if the program counter leaves the program
        (falling off the end without ``halt``).
        """
        n = len(self._exec)
        execute = [self._compiled(i) for i in range(n)]
        count = 0
        pc = state.pc
        if listener is None:
            while count < max_instructions and not state.halted:
                if not 0 <= pc < n:
                    raise RuntimeError(f"program counter out of range: {pc}")
                _, _, _, pc = execute[pc](state)
                count += 1
        else:
            while count < max_instructions and not state.halted:
                if not 0 <= pc < n:
                    raise RuntimeError(f"program counter out of range: {pc}")
                a, b, r, nxt = execute[pc](state)
                listener(pc, a, b, r, nxt)
                pc = nxt
                count += 1
        state.pc = pc
        return ExecutionResult(
            instructions=count, halted=state.halted, final_pc=pc
        )
