"""Datapath timing-model training (the gate-level half of [2]).

Generates "special instruction sequences and input data" — randomized
(previous, target) instruction pairs with sampled operands per opcode class
— executes them through the pipeline model, measures the activated data-
endpoint arrival with Algorithm 1/2 at gate level, and fits the
:class:`~repro.dta.datapath.DatapathTimingModel` regression.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
from repro.cpu.interpreter import FunctionalSimulator
from repro.cpu.isa import Instruction, Opcode, OpClass, WORD_MASK
from repro.cpu.pipeline import InstructionWindow, PipelineScheduler
from repro.cpu.program import Program
from repro.cpu.state import MachineState
from repro.dta.algorithm2 import InstructionDTSAnalyzer
from repro.dta.datapath import DatapathSample, DatapathTimingModel, extract_features
from repro.logicsim.simulator import LevelizedSimulator
from repro.logicsim.stimulus import StimulusEncoder

__all__ = ["DatapathTrainer"]

_CLASS_OPS: dict[OpClass, list[Opcode]] = {
    OpClass.ADDER: [Opcode.ADD, Opcode.SUB],
    OpClass.LOGIC: [Opcode.AND, Opcode.OR, Opcode.XOR],
    OpClass.SHIFT: [Opcode.SLL, Opcode.SRL, Opcode.SRA],
    OpClass.MULT: [Opcode.MUL],
    OpClass.LOAD: [Opcode.LD],
    OpClass.STORE: [Opcode.ST],
    OpClass.CONTROL: [Opcode.BEQ, Opcode.BNE, Opcode.BA],
    OpClass.OTHER: [Opcode.LI, Opcode.NOP],
}

#: Reference clock period used only to convert slacks back to arrivals; any
#: value larger than every path delay works (arrival = T - setup - slack).
_T_REF = 20000.0


class DatapathTrainer:
    """Trains a datapath timing model against a pipeline netlist.

    Args:
        pipeline: Generated pipeline netlist.
        analyzer: Instruction DTS analyzer restricted to DATA endpoints.
        setup_time: Flip-flop setup time of the library (ps).
        scheduler_factory: ``(program, pipeline) -> scheduler`` building
            the occupancy scheduler per training program (a core
            family's ``make_scheduler``).  Defaults to the in-order
            :class:`PipelineScheduler`.
    """

    def __init__(
        self,
        pipeline,
        analyzer: InstructionDTSAnalyzer,
        setup_time: float,
        scheduler_factory=None,
    ) -> None:
        self.pipeline = pipeline
        self.analyzer = analyzer
        self.setup_time = setup_time
        self.scheduler_factory = scheduler_factory or (
            lambda program, pl: PipelineScheduler(
                program, num_stages=pl.num_stages
            )
        )
        self.simulator = LevelizedSimulator(pipeline.netlist)
        self.encoder = StimulusEncoder(pipeline)

    # ------------------------------------------------------------------ #

    def _sample_instruction(self, klass: OpClass, rng) -> Instruction:
        op = _CLASS_OPS[klass][int(rng.integers(len(_CLASS_OPS[klass])))]
        if klass == OpClass.CONTROL:
            return Instruction(op, target="L")
        if op == Opcode.LI:
            return Instruction(op, rd=4, imm=int(rng.integers(1 << 16)))
        if op == Opcode.NOP:
            return Instruction(op)
        if op in (Opcode.LD, Opcode.ST):
            return Instruction(op, rd=4, rs1=5, imm=int(rng.integers(64)))
        # Bias shift amounts into range for shift ops via rs2 value later.
        return Instruction(op, rd=4, rs1=5, rs2=6, set_cc=bool(rng.integers(2)))

    @staticmethod
    def _sample_operand(rng) -> int:
        """Operand values with a realistic magnitude mix.

        Uniform 16-bit values almost always have long carry chains; real
        programs mix small counters, masks, and wide values, so sample
        bit-widths uniformly first.
        """
        width = int(rng.integers(1, 17))
        return int(rng.integers(1 << width)) & WORD_MASK

    def sample_window(self, klass: OpClass, rng):
        """One training window: random predecessor + target instruction."""
        prev_klass = list(_CLASS_OPS)[int(rng.integers(len(_CLASS_OPS)))]
        prev_ins = self._sample_instruction(prev_klass, rng)
        target_ins = self._sample_instruction(klass, rng)
        program = Program(
            [prev_ins, target_ins, Instruction(Opcode.NOP),
             Instruction(Opcode.HALT)],
            labels={"L": 2},
            name="dp-train",
        )
        sim = FunctionalSimulator(program)
        state = MachineState()
        for reg in (2, 3, 5, 6):
            state.regs[reg] = self._sample_operand(rng)
        for addr in range(0, 128):
            state.write_mem(addr, self._sample_operand(rng))
        rec_prev = sim.step(state)
        rec_target = sim.step(state)
        return program, target_ins, rec_prev, rec_target

    def stimulus(self, program, rec_prev, rec_target):
        """Encoded source rows of one training window, plus the cycles
        the target instruction enters each stage (for :meth:`measure`)."""
        scheduler = self.scheduler_factory(program, self.pipeline)
        window = InstructionWindow([rec_prev, rec_target])
        rows = self.encoder.encode_schedule(scheduler.schedule(window))
        return rows, scheduler.entries(window, [1])

    def measure(self, activity, entries):
        """Gate-level arrival measurement of the target instruction from
        its window's switching activity."""
        dts = self.analyzer.window_dts(
            activity, entries, _T_REF, include_safe=True
        )[0]
        if dts is None:
            return 0.0, 0.5  # no data endpoint toggled (nop-like)
        arrival = _T_REF - self.setup_time - dts.mean
        return float(arrival), float(max(dts.std, 0.5))

    # ------------------------------------------------------------------ #

    def train(
        self, samples_per_class: int = 48, seed=2019
    ) -> tuple[DatapathTimingModel, list[DatapathSample]]:
        """Generate training data and fit the datapath timing model.

        Every window is drawn first (measuring consumes no randomness,
        so the stream is the per-window loop's), then all windows are
        logic-simulated in one batch, each from the flushed fabric.
        """
        rng = as_rng(seed)
        windows = []
        for klass in _CLASS_OPS:
            for _ in range(samples_per_class):
                program, target_ins, rec_prev, rec_target = self.sample_window(
                    klass, rng
                )
                rows, entries = self.stimulus(program, rec_prev, rec_target)
                windows.append((klass, target_ins, rec_prev, rec_target, rows, entries))
        activities = self.simulator.activities([w[4] for w in windows])
        samples: list[DatapathSample] = []
        for (klass, target_ins, rec_prev, rec_target, _, entries), activity in zip(
            windows, activities
        ):
            arrival, sd = self.measure(activity, entries)
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
