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
from repro.dta.datapath import (
    DatapathSample,
    DatapathTimingModel,
    feature_matrix,
    record_arrays,
)
from repro.logicsim.activity import ActivityTrace
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

#: Stacked ``(cycle, gate)`` activation cells per AP selection in
#: training: windows are selected a chunk at a time (one
#: ``ap_trace_grid`` per stage and chunk), which bounds the gathered
#: temporaries.
_APSEL_CELLS = 1 << 18

#: Reference clock period used only to convert slacks back to arrivals; any
#: value larger than every path delay works (arrival = T - setup - slack).
_T_REF = 20000.0


def _sample_operands(rng, n: int) -> list[int]:
    """``n`` operand values with a realistic magnitude mix.

    Uniform 16-bit values almost always have long carry chains; real
    programs mix small counters, masks, and wide values, so each value
    draws its bit width uniformly first: ``w = integers(1, 17)``, then
    ``integers(1 << w)``.  ``Generator.integers`` serves every bounded
    draw with a range of at most 2**32 from the bit generator's stream
    of 32-bit words, and for a power-of-two range Lemire's method takes
    the top bits of one word and never rejects.  So each of those scalar
    draws is one word, and one ``2n``-word draw gives the same values and
    leaves the generator in the same state.
    """
    words = rng.integers(0, 1 << 32, size=2 * n, dtype=np.uint32)
    widths = (words[0::2] >> 28) + 1
    return ((words[1::2] >> (32 - widths)) & WORD_MASK).tolist()


def _chunks(activities):
    """Consecutive runs of windows with at most :data:`_APSEL_CELLS`
    activation cells (or a single larger window)."""
    chunk, cells = [], 0
    for activity in activities:
        if chunk and cells + activity.activated.size > _APSEL_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append(activity)
        cells += activity.activated.size
    if chunk:
        yield chunk


class DatapathTrainer:
    """Trains a datapath timing model against a pipeline netlist.

    Args:
        pipeline: Generated pipeline netlist.
        analyzer: Instruction DTS analyzer restricted to DATA endpoints.
        setup_time: Flip-flop setup time of the library (ps).
        simulator: The netlist's :class:`LevelizedSimulator`, shared
            with the processor's control characterizers.
        encoder: The pipeline's :class:`StimulusEncoder`, shared with
            the processor's control characterizers.
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
        simulator: LevelizedSimulator,
        encoder: StimulusEncoder,
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
        self.simulator = simulator
        self.encoder = encoder

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
        values = _sample_operands(rng, 4 + 128)
        for reg, value in zip((2, 3, 5, 6), values):
            state.regs[reg] = value
        state.memory[:128] = values[4:]
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

    def measure(self, dts):
        """Gate-level arrival (and its SD) of a window's target
        instruction from its reduced DTS (``None``: nothing activated)."""
        if dts is None:
            return 0.0, 0.5  # no data endpoint toggled (nop-like)
        arrival = _T_REF - self.setup_time - dts.mean
        return float(arrival), float(max(dts.std, 0.5))

    def ap_traces(self, activities):
        """Per window, the per-stage AP traces at the reference period.

        Consecutive windows are stacked into chunks of at most
        :data:`_APSEL_CELLS` activation cells, each chunk's AP sets are
        selected in one ``ap_trace_grid`` call per stage, and every
        window's cycles are sliced back out.  AP selection is per cycle,
        so this equals one selection per window.  Yields the windows'
        traces in order, holding one chunk's at a time.
        """
        stage_analyzer = self.analyzer.stage_analyzer
        for chunk in _chunks(activities):
            stacked = ActivityTrace(
                np.concatenate([a.activated for a in chunk]),
                np.concatenate([a.values for a in chunk]),
            )
            traces = [
                stage_analyzer.ap_trace_grid(
                    s, stacked, [_T_REF], include_safe=True
                )[0]
                for s in range(self.analyzer.num_stages)
            ]
            start = 0
            for activity in chunk:
                stop = start + activity.n_cycles
                yield [trace[start:stop] for trace in traces]
                start = stop

    # ------------------------------------------------------------------ #

    def train(
        self, samples_per_class: int = 48, seed=2019
    ) -> tuple[DatapathTimingModel, list[DatapathSample]]:
        """Generate training data and fit the datapath timing model.

        Every window is drawn first (measuring consumes no randomness,
        so the stream is the per-window loop's), then all windows are
        logic-simulated in one batch, each from the flushed fabric, their
        AP sets are selected a chunk of windows at a time, and the target
        instructions' AP unions are reduced in one
        :meth:`~repro.dta.algorithm1.StageDTSAnalyzer.combine_grid` call.
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
        features = feature_matrix(
            [w[1] for w in windows],
            *record_arrays([w[3] for w in windows]),
            *record_arrays([w[2] for w in windows]),
        )
        unions = [
            self.analyzer.instruction_ap(activity, entries[0], traces)
            for (*_, entries), activity, traces in zip(
                windows, activities, self.ap_traces(activities)
            )
        ]
        reduced = self.analyzer.stage_analyzer.combine_grid(unions, [_T_REF])
        samples: list[DatapathSample] = []
        for (klass, *_), row, (dts,) in zip(windows, features, reduced):
            arrival, sd = self.measure(dts)
            samples.append(
                DatapathSample(
                    op_class=klass,
                    features=row,
                    arrival=arrival,
                    arrival_sd=sd,
                )
            )
        model = DatapathTimingModel()
        model.fit(samples)
        return model, samples
