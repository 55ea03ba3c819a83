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
from repro.cpu.state import Flags, MachineState
from repro.dta.algorithm2 import InstructionDTSAnalyzer, entry_pairs
from repro.dta.datapath import (
    DatapathSample,
    DatapathTimingModel,
    feature_matrix,
    record_arrays,
)
from repro.logicsim.activity import ActivityTrace
from repro.logicsim.simulator import LevelizedSimulator
from repro.logicsim.stimulus import StimulusEncoder
from repro.netlist.paths import Path

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
#: training: a stage's target rows are selected a chunk at a time (one
#: ``ap_trace_grid`` per stage and chunk), which bounds the gathered
#: temporaries.
_APSEL_CELLS = 1 << 18

#: Memory words a training window initializes with operand values.
_OPERAND_WORDS = 128

#: The instructions after a window's (predecessor, target) pair: the
#: control target ``L`` and the end of the program.
_TAIL = (Instruction(Opcode.NOP), Instruction(Opcode.HALT))

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

    def sample_window(self, klass: OpClass, rng, state=None):
        """One training window: random predecessor + target instruction.

        ``state`` is a :class:`MachineState` whose memory is all zero, to
        run the window on instead of a fresh one (the registers, flags
        and pc are reset here); the window puts back every memory word
        it wrote, so one state serves any number of windows.  The
        window's program is cheap to build: its static tokens and the
        closures of the two instructions that run are memoized by
        instruction (see :class:`Program`, :class:`FunctionalSimulator`).
        """
        prev_klass = list(_CLASS_OPS)[int(rng.integers(len(_CLASS_OPS)))]
        prev_ins = self._sample_instruction(prev_klass, rng)
        target_ins = self._sample_instruction(klass, rng)
        program = Program(
            [prev_ins, target_ins, *_TAIL], labels={"L": 2}, name="dp-train"
        )
        sim = FunctionalSimulator(program)
        if state is None:
            state = MachineState()
        state.regs[:] = [0] * len(state.regs)
        state.flags = Flags()
        state.pc = 0
        state.halted = False
        values = _sample_operands(rng, 4 + _OPERAND_WORDS)
        for reg, value in zip((2, 3, 5, 6), values):
            state.regs[reg] = value
        state.memory[:_OPERAND_WORDS] = values[4:]
        rec_prev = sim.step(state)
        rec_target = sim.step(state)
        state.memory[:_OPERAND_WORDS] = [0] * _OPERAND_WORDS
        for ins, rec in ((prev_ins, rec_prev), (target_ins, rec_target)):
            if ins.op == Opcode.ST:
                state.memory[(rec.a + rec.b) & 0xFFFF] = 0
        return program, target_ins, rec_prev, rec_target

    def measure(self, dts):
        """Gate-level arrival (and its SD) of a window's target
        instruction from its reduced DTS (``None``: nothing activated)."""
        if dts is None:
            return 0.0, 0.5  # no data endpoint toggled (nop-like)
        arrival = _T_REF - self.setup_time - dts.mean
        return float(arrival), float(max(dts.std, 0.5))

    def target_aps(self, activities, entries) -> list[list[Path]]:
        """Per window, the AP union of its target instruction.

        ``entries[i]`` is window ``i``'s entry spec of the target (see
        :func:`~repro.dta.algorithm2.entry_pairs`).  AP selection is per
        cycle, so only the rows the targets occupy are selected: per
        stage, the target rows of every window are stacked and selected
        :data:`_APSEL_CELLS` activation cells at a time (one
        ``ap_trace_grid`` call per stage and chunk), and each window's
        union is built by
        :meth:`~repro.dta.algorithm2.InstructionDTSAnalyzer.instruction_ap`
        from the rows it occupies.  This equals a full selection per
        window.
        """
        if not activities:
            return []
        stage_analyzer = self.analyzer.stage_analyzer
        n_stages = self.analyzer.num_stages
        # Per stage, the ``(window, cycle)`` rows the targets occupy.
        targets: list[list[tuple[int, int]]] = [[] for _ in range(n_stages)]
        for i, (activity, entry) in enumerate(zip(activities, entries)):
            for s, t in entry_pairs(entry, n_stages):
                if 0 <= t < activity.n_cycles:
                    targets[s].append((i, t))
        # Per window and stage, ``cycle -> AP set`` of the target's rows.
        traces = [[{} for _ in range(n_stages)] for _ in activities]
        per_call = max(1, _APSEL_CELLS // activities[0].n_gates)
        for s, pairs in enumerate(targets):
            for start in range(0, len(pairs), per_call):
                chunk = pairs[start : start + per_call]
                stacked = ActivityTrace(
                    np.stack([activities[i].activated[t] for i, t in chunk]),
                    np.stack([activities[i].values[t] for i, t in chunk]),
                )
                (trace,) = stage_analyzer.ap_trace_grid(
                    s, stacked, [_T_REF], include_safe=True
                )
                for (i, t), aps in zip(chunk, trace):
                    traces[i][s][t] = aps
        return [
            self.analyzer.instruction_ap(activity, entry, window_traces)
            for activity, entry, window_traces in zip(
                activities, entries, traces
            )
        ]

    # ------------------------------------------------------------------ #

    def train(
        self, samples_per_class: int = 48, seed=2019
    ) -> tuple[DatapathTimingModel, list[DatapathSample]]:
        """Generate training data and fit the datapath timing model.

        Every window is drawn first (measuring consumes no randomness,
        so the stream is the per-window loop's), on one reused
        :class:`MachineState`, and each op class's windows are scheduled
        and encoded in one :meth:`StimulusEncoder.encode_schedules` call.
        Then all windows are logic-simulated in one batch, each from the
        flushed fabric, AP sets are selected on the target instructions'
        rows only (:meth:`target_aps`), and the unions are reduced in one
        :meth:`~repro.dta.algorithm1.StageDTSAnalyzer.combine_grid` call.
        """
        rng = as_rng(seed)
        state = MachineState()
        windows, entries, rows = [], [], []
        for klass in _CLASS_OPS:
            schedules = []
            for _ in range(samples_per_class):
                program, target_ins, rec_prev, rec_target = self.sample_window(
                    klass, rng, state
                )
                scheduler = self.scheduler_factory(program, self.pipeline)
                window = InstructionWindow([rec_prev, rec_target])
                schedules.append(scheduler.schedule(window))
                entries.append(scheduler.entries(window, [1])[0])
                windows.append((klass, target_ins, rec_prev, rec_target))
            rows.extend(self.encoder.encode_schedules(schedules))
        # The stimulus and activity arrays die here, before the
        # reduction's temporaries are allocated.
        unions = self.target_aps(self.simulator.activities(rows), entries)
        del rows
        features = feature_matrix(
            [w[1] for w in windows],
            *record_arrays([w[3] for w in windows]),
            *record_arrays([w[2] for w in windows]),
        )
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
