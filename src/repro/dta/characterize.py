"""Control-network DTS characterization (Section 4).

The control network performs (nearly) the same work every time a basic
block executes, so its DTS is characterized *once per basic block per
incoming edge*: the block's instructions — preceded by the tail of the
predecessor block, since two blocks share the pipeline at the boundary —
are pushed through the pipeline model, the resulting switching activity is
analyzed with Algorithms 1 and 2 restricted to the control endpoints, and
the per-instruction DTS Gaussians are recorded.

Each (block, edge) pair is characterized twice: once as executed (giving
the conditional DTS behind p^c) and once with a bubble inserted before
every instruction — the paper's nop-instrumentation emulating the pipeline
state the error-correction mechanism leaves behind (giving p^e).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.cfg.cfg import ControlFlowGraph
from repro.cfg.profile import EdgeProfiler
from repro.cpu.correction import CorrectionScheme
from repro.cpu.interpreter import StepRecord
from repro.cpu.pipeline import InstructionWindow, PipelineScheduler
from repro.cpu.program import Program
from repro.dta.algorithm2 import InstructionDTSAnalyzer
from repro.dta.windowpool import ActivityCache
from repro.logicsim.simulator import LevelizedSimulator
from repro.logicsim.stimulus import StimulusEncoder
from repro.sta.gaussian import Gaussian

__all__ = ["ControlKey", "ControlTimingModel", "ControlCharacterizer",
           "ControlSampleCollector", "characterize_grid"]

#: Key into the control timing model: (block id, predecessor id, instr pos).
ControlKey = tuple[int, int, int]


@dataclass(slots=True)
class ControlTimingModel:
    """Characterized control-network DTS per (block, edge, instruction).

    Attributes:
        normal: ``(bid, pred, k) -> Gaussian | None`` — control DTS given
            normal pipeline flow (behind p^c).  ``None`` means no risky
            control path was activated.
        corrected: Same, under the correction-scheme emulation (behind
            p^e).
    """

    normal: dict[ControlKey, Gaussian | None] = field(default_factory=dict)
    corrected: dict[ControlKey, Gaussian | None] = field(default_factory=dict)
    _by_block: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    def record(
        self,
        key: ControlKey,
        normal: Gaussian | None,
        corrected: Gaussian | None,
    ) -> None:
        self.normal[key] = normal
        self.corrected[key] = corrected
        bid, pred, k = key
        self._by_block.setdefault((bid, k), []).append(pred)

    def get(
        self, bid: int, pred: int, k: int
    ) -> tuple[Gaussian | None, Gaussian | None]:
        """Lookup with fallback to any characterized edge of the block.

        Edges that appear during large-dataset simulation but were never
        taken during training fall back to an arbitrary characterized edge
        of the same block (their control activity differs only in the
        shared-pipeline boundary cycles).
        """
        key = (bid, pred, k)
        if key in self.normal:
            return self.normal[key], self.corrected[key]
        preds = self._by_block.get((bid, k))
        if not preds:
            raise KeyError(f"block {bid} instruction {k} was never characterized")
        fallback = (bid, preds[0], k)
        return self.normal[fallback], self.corrected[fallback]

    def __len__(self) -> int:
        return len(self.normal)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_doc(self) -> dict:
        """The characterized model as a plain JSON-ready document."""

        def encode(table):
            return [
                {
                    "block": b,
                    "pred": p,
                    "k": k,
                    "mean": None if g is None else g.mean,
                    "var": None if g is None else g.var,
                }
                for (b, p, k), g in sorted(table.items())
            ]

        return {
            "normal": encode(self.normal),
            "corrected": encode(self.corrected),
        }

    def to_json(self) -> str:
        """Serialize the characterized model to JSON."""
        return json.dumps(self.to_doc(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ControlTimingModel":
        """Rebuild a model serialized by :meth:`to_json`."""
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc: dict) -> "ControlTimingModel":
        """Rebuild a model from a :meth:`to_doc` document."""

        def decode(rows):
            out = {}
            for row in rows:
                key = (int(row["block"]), int(row["pred"]), int(row["k"]))
                if row["mean"] is None:
                    out[key] = None
                else:
                    out[key] = Gaussian(float(row["mean"]), float(row["var"]))
            return out

        model = cls()
        normal = decode(doc["normal"])
        corrected = decode(doc["corrected"])
        if set(normal) != set(corrected):
            raise ValueError("normal/corrected key sets disagree")
        for key in sorted(normal):
            model.record(key, normal[key], corrected[key])
        return model


class ControlSampleCollector(EdgeProfiler):
    """Interpreter listener capturing one execution window per CFG edge.

    For every (block, predecessor) pair, stores the block's first complete
    execution together with the trailing records of the path leading into
    it (the pipeline-sharing context).
    """

    def __init__(self, cfg: ControlFlowGraph, tail_length: int = 5) -> None:
        super().__init__(cfg, history=tail_length)
        self.tail_length = tail_length
        #: (bid, pred) -> (tail records, block records)
        self.samples: dict[
            tuple[int, int], tuple[list[StepRecord], list[StepRecord]]
        ] = {}

    def _leave(self, bid: int, records) -> None:
        key = (bid, self._pred)
        if key in self.samples:
            return
        hist = list(records)
        n = self._sizes[bid]
        self.samples[key] = (hist[-n - self.tail_length : -n], hist[-n:])


class ControlCharacterizer:
    """Runs the gate-level control-network characterization.

    Args:
        pipeline: Generated pipeline netlist (with signal map).
        analyzer: Instruction DTS analyzer restricted to control endpoints.
        program: The program under analysis.
        scheme: Error-correction scheme (supplies the p^e emulation).
        clock_period: Speculative clock period (ps).
        simulator: The netlist's :class:`LevelizedSimulator`, shared
            by every characterizer of one processor.
        encoder: The pipeline's :class:`StimulusEncoder`, shared by
            every characterizer of one processor.
        activity_cache: Content-addressed activity cache shared by every
            window analysis of this characterizer (a fresh one is built
            when omitted).
        scheduler: Occupancy scheduler mapping windows onto per-cycle
            stage occupancy (a core family's ``make_scheduler`` product).
            Defaults to the in-order :class:`PipelineScheduler`; any
            object with ``schedule(window)`` and
            ``entries(window, slot_indices)`` works.
    """

    def __init__(
        self,
        pipeline,
        analyzer: InstructionDTSAnalyzer,
        program: Program,
        scheme: CorrectionScheme,
        clock_period: float,
        simulator: LevelizedSimulator,
        encoder: StimulusEncoder,
        activity_cache: ActivityCache | None = None,
        scheduler=None,
    ) -> None:
        self.pipeline = pipeline
        self.analyzer = analyzer
        self.program = program
        self.scheme = scheme
        self.clock_period = clock_period
        self.activity_cache = (
            activity_cache if activity_cache is not None else ActivityCache()
        )
        self.scheduler = scheduler or PipelineScheduler(
            program, num_stages=pipeline.num_stages
        )
        self.simulator = simulator
        self.encoder = encoder

    def _window_inputs(
        self, windows: list[tuple[InstructionWindow, list[int]]]
    ) -> list[tuple]:
        """Windows' period-independent analysis inputs.

        Scheduling, stimulus encoding (one
        :meth:`~repro.logicsim.stimulus.StimulusEncoder.encode_schedules`
        call for all ``(window, slot_indices)`` pairs), and the (cached)
        logic simulation do not depend on the clock period: returns per
        window its activity trace, the analyzer entry specs of its
        ``slot_indices``, and an empty first-activated picks memo that
        the window's AP selections fill (see
        :meth:`StageDTSAnalyzer.ap_trace_grid
        <repro.dta.algorithm1.StageDTSAnalyzer.ap_trace_grid>`).
        """
        schedules = [self.scheduler.schedule(window) for window, _ in windows]
        return [
            (
                self.activity_cache.activity(
                    source_values, self.simulator.activity
                ),
                self.scheduler.entries(window, slot_indices),
                {},
            )
            for (window, slot_indices), source_values in zip(
                windows, self.encoder.encode_schedules(schedules)
            )
        ]

    def edge_inputs(
        self, tail: list[StepRecord], block_records: list[StepRecord]
    ) -> tuple:
        """The period-independent inputs of one (block, edge) pair.

        Returns the normal and the corrected window's
        :meth:`_window_inputs`, encoded in one call.  The normal window
        is the predecessor tail + block, the corrected one applies the
        scheme's emulation before every instruction (the paper inserts
        a nop before each one).
        """
        tail_slots: list[StepRecord | None] = list(tail)
        n = len(block_records)
        normal_window = InstructionWindow(tail_slots + list(block_records))
        normal_entries = [len(tail_slots) + k for k in range(n)]
        corrected = InstructionWindow(list(tail_slots))
        positions = []
        for rec in block_records:
            emulated = self.scheme.emulate(
                InstructionWindow(corrected.slots + [rec]),
                len(corrected.slots),
            )
            corrected = emulated
            positions.append(len(corrected.slots) - 1)
        return tuple(self._window_inputs(
            [(normal_window, normal_entries), (corrected, positions)]
        ))

    def characterize_edge_values_grid(
        self,
        bid: int,
        pred: int,
        tail: list[StepRecord],
        block_records: list[StepRecord],
        clock_periods: list[float],
        windows: dict | None = None,
    ) -> list[list[tuple[ControlKey, Gaussian | None, Gaussian | None]]]:
        """The (key, normal, corrected) rows for one (block, edge) pair.

        Returns one row list per clock period; the caller records the
        rows in deterministic key order.  The pair's
        :meth:`edge_inputs` are built once; only the DTS evaluation fans
        out over the period axis.  ``windows`` maps ``(bid, pred)`` to
        edge inputs built earlier from the same records: a pair found
        there skips window construction and the AP selections its picks
        memos already hold, and a new pair is added.
        """
        inputs = None if windows is None else windows.get((bid, pred))
        if inputs is None:
            inputs = self.edge_inputs(tail, block_records)
            if windows is not None:
                windows[(bid, pred)] = inputs
        (normal_activity, normal_entries, normal_picks), (
            corrected_activity, corrected_entries, corrected_picks
        ) = inputs
        dts_c = self.analyzer.window_dts_grid(
            normal_activity, normal_entries, clock_periods,
            picks=normal_picks,
        )
        dts_e = self.analyzer.window_dts_grid(
            corrected_activity, corrected_entries, clock_periods,
            picks=corrected_picks,
        )
        return [
            [
                ((bid, pred, k), dts_c[p][k], dts_e[p][k])
                for k in range(len(block_records))
            ]
            for p in range(len(clock_periods))
        ]

    def characterize_many(
        self,
        tasks: list[tuple[int, int, list, list]],
        model: ControlTimingModel,
        windows: dict | None = None,
    ) -> None:
        """Characterize ``(bid, pred, tail, block_records)`` tasks.

        Tasks are expected in sorted (bid, pred) order; results are
        recorded into ``model`` in exactly that order (see
        :func:`_characterize_tasks`).  ``windows`` is an edge-input map
        (see :meth:`characterize_edge_values_grid`).
        """
        _characterize_tasks([self], tasks, [model], windows)

    def characterize(
        self, samples: dict[tuple[int, int], tuple[list, list]]
    ) -> ControlTimingModel:
        """Characterize every captured (block, edge) sample."""
        return characterize_grid([self], samples)[0]


def characterize_grid(
    characterizers: list[ControlCharacterizer],
    samples: dict[tuple[int, int], tuple[list, list]],
    windows: dict | None = None,
) -> list[ControlTimingModel]:
    """Characterize the same samples at many operating points in one pass.

    ``characterizers`` are per-period :class:`ControlCharacterizer`
    instances for the *same* (pipeline, program, scheme) — typically
    built from operating points derived off one processor, so they share
    the analyzer's path registry and one activity cache.  Each window is
    scheduled, encoded, and simulated once; the DTS evaluation fans out
    along the period axis.  Returns one :class:`ControlTimingModel` per
    characterizer; a single characterizer is the one-period case
    (:meth:`ControlCharacterizer.characterize`).  ``windows`` maps
    ``(bid, pred)`` to edge inputs built from these same samples by an
    earlier call: their windows are not rebuilt (see
    :meth:`ControlCharacterizer.characterize_edge_values_grid`).
    """
    models = [ControlTimingModel() for _ in characterizers]
    tasks = [
        (bid, pred, tail, block_records)
        for (bid, pred), (tail, block_records) in sorted(samples.items())
    ]
    _characterize_tasks(characterizers, tasks, models, windows)
    return models


def _characterize_tasks(characterizers, tasks, models, windows) -> None:
    """The characterization loop: every (block, edge) task, every period.

    Tasks run in order on the first characterizer (whose activity cache
    every characterizer shares); each task's rows are recorded into
    ``models`` (one per characterizer) in task order, which fixes the
    insertion-order-sensitive fallback-edge lists.
    """
    if not characterizers:
        return
    base = characterizers[0]
    periods = [c.clock_period for c in characterizers]
    for bid, pred, tail, block_records in tasks:
        rows_per_period = base.characterize_edge_values_grid(
            bid, pred, tail, block_records, periods, windows
        )
        for model, rows in zip(models, rows_per_period):
            for key, normal, corrected in rows:
                model.record(key, normal, corrected)
