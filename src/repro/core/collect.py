"""Simulation-phase data collection.

One architecture-level pass over the large input dataset gathers everything
the statistical model needs: exact block execution counts and edge
activation counts (the profile), plus a reservoir of *joint* per-block
execution samples — for each sampled execution of a block, the operand
records of all its instructions together with the incoming edge and the
record preceding entry.  Joint rows preserve the adjacent-instruction
correlation that the Chen–Stein dependency neighborhoods and the variance
of lambda rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import as_rng
from repro.cfg.cfg import ControlFlowGraph
from repro.cfg.profile import EdgeProfiler, ProfileResult
from repro.cpu.interpreter import FunctionalSimulator, StepRecord
from repro.cpu.state import MachineState

__all__ = ["BlockExecutionSample", "SimulationCollector"]


@dataclass(slots=True)
class BlockExecutionSample:
    """One sampled execution of a basic block.

    Attributes:
        pred: Block id the execution was entered from (:data:`ENTRY_EDGE`
            for the program entry).
        entry_prev: The dynamic record executed just before entering the
            block (``None`` at program start).
        records: The block's executed records, in instruction order.
    """

    pred: int
    entry_prev: StepRecord | None
    records: list[StepRecord]


class SimulationCollector(EdgeProfiler):
    """Interpreter listener: profile + per-block joint reservoirs.

    A block entry reserves a reservoir slot: the next free one, or, once
    the block's reservoir is full, slot ``rng.integers(count)`` when it
    falls inside the reservoir.  The execution fills its slot when it
    completes; one cut off by the instruction budget leaves it empty.

    Args:
        cfg: The program CFG.
        reservoir_size: Max sampled executions kept per block.
        seed: Reservoir-sampling seed (deterministic collection).
    """

    def __init__(
        self, cfg: ControlFlowGraph, reservoir_size: int = 160, seed=17
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        super().__init__(cfg, history=1)
        self.reservoir_size = reservoir_size
        self._rng = as_rng(seed)
        self.reservoirs: dict[int, list[BlockExecutionSample | None]] = {}
        self._slot = -1

    def _enter(self, bid: int, pred: int) -> None:
        reservoir = self.reservoirs.setdefault(bid, [])
        if len(reservoir) < self.reservoir_size:
            self._slot = len(reservoir)
            reservoir.append(None)
            return
        j = int(self._rng.integers(self._block_counts[bid]))
        if j < self.reservoir_size:
            reservoir[j] = None
            self._slot = j
        else:
            self._slot = -1

    def _leave(self, bid: int, records) -> None:
        if self._slot < 0:
            return
        n = self._sizes[bid]
        kept = list(records)
        self.reservoirs[bid][self._slot] = BlockExecutionSample(
            pred=self._pred,
            entry_prev=kept[-n - 1] if len(kept) > n else None,
            records=kept[-n:],
        )

    def samples(self) -> dict[int, list[BlockExecutionSample]]:
        """Per-block joint execution samples (completed ones only), in
        slot order."""
        out: dict[int, list[BlockExecutionSample]] = {}
        for bid, res in self.reservoirs.items():
            complete = [s for s in res if s is not None]
            if complete:
                out[bid] = complete
        return out


def collect_evaluation(
    program,
    cfg: ControlFlowGraph,
    *,
    setup=None,
    max_instructions: int,
    reservoir_size: int = 160,
) -> tuple[ProfileResult, dict[int, list[BlockExecutionSample]]]:
    """The evaluation-dataset functional run: profile + samples.

    Period-independent (the interpreter knows nothing about timing) and
    deterministic (fixed-seed reservoir), so one collection can feed the
    estimation of every operating point of a grid.
    """
    state = MachineState()
    if setup is not None:
        setup(state)
    collector = SimulationCollector(cfg, reservoir_size=reservoir_size)
    FunctionalSimulator(program).run(
        state, max_instructions=max_instructions,
        listener=collector.listener,
    )
    return collector.profile(), collector.samples()
