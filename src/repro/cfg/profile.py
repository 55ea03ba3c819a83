"""Execution profiling: block counts and edge activation probabilities.

The paper measures, for each basic block, the *activation probability* of
each incoming edge as the fraction of the block's executions entered
through that edge (Section 4.1), plus the execution counts ``e_i`` that
weight the error-count sum in Section 5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cfg.cfg import ControlFlowGraph, ENTRY_EDGE
from repro.cpu.interpreter import StepRecord

__all__ = ["EdgeProfiler", "ProfileResult"]


@dataclass(slots=True)
class ProfileResult:
    """Profiling outcome.

    Attributes:
        block_counts: Executions ``e_i`` per block id.
        edge_counts: Mapping ``(pred_bid, bid) -> count``; the virtual entry
            edge uses ``pred_bid = ENTRY_EDGE``.
        total_instructions: Total dynamic instructions executed.
    """

    block_counts: np.ndarray
    edge_counts: dict[tuple[int, int], int]
    total_instructions: int

    def executed_blocks(self) -> list[int]:
        """Ids of blocks executed at least once."""
        return [int(b) for b in np.flatnonzero(self.block_counts)]

    def activation_probabilities(
        self, cfg: ControlFlowGraph, bid: int
    ) -> dict[int, float]:
        """``p^a`` per incoming edge of block ``bid`` (sums to 1).

        Only edges observed at least once appear.  Returns an empty mapping
        for never-executed blocks.
        """
        total = float(self.block_counts[bid])
        if total == 0:
            return {}
        probs: dict[int, float] = {}
        for pred in cfg.incoming_edges(bid):
            count = self.edge_counts.get((pred, bid), 0)
            if count:
                probs[pred] = count / total
        return probs


class EdgeProfiler:
    """The block-segmenting interpreter listener of every functional run.

    Counts block entries and edges, and keeps the last ``history + max
    block size`` executed records, each built once.  Execution must start
    at a block leader.  Subclasses say what they keep through two hooks:
    :meth:`_enter` at every block entry, and :meth:`_leave` after each
    complete block execution (not one cut off by the instruction budget,
    nor one that a ``ret`` runs into mid-block).  While a block runs,
    ``_pred`` is the block it was entered from (:data:`ENTRY_EDGE` for
    the program entry).

    Usage::

        profiler = EdgeProfiler(cfg)
        simulator.run(state, listener=profiler.listener)
        result = profiler.profile()
    """

    def __init__(self, cfg: ControlFlowGraph, history: int = 0) -> None:
        self.cfg = cfg
        self._block_of = cfg.block_of_instruction
        self._is_leader = [False] * len(cfg.program)
        for b in cfg.blocks:
            self._is_leader[b.start] = True
        self._sizes = [b.size for b in cfg.blocks]
        self._records: deque[StepRecord] = deque(
            maxlen=history + max(self._sizes, default=0)
        )
        self._block_counts = [0] * len(cfg)
        self._edge_counts: dict[tuple[int, int], int] = {}
        self._instructions = 0
        self._pred = ENTRY_EDGE
        self._bid = -1
        self._entered = 0

    def listener(self, pc: int, a: int, b: int, r: int, next_pc: int) -> None:
        """Interpreter listener callback."""
        records = self._records
        records.append(StepRecord(pc, a, b, r, next_pc))
        self._instructions += 1
        is_leader = self._is_leader
        if is_leader[pc]:
            bid = self._block_of[pc]
            self._block_counts[bid] += 1
            key = (self._pred, bid)
            self._edge_counts[key] = self._edge_counts.get(key, 0) + 1
            self._bid = bid
            self._entered = self._instructions - 1
            self._enter(bid, self._pred)
        elif self._bid < 0:
            raise AssertionError("execution must start at a block leader")
        if (0 <= next_pc < len(is_leader) and is_leader[next_pc]) or (
            next_pc == pc
        ):
            bid = self._bid
            if self._instructions - self._entered == self._sizes[bid]:
                self._leave(bid, records)
            self._pred = bid

    def _enter(self, bid: int, pred: int) -> None:
        """Hook: block ``bid`` is entered from ``pred``."""

    def _leave(self, bid: int, records: deque[StepRecord]) -> None:
        """Hook: block ``bid`` completed.

        Its records are the last ``size`` of ``records``, after up to
        ``history`` earlier ones.
        """

    def profile(self) -> ProfileResult:
        """Snapshot of the accumulated profile."""
        return ProfileResult(
            block_counts=np.array(self._block_counts, dtype=np.int64),
            edge_counts=dict(self._edge_counts),
            total_instructions=self._instructions,
        )
