"""Levelized, cycle-vectorized combinational logic simulation.

All endpoint gates (flip-flops and primary inputs) are *sources* whose values
are provided externally per cycle; combinational gates are evaluated once in
topological order with numpy over the cycle axis.

The default evaluation kernel goes one step further than per-gate
vectorization: gates are grouped by (topological level, gate type) at
construction time, with the fanin ids of each group gathered into index
arrays, so a whole level's worth of same-type gates is settled by a single
vectorized op over the ``(gates-in-group, cycles)`` plane.  Values are
kept one row per gate while settling, so each group's fan-in gather
copies whole rows.  The per-gate loop it replaced is frozen in the test
suite as the parity oracle.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import kernel_stats
from repro.logicsim.activity import ActivityTrace
from repro.netlist.gates import GATE_ARITY, GATE_TYPES, GateType
from repro.netlist.netlist import Netlist

__all__ = ["LevelizedSimulator"]

#: Dense opcode per gate type for the batched kernel's inline dispatch.
_OPCODE = {
    GateType.BUF: 0,
    GateType.NOT: 1,
    GateType.AND2: 2,
    GateType.OR2: 3,
    GateType.NAND2: 4,
    GateType.NOR2: 5,
    GateType.XOR2: 6,
    GateType.XNOR2: 7,
    GateType.MUX2: 8,
    GateType.MAJ3: 9,
}

#: Rank of each gate-type code when the types are sorted by name.
_NAME_RANK = np.argsort(np.argsort([gtype.value for gtype in GATE_TYPES]))


class LevelizedSimulator:
    """Evaluates a netlist's combinational fabric over many cycles at once.

    Args:
        netlist: The netlist to simulate.  Must validate (acyclic fabric).
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.source_ids = netlist.endpoint_ids()
        self._sources = np.asarray(self.source_ids, dtype=np.intp)
        self._topo = netlist.topological_order()
        self._plan = self._build_plan()
        self._flushed_state: np.ndarray | None = None

    def _build_plan(self) -> list[tuple]:
        """Group combinational gates into (level, type) batches.

        Returns a list of ``(opcode, gate_ids, fanin)`` tuples in level
        order, where ``fanin`` has shape ``(arity, len(gate_ids))`` and
        holds the driver id of each input pin.  Within a level no gate
        depends on another (level = longest driver distance from a
        source), so each batch is settled by one gather over the
        ``(arity, gates-in-group, cycles)`` block plus one boolean op.
        Within a level, batches follow the gate types' names and gates
        keep their topological order.
        """
        arr = self.netlist.arrays()
        plan = []
        for gids, _, _ in arr.levels:
            codes = arr.gtype[gids]
            order = np.argsort(_NAME_RANK[codes], kind="stable")
            gids, codes = gids[order], codes[order]
            starts = np.flatnonzero(np.diff(codes, prepend=-1)).tolist()
            for lo, hi in zip(starts, [*starts[1:], len(gids)]):
                gtype = GATE_TYPES[codes[lo]]
                ids = gids[lo:hi]
                fanin = arr.pins[ids, : GATE_ARITY[gtype]].T
                plan.append((_OPCODE[gtype], ids, fanin))
        return plan

    @property
    def n_sources(self) -> int:
        return len(self.source_ids)

    def evaluate(self, source_values: np.ndarray) -> np.ndarray:
        """Compute settled values of every gate for every cycle.

        Args:
            source_values: Boolean array of shape ``(n_cycles, n_sources)``
                in the order of :attr:`source_ids`.

        Returns:
            Boolean array of shape ``(n_cycles, n_gates)`` with the settled
            output value of every gate in every cycle.
        """
        source_values = np.asarray(source_values, dtype=bool)
        if source_values.ndim != 2 or source_values.shape[1] != self.n_sources:
            raise ValueError(
                f"source_values must be (n_cycles, {self.n_sources}), got "
                f"{source_values.shape}"
            )
        n_cycles = source_values.shape[0]
        # One row per gate: a batch's fan-in gather copies whole rows.
        values = np.zeros((len(self.netlist), n_cycles), dtype=bool)
        values[self._sources] = source_values.T
        stats = kernel_stats()
        stats.sim_calls += 1
        stats.sim_cycle_gates += n_cycles * len(self._topo)
        for code, gids, fanin in self._plan:
            # One gather per group: (arity, n_group, n_cycles); the pin
            # slices below are views into it.
            ops = values[fanin]
            a = ops[0]
            if code == 2:
                out = a & ops[1]
            elif code == 4:
                out = ~(a & ops[1])
            elif code == 3:
                out = a | ops[1]
            elif code == 5:
                out = ~(a | ops[1])
            elif code == 6:
                out = a ^ ops[1]
            elif code == 7:
                out = ~(a ^ ops[1])
            elif code == 1:
                out = ~a
            elif code == 0:
                out = a
            elif code == 8:
                out = np.where(a, ops[2], ops[1])
            else:
                b, c = ops[1], ops[2]
                out = (a & b) | (a & c) | (b & c)
            values[gids] = out
        return np.ascontiguousarray(values.T)

    def flushed_state(self) -> np.ndarray:
        """Settled per-gate values of the all-zero source assignment.

        This is the "flushed fabric" default previous state of
        :meth:`activity` (inverting gates at their quiescent ones).  It
        only depends on the netlist, so it is computed once and reused
        across the many ``activity()`` calls of a characterization run.
        """
        if self._flushed_state is None:
            zero_row = np.zeros((1, self.n_sources), dtype=bool)
            self._flushed_state = self.evaluate(zero_row)[0]
        else:
            kernel_stats().flushed_state_reuses += 1
        return self._flushed_state

    def activity(
        self,
        source_values: np.ndarray,
        previous_state: np.ndarray | None = None,
    ) -> ActivityTrace:
        """Simulate and return the per-cycle activation trace (VCD).

        A gate is activated in cycle ``t`` if its settled value differs from
        cycle ``t - 1``'s (Definition 3.2, settled-value interpretation).
        Cycle 0 is compared against ``previous_state`` (per-gate settled
        values before the window; defaults to the cached
        :meth:`flushed_state` of an all-zero source assignment).
        """
        values = self.evaluate(source_values)
        if previous_state is None:
            previous_state = self.flushed_state()
        previous_state = np.asarray(previous_state, dtype=bool)
        if previous_state.shape != (len(self.netlist),):
            raise ValueError(
                f"previous_state must have shape ({len(self.netlist)},), got "
                f"{previous_state.shape}"
            )
        return _trace(values, previous_state)

    def activities(self, blocks) -> list[ActivityTrace]:
        """:meth:`activity` of many independent windows, each from the
        flushed fabric, settled in one :meth:`evaluate` call.

        Gates settle row by row, so every window's trace equals its own
        :meth:`activity` call; batching only removes the per-call
        overhead that dominates few-cycle windows.
        """
        values = self.evaluate(np.concatenate(blocks))
        flushed = self.flushed_state()
        bounds = np.cumsum([0] + [len(b) for b in blocks])
        return [
            _trace(values[start:stop], flushed)
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]


def _trace(values: np.ndarray, previous_state: np.ndarray) -> ActivityTrace:
    """Activation trace of settled ``values`` after ``previous_state``."""
    shifted = np.vstack([previous_state[None, :], values[:-1]])
    return ActivityTrace(activated=values != shifted, values=values)
