"""Timing-path enumeration (Definition 3.1).

A *path* is an ordered set of gates whose first gate is the only endpoint in
the set, each gate is driven by the previous one, and the last gate drives an
endpoint (the sink flip-flop's D pin).  ``P(e)`` — the set of all paths
ending in endpoint ``e`` — is exponential in general, so the enumerator
yields the K most critical (longest nominal delay) paths per endpoint using
best-first path peeling with an exact arrival-time heuristic, the standard
approach in timing analysis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

__all__ = ["Path", "PathEnumerator"]


@dataclass(frozen=True, slots=True)
class Path:
    """A timing path through the combinational fabric.

    Attributes:
        gates: Gate ids in signal-flow order.  The first gate is the source
            endpoint (its Q output launches the signal); the rest are
            combinational.  ``G(p)`` in the paper's notation.
        sink: Id of the endpoint whose D pin the last gate drives.
        delay: Nominal path delay in picoseconds (source clock-to-Q plus
            combinational cell delays; the sink's setup time is *not*
            included — slack computations add it separately).
    """

    gates: tuple[int, ...]
    sink: int
    delay: float

    @property
    def source(self) -> int:
        return self.gates[0]

    def __len__(self) -> int:
        return len(self.gates)

    def shares_gates_with(self, other: "Path") -> bool:
        """True if the two paths have any gate in common."""
        return bool(set(self.gates) & set(other.gates))


class PathEnumerator:
    """Enumerates the most critical paths ending at each endpoint.

    Args:
        netlist: The netlist to analyze.
        delays: Per-gate nominal delays (ps), e.g. from
            :meth:`Netlist.nominal_delays`.
    """

    def __init__(self, netlist: Netlist, delays: np.ndarray) -> None:
        if len(delays) != len(netlist):
            raise ValueError(
                f"delays length {len(delays)} does not match netlist size "
                f"{len(netlist)}"
            )
        self.netlist = netlist
        self.delays = np.asarray(delays, dtype=float)
        self._arrival = self._compute_arrivals()
        # endpoint -> (k, the longest path list computed so far).
        self._memo: dict[int, tuple[int, list[Path]]] = {}

    def _compute_arrivals(self) -> np.ndarray:
        """Longest source-to-output delay for every gate (incl. own delay)."""
        n = len(self.netlist)
        arrival = np.full(n, -np.inf)
        for g in self.netlist.gates:
            if g.is_endpoint:
                arrival[g.gid] = self.delays[g.gid]
        for gid in self.netlist.topological_order():
            g = self.netlist.gate(gid)
            best = max(arrival[i] for i in g.inputs)
            arrival[gid] = best + self.delays[gid]
        return arrival

    @property
    def arrivals(self) -> np.ndarray:
        """Per-gate worst arrival times (ps) at gate outputs."""
        return self._arrival

    def critical_paths(self, endpoint: int, k: int = 16) -> list[Path]:
        """Return up to ``k`` longest paths ending at ``endpoint``.

        Paths are returned in non-increasing nominal-delay order, i.e. the
        order the paper's ``CP`` function consumes them in Algorithm 1.
        ``endpoint`` must be a DFF (input ports have no D pin to capture).
        The search breaks ties by push order, so a shorter list is a
        prefix of a longer one: each endpoint's longest list so far is
        kept, and smaller ``k`` are served from it.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        known = self._memo.get(endpoint)
        if known is not None and k <= known[0]:
            return known[1][:k]
        sink = self.netlist.gate(endpoint)
        if sink.gtype != GateType.DFF:
            raise ValueError(f"gate {sink.name!r} is not a capture flip-flop")
        driver = sink.inputs[0]
        results: list[Path] = []
        # Heap entries: (-upper_bound_delay, counter, head, partial_tuple,
        # cost_of_partial).  ``partial_tuple`` holds gate ids from ``head``
        # to the sink driver in signal-flow order.
        counter = 0
        start_bound = self._arrival[driver]
        heap = [(-start_bound, counter, driver, (driver,), self.delays[driver])]
        while heap and len(results) < k:
            neg_bound, _, head, partial, cost = heapq.heappop(heap)
            head_gate = self.netlist.gate(head)
            if head_gate.is_endpoint:
                results.append(Path(gates=partial, sink=endpoint, delay=-neg_bound))
                continue
            # A gate may use the same driver on two pins (e.g. AND(x, x));
            # the gate *sequence* is identical either way, so expand each
            # distinct driver once (a path is a set of gates, Def. 3.1).
            for inp in dict.fromkeys(head_gate.inputs):
                counter += 1
                new_cost = cost + self.delays[inp]
                bound = new_cost + (self._arrival[inp] - self.delays[inp])
                heapq.heappush(
                    heap, (-bound, counter, inp, (inp,) + partial, new_cost)
                )
        self._memo[endpoint] = (k, results)
        return results[:]

    def worst_path(self, endpoint: int) -> Path:
        """The single most critical path ending at ``endpoint``."""
        return self.critical_paths(endpoint, k=1)[0]

    def max_arrival(self, endpoint: int) -> float:
        """Worst arrival time at ``endpoint``'s D pin (ps)."""
        sink = self.netlist.gate(endpoint)
        if sink.gtype != GateType.DFF:
            raise ValueError(f"gate {sink.name!r} is not a capture flip-flop")
        return float(self._arrival[sink.inputs[0]])
