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

from repro.netlist.gates import GATE_TYPES, GateType
from repro.netlist.netlist import Netlist

__all__ = ["Path", "PathEnumerator"]

_DFF = GATE_TYPES.index(GateType.DFF)


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
        self._arrays = netlist.arrays()
        self._arrival = self._compute_arrivals()
        # The heap search reads plain lists: fan-in CSR, endpoint flags,
        # delays and arrivals.
        arr = self._arrays
        self._fanin_ptr = arr.fanin_ptr.tolist()
        self._fanin = arr.fanin.tolist()
        self._is_endpoint = arr.endpoint.tolist()
        self._delay_list = self.delays.tolist()
        self._arrival_list = self._arrival.tolist()
        # endpoint -> (k, the longest path list computed so far).
        self._memo: dict[int, tuple[int, list[Path]]] = {}

    def _compute_arrivals(self) -> np.ndarray:
        """Longest source-to-output delay for every gate (incl. own delay),
        one ``maximum.reduceat`` over each topological level's fan-in."""
        arr = self._arrays
        arrival = np.where(arr.endpoint, self.delays, -np.inf)
        for gids, drivers, offsets in arr.levels:
            arrival[gids] = (
                np.maximum.reduceat(arrival[drivers], offsets)
                + self.delays[gids]
            )
        return arrival

    @property
    def arrivals(self) -> np.ndarray:
        """Per-gate worst arrival times (ps) at gate outputs."""
        return self._arrival

    def _capture_driver(self, endpoint: int) -> int:
        if self._arrays.gtype[endpoint] != _DFF:
            name = self.netlist.gate(endpoint).name
            raise ValueError(f"gate {name!r} is not a capture flip-flop")
        return self._fanin[self._fanin_ptr[endpoint]]

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
        endpoint = int(endpoint)
        known = self._memo.get(endpoint)
        if known is not None and k <= known[0]:
            return known[1][:k]
        driver = self._capture_driver(endpoint)
        ptr, fanin = self._fanin_ptr, self._fanin
        is_endpoint = self._is_endpoint
        delays, arrival = self._delay_list, self._arrival_list
        results: list[Path] = []
        # Heap entries: (-upper_bound_delay, counter, head, partial_tuple,
        # cost_of_partial).  ``partial_tuple`` holds gate ids from ``head``
        # to the sink driver in signal-flow order.
        counter = 0
        heap = [(-arrival[driver], counter, driver, (driver,), delays[driver])]
        while heap and len(results) < k:
            neg_bound, _, head, partial, cost = heapq.heappop(heap)
            if is_endpoint[head]:
                results.append(Path(gates=partial, sink=endpoint, delay=-neg_bound))
                continue
            # A gate may use the same driver on two pins (e.g. AND(x, x));
            # the gate *sequence* is identical either way, so expand each
            # distinct driver once (a path is a set of gates, Def. 3.1).
            for inp in dict.fromkeys(fanin[ptr[head] : ptr[head + 1]]):
                counter += 1
                new_cost = cost + delays[inp]
                bound = new_cost + (arrival[inp] - delays[inp])
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
        return float(self._arrival[self._capture_driver(endpoint)])
