"""The netlist graph N: gates as vertices, nets as edges (Section 3).

A :class:`Netlist` owns a set of :class:`~repro.netlist.gates.Gate` objects
with dense integer ids.  Flip-flops and input ports are *endpoints*; each
endpoint exposes its Q output to the combinational fabric, and each DFF's
single input pin is the D capture point terminating timing paths.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.netlist.gates import EndpointKind, Gate, GateType
from repro.netlist.library import TimingLibrary

__all__ = ["Netlist"]


class Netlist:
    """A pipelined gate-level netlist.

    Args:
        name: Netlist name (informational).
        num_stages: Number of pipeline stages ``S(N)``.
    """

    def __init__(self, name: str = "netlist", num_stages: int = 1) -> None:
        if num_stages < 1:
            raise ValueError(f"num_stages must be >= 1, got {num_stages}")
        self.name = name
        self.num_stages = num_stages
        self._gates: list[Gate] = []
        self._by_name: dict[str, int] = {}
        self._fanout: list[list[int]] | None = None
        self._topo: list[int] | None = None
        self._delays: np.ndarray | None = None
        self._endpoints: dict[tuple, list[Gate]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_gate(
        self,
        name: str,
        gtype: GateType,
        inputs: tuple[int, ...] | list[int] = (),
        stage: int = 0,
        endpoint_kind: EndpointKind | None = None,
        x: float = 0.0,
        y: float = 0.0,
    ) -> int:
        """Add a gate and return its id.

        Input ids must refer to already-added gates, which keeps the
        combinational fabric acyclic by construction (DFF inputs may be
        connected later via :meth:`connect_dff` to allow sequential loops).
        """
        if name in self._by_name:
            raise ValueError(f"duplicate gate name {name!r}")
        if not 0 <= stage < self.num_stages:
            raise ValueError(
                f"stage {stage} out of range for {self.num_stages}-stage netlist"
            )
        gid = len(self._gates)
        inputs = tuple(int(i) for i in inputs)
        for i in inputs:
            if not 0 <= i < gid:
                raise ValueError(
                    f"gate {name!r}: input id {i} does not refer to an "
                    "already-added gate"
                )
        gate = Gate(
            gid=gid,
            name=name,
            gtype=gtype,
            inputs=inputs,
            stage=stage,
            endpoint_kind=endpoint_kind,
            x=x,
            y=y,
        )
        self._gates.append(gate)
        self._by_name[name] = gid
        self._invalidate_caches()
        return gid

    def add_input(
        self,
        name: str,
        stage: int = 0,
        kind: EndpointKind = EndpointKind.CONTROL,
        x: float = 0.0,
        y: float = 0.0,
    ) -> int:
        """Add a primary-input endpoint."""
        return self.add_gate(
            name, GateType.INPUT, (), stage=stage, endpoint_kind=kind, x=x, y=y
        )

    def add_dff(
        self,
        name: str,
        driver: int | None,
        stage: int,
        kind: EndpointKind,
        x: float = 0.0,
        y: float = 0.0,
    ) -> int:
        """Add a D-flip-flop endpoint.

        ``driver`` is the gate feeding the D pin; pass ``None`` to connect
        later with :meth:`connect_dff` (needed for sequential feedback).
        """
        if driver is None:
            # Temporarily self-driven via a sentinel resolved at connect time.
            if name in self._by_name:
                raise ValueError(f"duplicate gate name {name!r}")
            gid = len(self._gates)
            gate = Gate(
                gid=gid,
                name=name,
                gtype=GateType.DFF,
                inputs=(gid,),  # placeholder self-loop, must be reconnected
                stage=stage,
                endpoint_kind=kind,
                x=x,
                y=y,
            )
            self._gates.append(gate)
            self._by_name[name] = gid
            self._invalidate_caches()
            return gid
        return self.add_gate(
            name, GateType.DFF, (driver,), stage=stage, endpoint_kind=kind, x=x, y=y
        )

    def connect_dff(self, dff_id: int, driver: int) -> None:
        """Connect (or reconnect) the D pin of flip-flop ``dff_id``."""
        gate = self._gates[dff_id]
        if gate.gtype != GateType.DFF:
            raise ValueError(f"gate {gate.name!r} is not a DFF")
        if not 0 <= driver < len(self._gates):
            raise ValueError(f"driver id {driver} out of range")
        gate.inputs = (int(driver),)
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._fanout = None
        self._topo = None
        self._delays = None
        self._endpoints = {}

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self):
        return iter(self._gates)

    def gate(self, gid: int) -> Gate:
        """Return the gate with id ``gid``."""
        return self._gates[gid]

    def gate_by_name(self, name: str) -> Gate:
        """Return the gate with hierarchical name ``name``."""
        return self._gates[self._by_name[name]]

    @property
    def gates(self) -> list[Gate]:
        """All gates, in id order."""
        return self._gates

    def endpoints(
        self, stage: int | None = None, kind: EndpointKind | None = None
    ) -> list[Gate]:
        """Return endpoints ``E(N, s)``, optionally filtered by stage/kind.

        Each filter's scan runs once per netlist structure (the cache is
        dropped with the topological order when a gate is added or a
        flip-flop reconnected); callers get their own list.
        """
        key = (stage, kind)
        result = self._endpoints.get(key)
        if result is None:
            result = self._endpoints[key] = [
                g
                for g in self._gates
                if g.is_endpoint
                and (stage is None or g.stage == stage)
                and (kind is None or g.endpoint_kind == kind)
            ]
        return list(result)

    def combinational_gates(self) -> list[Gate]:
        """All combinational (non-endpoint) gates."""
        return [g for g in self._gates if g.is_combinational]

    def fanout(self, gid: int) -> list[int]:
        """Ids of gates whose inputs include ``gid``."""
        if self._fanout is None:
            fan: list[list[int]] = [[] for _ in self._gates]
            for g in self._gates:
                for i in g.inputs:
                    if g.gtype == GateType.DFF and i == g.gid:
                        continue  # unresolved placeholder self-loop
                    fan[i].append(g.gid)
            self._fanout = fan
        return self._fanout[gid]

    def fanout_count(self, gid: int) -> int:
        """Number of loads driven by gate ``gid``."""
        return len(self.fanout(gid))

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def topological_order(self) -> list[int]:
        """Ids of combinational gates in topological (driver-first) order.

        Endpoints are sources (their Q outputs) and sinks (DFF D pins); only
        combinational gates appear in the returned order.  Raises
        ``ValueError`` if the combinational fabric contains a cycle.
        """
        if self._topo is not None:
            return self._topo
        indeg = {}
        for g in self._gates:
            if g.is_combinational:
                indeg[g.gid] = sum(
                    1 for i in g.inputs if self._gates[i].is_combinational
                )
        ready = deque(gid for gid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            gid = ready.popleft()
            order.append(gid)
            for out in self.fanout(gid):
                if out in indeg:
                    indeg[out] -= 1
                    if indeg[out] == 0:
                        ready.append(out)
        if len(order) != len(indeg):
            raise ValueError("combinational fabric contains a cycle")
        self._topo = order
        return order

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Verifies that every DFF has a resolved driver, the combinational
        fabric is acyclic, and every combinational gate lies on some
        source-to-endpoint route (no dangling logic).
        """
        for g in self._gates:
            if g.gtype == GateType.DFF and g.inputs == (g.gid,):
                raise ValueError(f"DFF {g.name!r} has an unconnected D pin")
        self.topological_order()
        # Reachability forward from endpoints (Q) and backward from D pins.
        fwd = {g.gid for g in self._gates if g.is_endpoint}
        for gid in self.topological_order():
            if any(i in fwd for i in self._gates[gid].inputs):
                fwd.add(gid)
        bwd: set[int] = set()
        stack = [i for g in self._gates if g.gtype == GateType.DFF for i in g.inputs]
        while stack:
            gid = stack.pop()
            if gid in bwd or not self._gates[gid].is_combinational:
                continue
            bwd.add(gid)
            stack.extend(self._gates[gid].inputs)
        for g in self._gates:
            if g.is_combinational and (g.gid not in fwd or g.gid not in bwd):
                raise ValueError(
                    f"combinational gate {g.name!r} is dangling "
                    "(not on any endpoint-to-endpoint path)"
                )

    # ------------------------------------------------------------------ #
    # Timing annotations
    # ------------------------------------------------------------------ #

    def nominal_delays(self, library: TimingLibrary) -> np.ndarray:
        """Per-gate nominal delays (ps) under ``library``'s load model.

        Index ``i`` of the returned array is the delay contributed by gate
        ``i`` when it appears on a timing path: clock-to-Q for endpoint
        sources, pin-to-pin for combinational cells.
        """
        delays = np.zeros(len(self._gates))
        for g in self._gates:
            delays[g.gid] = library.delay(g.gtype, self.fanout_count(g.gid))
        return delays

    def sigma_fractions(self, library: TimingLibrary) -> np.ndarray:
        """Per-gate one-sigma variability fractions from ``library``."""
        return np.array([library.sigma_fraction(g.gtype) for g in self._gates])

    def placements(self) -> np.ndarray:
        """``(n_gates, 2)`` array of (x, y) placement coordinates."""
        return np.array([[g.x, g.y] for g in self._gates])

    def summary(self) -> dict:
        """Return basic statistics about the netlist."""
        n_comb = sum(1 for g in self._gates if g.is_combinational)
        n_ctrl = len(self.endpoints(kind=EndpointKind.CONTROL))
        n_data = len(self.endpoints(kind=EndpointKind.DATA))
        return {
            "name": self.name,
            "stages": self.num_stages,
            "gates": len(self._gates),
            "combinational": n_comb,
            "control_endpoints": n_ctrl,
            "data_endpoints": n_data,
        }
