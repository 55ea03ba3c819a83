"""The netlist graph N: gates as vertices, nets as edges (Section 3).

A :class:`Netlist` keeps its gates as columns indexed by dense integer
ids and, after the last structural change, as one set of flat arrays
(:class:`NetlistArrays`) that every analysis reads.  Flip-flops and input
ports are *endpoints*; each endpoint exposes its Q output to the
combinational fabric, and each DFF's single input pin is the D capture
point terminating timing paths.  :class:`~repro.netlist.gates.Gate`
objects exist only at the API edge (:meth:`Netlist.gate`,
:attr:`Netlist.gates`), as read-only views.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.netlist.gates import (
    ENDPOINT_KINDS,
    GATE_ARITY,
    GATE_TYPES,
    EndpointKind,
    Gate,
    GateType,
    check_gate,
)
from repro.netlist.library import TimingLibrary

__all__ = ["Netlist", "NetlistArrays"]

_TYPE_CODE = {gtype: code for code, gtype in enumerate(GATE_TYPES)}
_KIND_CODE = {kind: code for code, kind in enumerate(ENDPOINT_KINDS)}
_DFF = _TYPE_CODE[GateType.DFF]
_MAX_ARITY = max(GATE_ARITY.values())


def _csr_rows(
    ptr: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` concatenated, with each row's start offset."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    flat = values[np.repeat(starts - offsets, counts) + np.arange(counts.sum())]
    return flat, offsets


@dataclass(frozen=True, eq=False)
class NetlistArrays:
    """A netlist's structure as flat arrays, one row per gate id.

    Attributes:
        gtype: Gate-type code per gate, an index into
            :data:`~repro.netlist.gates.GATE_TYPES`.
        fanin_ptr, fanin: CSR fan-in: the drivers of gate ``g``'s input
            pins, in pin order, are ``fanin[fanin_ptr[g]:fanin_ptr[g + 1]]``
            (an unconnected flip-flop lists itself).
        fanout_ptr, fanout: CSR fan-out: the loads gate ``g`` drives, in
            ascending id order, once per pin (an unconnected flip-flop is
            nobody's load).
        stage: Pipeline stage per gate.
        kind: Endpoint-kind code per gate, an index into
            :data:`~repro.netlist.gates.ENDPOINT_KINDS`; -1 for
            combinational gates.
        xy: ``(n_gates, 2)`` placement coordinates.
        level: 0 for endpoints; 1 + the highest driver level for a
            combinational gate.
        topo: Combinational gate ids in topological order: level by
            level, each level in the order Kahn's FIFO algorithm meets it
            (level 1 by id, a later gate when its last driver is
            dequeued).  Shorter than the combinational fabric only if it
            holds a cycle.
        level_ptr: ``topo[level_ptr[L - 1]:level_ptr[L]]`` is level ``L``.
    """

    gtype: np.ndarray
    fanin_ptr: np.ndarray
    fanin: np.ndarray
    fanout_ptr: np.ndarray
    fanout: np.ndarray
    stage: np.ndarray
    kind: np.ndarray
    xy: np.ndarray
    level: np.ndarray
    topo: np.ndarray
    level_ptr: np.ndarray

    def __len__(self) -> int:
        return len(self.gtype)

    @cached_property
    def endpoint(self) -> np.ndarray:
        """Endpoint (input port or flip-flop) mask."""
        return self.gtype <= _DFF

    @cached_property
    def pins(self) -> np.ndarray:
        """``(n_gates, max arity)`` fan-in padded by repeating the last
        pin (a port lists itself), for fixed-width gathers."""
        arity = np.diff(self.fanin_ptr)
        has = arity > 0
        pins = np.repeat(np.arange(len(self))[:, None], _MAX_ARITY, axis=1)
        pin = np.minimum(np.arange(_MAX_ARITY), arity[has, None] - 1)
        pins[has] = self.fanin[self.fanin_ptr[:-1][has, None] + pin]
        return pins

    @cached_property
    def levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level: ``(gates, drivers, offsets)``, the level's gates in
        topological order and their concatenated fan-in with each gate's
        start offset (the layout ``np.*.reduceat`` takes)."""
        out = []
        for lo, hi in itertools.pairwise(self.level_ptr.tolist()):
            gids = self.topo[lo:hi]
            out.append((gids, *_csr_rows(self.fanin_ptr, self.fanin, gids)))
        return out

    def drivers(self, gids) -> np.ndarray:
        """The first-pin driver of each gate (a flip-flop's D driver)."""
        return self.fanin[self.fanin_ptr[np.asarray(gids, dtype=np.intp)]]


def _levelize(
    gtype: np.ndarray,
    owner: np.ndarray,
    fanin: np.ndarray,
    fanout_ptr: np.ndarray,
    fanout: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(level, topo, level_ptr)`` by Kahn's algorithm, one level per
    step.

    Kahn's FIFO queue holds one level after another: a gate joins it
    when its last combinational driver is dequeued, so each level is
    the previous level's fan-out ordered by where each gate's in-degree
    reaches zero.  ``owner[i]`` is the gate whose pin ``fanin[i]``
    drives.
    """
    n = len(gtype)
    comb = gtype > _DFF
    indeg = np.bincount(owner[comb[owner] & comb[fanin]], minlength=n)
    level = np.zeros(n, dtype=np.intp)
    frontier = np.flatnonzero(comb & (indeg == 0))
    parts = []
    while len(frontier):
        parts.append(frontier)
        level[frontier] = len(parts)
        loads, _ = _csr_rows(fanout_ptr, fanout, frontier)
        loads = loads[comb[loads]]
        indeg -= np.bincount(loads, minlength=n)
        # Each ready gate at its last occurrence in the load stream.
        last = loads[::-1]
        ready = indeg[last] == 0
        gids, first = np.unique(last[ready], return_index=True)
        frontier = gids[np.argsort(-np.flatnonzero(ready)[first])]
    sizes = [len(p) for p in parts]
    topo = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
    return level, topo, np.cumsum([0, *sizes])


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
        # One column per gate attribute, indexed by gate id.
        self._names: list[str] = []
        self._codes: list[int] = []
        self._inputs: list[tuple[int, ...]] = []
        self._stages: list[int] = []
        self._kinds: list[int] = []
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._by_name: dict[str, int] = {}
        self._arrays: NetlistArrays | None = None
        self._gates: list[Gate] | None = None

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
        self._check_new(name, stage)
        gid = len(self._names)
        inputs = tuple(int(i) for i in inputs)
        for i in inputs:
            if not 0 <= i < gid:
                raise ValueError(
                    f"gate {name!r}: input id {i} does not refer to an "
                    "already-added gate"
                )
        return self._append(name, gtype, inputs, stage, endpoint_kind, x, y)

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
        if driver is not None:
            return self.add_gate(
                name, GateType.DFF, (driver,), stage=stage, endpoint_kind=kind,
                x=x, y=y,
            )
        self._check_new(name, stage)
        # Self-driven placeholder, resolved by connect_dff.
        return self._append(
            name, GateType.DFF, (len(self._names),), stage, kind, x, y
        )

    def _check_new(self, name: str, stage: int) -> None:
        if name in self._by_name:
            raise ValueError(f"duplicate gate name {name!r}")
        if not 0 <= stage < self.num_stages:
            raise ValueError(
                f"stage {stage} out of range for {self.num_stages}-stage netlist"
            )

    def _append(self, name, gtype, inputs, stage, endpoint_kind, x, y) -> int:
        check_gate(name, gtype, len(inputs), endpoint_kind)
        gid = len(self._names)
        self._names.append(name)
        self._codes.append(_TYPE_CODE[gtype])
        self._inputs.append(inputs)
        self._stages.append(stage)
        self._kinds.append(-1 if endpoint_kind is None else _KIND_CODE[endpoint_kind])
        self._xs.append(x)
        self._ys.append(y)
        self._by_name[name] = gid
        self._invalidate_caches()
        return gid

    def connect_dff(self, dff_id: int, driver: int) -> None:
        """Connect (or reconnect) the D pin of flip-flop ``dff_id``."""
        if self._codes[dff_id] != _DFF:
            raise ValueError(f"gate {self._names[dff_id]!r} is not a DFF")
        if not 0 <= driver < len(self._names):
            raise ValueError(f"driver id {driver} out of range")
        self._inputs[dff_id] = (int(driver),)
        self._invalidate_caches()

    def place(self, gid: int, x: float, y: float) -> None:
        """Move gate ``gid`` to placement coordinates ``(x, y)``."""
        self._xs[gid] = x
        self._ys[gid] = y
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._arrays = None
        self._gates = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(self.gates)

    def arrays(self) -> NetlistArrays:
        """The netlist as flat arrays, built once per structure (a gate
        added, a flip-flop reconnected or a gate moved drops them)."""
        if self._arrays is None:
            self._arrays = self._build_arrays()
        return self._arrays

    def _build_arrays(self) -> NetlistArrays:
        n = len(self._names)
        gtype = np.array(self._codes, dtype=np.int8)
        fanin_ptr = np.cumsum([0, *map(len, self._inputs)])
        fanin = np.fromiter(
            itertools.chain.from_iterable(self._inputs),
            dtype=np.intp, count=int(fanin_ptr[-1]),
        )
        owner = np.repeat(np.arange(n), np.diff(fanin_ptr))
        # An unconnected flip-flop's self-loop drives nothing.
        wired = (gtype[owner] != _DFF) | (fanin != owner)
        drivers = fanin[wired]
        # Edges are in load order; a stable sort by driver keeps it.
        fanout = owner[wired][np.argsort(drivers, kind="stable")]
        fanout_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(drivers, minlength=n)))
        )
        level, topo, level_ptr = _levelize(
            gtype, owner, fanin, fanout_ptr, fanout
        )
        return NetlistArrays(
            gtype=gtype,
            fanin_ptr=fanin_ptr,
            fanin=fanin,
            fanout_ptr=fanout_ptr,
            fanout=fanout,
            stage=np.array(self._stages, dtype=np.intp),
            kind=np.array(self._kinds, dtype=np.int8),
            xy=np.array([self._xs, self._ys], dtype=float).T.reshape(n, 2),
            level=level,
            topo=topo,
            level_ptr=level_ptr,
        )

    def _gate(self, gid: int) -> Gate:
        kind = self._kinds[gid]
        return Gate(
            gid=gid,
            name=self._names[gid],
            gtype=GATE_TYPES[self._codes[gid]],
            inputs=self._inputs[gid],
            stage=self._stages[gid],
            endpoint_kind=None if kind < 0 else ENDPOINT_KINDS[kind],
            x=self._xs[gid],
            y=self._ys[gid],
        )

    def gate(self, gid: int) -> Gate:
        """Return the gate with id ``gid``."""
        if self._gates is not None:
            return self._gates[gid]
        return self._gate(range(len(self._names))[gid])

    def gate_by_name(self, name: str) -> Gate:
        """Return the gate with hierarchical name ``name``."""
        return self.gate(self._by_name[name])

    @property
    def gates(self) -> list[Gate]:
        """All gates, in id order."""
        if self._gates is None:
            self._gates = [self._gate(gid) for gid in range(len(self._names))]
        return self._gates

    def endpoint_ids(
        self,
        stage: int | None = None,
        kind: EndpointKind | None = None,
        captures: bool = False,
    ) -> list[int]:
        """Ids of endpoints ``E(N, s)`` in ascending order, optionally
        filtered by stage/kind; ``captures`` keeps the flip-flops (the
        endpoints with a D pin to capture)."""
        arr = self.arrays()
        mask = arr.gtype == _DFF if captures else arr.endpoint.copy()
        if stage is not None:
            mask &= arr.stage == stage
        if kind is not None:
            mask &= arr.kind == _KIND_CODE[kind]
        return np.flatnonzero(mask).tolist()

    def endpoints(
        self, stage: int | None = None, kind: EndpointKind | None = None
    ) -> list[Gate]:
        """Return endpoints ``E(N, s)``, optionally filtered by stage/kind."""
        return [self.gate(gid) for gid in self.endpoint_ids(stage, kind)]

    def fanout(self, gid: int) -> list[int]:
        """Ids of gates whose inputs include ``gid`` (once per pin)."""
        arr = self.arrays()
        return arr.fanout[arr.fanout_ptr[gid] : arr.fanout_ptr[gid + 1]].tolist()

    def fanout_count(self, gid: int) -> int:
        """Number of loads driven by gate ``gid``."""
        ptr = self.arrays().fanout_ptr
        return int(ptr[gid + 1] - ptr[gid])

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def topological_order(self) -> list[int]:
        """Ids of combinational gates in topological (driver-first) order.

        Endpoints are sources (their Q outputs) and sinks (DFF D pins); only
        combinational gates appear in the returned order.  Raises
        ``ValueError`` if the combinational fabric contains a cycle.
        """
        arr = self.arrays()
        if len(arr.topo) != np.count_nonzero(~arr.endpoint):
            raise ValueError("combinational fabric contains a cycle")
        return arr.topo.tolist()

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Verifies that every DFF has a resolved driver, the combinational
        fabric is acyclic, and every combinational gate lies on some
        source-to-endpoint route (no dangling logic).  Every
        combinational gate has a driver, and all of its drivers precede
        it, so each is reached from an endpoint's Q; only the route on to
        a D pin can be missing.
        """
        arr = self.arrays()
        dffs = np.flatnonzero(arr.gtype == _DFF)
        open_d = dffs[arr.drivers(dffs) == dffs]
        if len(open_d):
            raise ValueError(
                f"DFF {self._names[open_d[0]]!r} has an unconnected D pin"
            )
        self.topological_order()
        # Backward from the D pins through combinational gates.
        comb = ~arr.endpoint
        reached = np.zeros(len(arr), dtype=bool)
        frontier = arr.drivers(dffs)
        while len(frontier):
            frontier = np.unique(frontier[comb[frontier] & ~reached[frontier]])
            reached[frontier] = True
            frontier, _ = _csr_rows(arr.fanin_ptr, arr.fanin, frontier)
        dangling = np.flatnonzero(comb & ~reached)
        if len(dangling):
            raise ValueError(
                f"combinational gate {self._names[dangling[0]]!r} is dangling "
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
        arr = self.arrays()
        cells = [library.cell(gtype) for gtype in GATE_TYPES]
        intrinsic = np.array([c.intrinsic_delay for c in cells])[arr.gtype]
        load = np.array([c.load_delay for c in cells])[arr.gtype]
        return library.derate * (intrinsic + load * np.diff(arr.fanout_ptr))

    def sigma_fractions(self, library: TimingLibrary) -> np.ndarray:
        """Per-gate one-sigma variability fractions from ``library``."""
        table = np.array([library.sigma_fraction(t) for t in GATE_TYPES])
        return table[self.arrays().gtype]

    def placements(self) -> np.ndarray:
        """``(n_gates, 2)`` array of (x, y) placement coordinates."""
        return self.arrays().xy.copy()

    def summary(self) -> dict:
        """Return basic statistics about the netlist."""
        arr = self.arrays()
        return {
            "name": self.name,
            "stages": self.num_stages,
            "gates": len(arr),
            "combinational": int(np.count_nonzero(~arr.endpoint)),
            "control_endpoints": len(self.endpoint_ids(kind=EndpointKind.CONTROL)),
            "data_endpoints": len(self.endpoint_ids(kind=EndpointKind.DATA)),
        }
