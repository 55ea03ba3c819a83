"""Gate primitives for the netlist graph.

The netlist model follows Section 3 of the paper: vertices are gates, edges
are nets, and flip-flops / I-O ports are *endpoints*.  Endpoints are further
split into **control** endpoints (instruction fetch/decode/steer state) and
**data** endpoints (operands, results, condition codes, addresses) as in
Section 4, because the two sets are characterized differently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GateType",
    "EndpointKind",
    "Gate",
    "check_gate",
    "evaluate_gate",
    "GATE_ARITY",
    "GATE_TYPES",
    "ENDPOINT_KINDS",
]


class GateType(enum.Enum):
    """Supported cell types.

    ``INPUT`` models a primary input or pseudo-input port, ``DFF`` a
    D-flip-flop.  Both are endpoints; everything else is combinational.
    """

    INPUT = "input"
    DFF = "dff"
    BUF = "buf"
    NOT = "not"
    AND2 = "and2"
    OR2 = "or2"
    NAND2 = "nand2"
    NOR2 = "nor2"
    XOR2 = "xor2"
    XNOR2 = "xnor2"
    MUX2 = "mux2"  # inputs: (select, a, b) -> b if select else a
    MAJ3 = "maj3"  # majority of three (full-adder carry)

    @property
    def is_endpoint(self) -> bool:
        return self in (GateType.INPUT, GateType.DFF)

    @property
    def is_combinational(self) -> bool:
        return not self.is_endpoint


#: Number of input pins required by each gate type.
GATE_ARITY: dict[GateType, int] = {
    GateType.INPUT: 0,
    GateType.DFF: 1,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.AND2: 2,
    GateType.OR2: 2,
    GateType.NAND2: 2,
    GateType.NOR2: 2,
    GateType.XOR2: 2,
    GateType.XNOR2: 2,
    GateType.MUX2: 3,
    GateType.MAJ3: 3,
}


class EndpointKind(enum.Enum):
    """Classification of endpoints per Section 4 of the paper."""

    CONTROL = "control"
    DATA = "data"


#: Gate types by array code: a netlist's ``gtype`` array holds indices
#: into this tuple (``INPUT`` is 0 and ``DFF`` 1, so endpoints are the
#: codes below 2).
GATE_TYPES: tuple[GateType, ...] = tuple(GateType)

#: Endpoint kinds by array code (-1 marks a combinational gate).
ENDPOINT_KINDS: tuple[EndpointKind, ...] = tuple(EndpointKind)


def check_gate(
    name: str,
    gtype: GateType,
    n_inputs: int,
    endpoint_kind: EndpointKind | None,
) -> None:
    """Raise ``ValueError`` unless the pin count and endpoint kind fit
    ``gtype``."""
    arity = GATE_ARITY[gtype]
    if n_inputs != arity:
        raise ValueError(
            f"gate {name!r} of type {gtype.value} needs "
            f"{arity} inputs, got {n_inputs}"
        )
    if gtype.is_endpoint and endpoint_kind is None:
        raise ValueError(f"endpoint gate {name!r} needs an endpoint_kind")
    if gtype.is_combinational and endpoint_kind is not None:
        raise ValueError(f"combinational gate {name!r} cannot be an endpoint")


@dataclass(frozen=True, slots=True)
class Gate:
    """A read-only view of one gate instance in the netlist.

    A :class:`~repro.netlist.netlist.Netlist` keeps its gates as arrays
    and hands these out at its API edge; change a netlist through its
    own methods (``connect_dff``, ``place``).

    Attributes:
        gid: Dense integer id, assigned by the owning :class:`Netlist`.
        name: Human-readable hierarchical name (unique per netlist).
        gtype: The cell type.
        inputs: Ids of the gates driving this gate's input pins, in pin
            order.  For a ``DFF`` this is the single driver of its D pin;
            the flip-flop's Q output is the value the gate itself exposes.
        stage: Pipeline stage index the gate belongs to.
        endpoint_kind: ``CONTROL``/``DATA`` for endpoints, ``None`` for
            combinational gates.
        x, y: Placement coordinates (micrometres) used by the spatial
            process-variation model.
    """

    gid: int
    name: str
    gtype: GateType
    inputs: tuple[int, ...] = ()
    stage: int = 0
    endpoint_kind: EndpointKind | None = None
    x: float = 0.0
    y: float = 0.0

    @property
    def is_endpoint(self) -> bool:
        return self.gtype.is_endpoint

    @property
    def is_combinational(self) -> bool:
        return self.gtype.is_combinational

    def __post_init__(self) -> None:
        check_gate(self.name, self.gtype, len(self.inputs), self.endpoint_kind)


def evaluate_gate(gtype: GateType, operands: list[np.ndarray]) -> np.ndarray:
    """Evaluate a combinational gate on vectorized boolean operands.

    Each operand is a boolean array (arbitrary, broadcast-compatible shape —
    typically one lane per simulated clock cycle).  Returns the output as a
    boolean array of the same shape.
    """
    if gtype == GateType.BUF:
        return operands[0].copy()
    if gtype == GateType.NOT:
        return ~operands[0]
    if gtype == GateType.AND2:
        return operands[0] & operands[1]
    if gtype == GateType.OR2:
        return operands[0] | operands[1]
    if gtype == GateType.NAND2:
        return ~(operands[0] & operands[1])
    if gtype == GateType.NOR2:
        return ~(operands[0] | operands[1])
    if gtype == GateType.XOR2:
        return operands[0] ^ operands[1]
    if gtype == GateType.XNOR2:
        return ~(operands[0] ^ operands[1])
    if gtype == GateType.MUX2:
        sel, a, b = operands
        return np.where(sel, b, a)
    if gtype == GateType.MAJ3:
        a, b, c = operands
        return (a & b) | (a & c) | (b & c)
    raise ValueError(f"cannot evaluate non-combinational gate type {gtype}")
