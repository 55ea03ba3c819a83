"""Combinational circuit builders.

These helpers add real gate-level arithmetic blocks to a
:class:`~repro.netlist.netlist.Netlist`.  They matter for fidelity: the
paper's instruction error model is operand-value dependent, and genuine
circuits (ripple-carry chains, barrel-shifter mux trees, array multipliers)
give the value-dependent path activation that synthetic random logic cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

__all__ = [
    "BlockOutputs",
    "build_ripple_adder",
    "build_logic_unit",
    "build_barrel_shifter",
    "build_array_multiplier",
    "build_comparator",
    "build_random_cloud",
    "constant_zero",
]


@dataclass(slots=True)
class BlockOutputs:
    """Output nets of a builder: named buses and scalar signals."""

    buses: dict[str, list[int]] = field(default_factory=dict)
    signals: dict[str, int] = field(default_factory=dict)

    def bus(self, name: str) -> list[int]:
        return self.buses[name]

    def signal(self, name: str) -> int:
        return self.signals[name]


def constant_zero(
    netlist: Netlist, seed_signal: int, prefix: str, stage: int = 0
) -> int:
    """Create a constant-0 net as ``seed_signal AND NOT seed_signal``.

    Gate-level netlists have no literal constants; tie-low cells are modelled
    as a contradiction of an arbitrary existing signal.
    """
    inv = netlist.add_gate(f"{prefix}/tie0_inv", GateType.NOT, (seed_signal,), stage)
    return netlist.add_gate(
        f"{prefix}/tie0", GateType.AND2, (seed_signal, inv), stage
    )


def _place(netlist: Netlist, gid: int, x: float, y: float) -> int:
    netlist.place(gid, x, y)
    return gid


def build_ripple_adder(
    netlist: Netlist,
    a: list[int],
    b: list[int],
    cin: int,
    prefix: str,
    stage: int = 0,
    origin: tuple[float, float] = (0.0, 0.0),
    pitch: float = 4.0,
) -> BlockOutputs:
    """Add a ripple-carry adder; returns bus ``sum`` and signal ``cout``.

    Bit ``i`` of the full adder is ``sum_i = a_i ^ b_i ^ c_i`` and
    ``c_{i+1} = MAJ(a_i, b_i, c_i)``, so the carry chain forms the classic
    long operand-dependent critical path.
    """
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    x0, y0 = origin
    carry = cin
    sums: list[int] = []
    for i, (ai, bi) in enumerate(zip(a, b)):
        y = y0 + i * pitch
        half = netlist.add_gate(f"{prefix}/ha{i}", GateType.XOR2, (ai, bi), stage)
        _place(netlist, half, x0, y)
        s = netlist.add_gate(f"{prefix}/sum{i}", GateType.XOR2, (half, carry), stage)
        _place(netlist, s, x0 + pitch, y)
        c = netlist.add_gate(
            f"{prefix}/carry{i}", GateType.MAJ3, (ai, bi, carry), stage
        )
        _place(netlist, c, x0 + 2 * pitch, y)
        sums.append(s)
        carry = c
    return BlockOutputs(buses={"sum": sums}, signals={"cout": carry})


def build_logic_unit(
    netlist: Netlist,
    a: list[int],
    b: list[int],
    op0: int,
    op1: int,
    prefix: str,
    stage: int = 0,
    origin: tuple[float, float] = (0.0, 0.0),
    pitch: float = 4.0,
) -> BlockOutputs:
    """Add a bitwise logic unit selecting AND/OR/XOR/NOT-A via (op1, op0).

    Returns bus ``out``.  Encoding: 00 → AND, 01 → OR, 10 → XOR, 11 → ~A.
    """
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    x0, y0 = origin
    outs: list[int] = []
    for i, (ai, bi) in enumerate(zip(a, b)):
        y = y0 + i * pitch
        g_and = netlist.add_gate(f"{prefix}/and{i}", GateType.AND2, (ai, bi), stage)
        g_or = netlist.add_gate(f"{prefix}/or{i}", GateType.OR2, (ai, bi), stage)
        g_xor = netlist.add_gate(f"{prefix}/xor{i}", GateType.XOR2, (ai, bi), stage)
        g_not = netlist.add_gate(f"{prefix}/not{i}", GateType.NOT, (ai,), stage)
        m0 = netlist.add_gate(
            f"{prefix}/m0_{i}", GateType.MUX2, (op0, g_and, g_or), stage
        )
        m1 = netlist.add_gate(
            f"{prefix}/m1_{i}", GateType.MUX2, (op0, g_xor, g_not), stage
        )
        out = netlist.add_gate(
            f"{prefix}/out{i}", GateType.MUX2, (op1, m0, m1), stage
        )
        for col, gid in enumerate((g_and, g_or, g_xor, g_not, m0, m1, out)):
            _place(netlist, gid, x0 + col * pitch, y)
        outs.append(out)
    return BlockOutputs(buses={"out": outs})


def build_barrel_shifter(
    netlist: Netlist,
    data: list[int],
    shamt: list[int],
    prefix: str,
    stage: int = 0,
    right: bool = True,
    origin: tuple[float, float] = (0.0, 0.0),
    pitch: float = 4.0,
) -> BlockOutputs:
    """Add a logarithmic barrel shifter (zero fill); returns bus ``out``.

    ``shamt`` is little-endian: level ``k`` conditionally shifts by ``2**k``.
    """
    width = len(data)
    if not shamt:
        raise ValueError("shifter needs at least one shift-amount bit")
    x0, y0 = origin
    zero = constant_zero(netlist, data[0], prefix, stage)
    _place(netlist, zero, x0, y0 - pitch)
    current = list(data)
    for level, sel in enumerate(shamt):
        amount = 1 << level
        nxt: list[int] = []
        for i in range(width):
            src = i + amount if right else i - amount
            shifted = current[src] if 0 <= src < width else zero
            m = netlist.add_gate(
                f"{prefix}/l{level}_m{i}",
                GateType.MUX2,
                (sel, current[i], shifted),
                stage,
            )
            _place(netlist, m, x0 + (level + 1) * 2 * pitch, y0 + i * pitch)
            nxt.append(m)
        current = nxt
    return BlockOutputs(buses={"out": current})


def build_array_multiplier(
    netlist: Netlist,
    a: list[int],
    b: list[int],
    prefix: str,
    stage: int = 0,
    origin: tuple[float, float] = (0.0, 0.0),
    pitch: float = 4.0,
) -> BlockOutputs:
    """Add an unsigned array multiplier; returns the low ``len(a)`` product bits.

    Implemented as AND partial products reduced with ripple-carry rows — the
    classic operand-dependent deep arithmetic block.  Only the low half of
    the product is produced (matching a result register of operand width).
    """
    wa, wb = len(a), len(b)
    if wa == 0 or wb == 0:
        raise ValueError("multiplier operands must be non-empty")
    x0, y0 = origin
    zero = constant_zero(netlist, a[0], prefix, stage)
    _place(netlist, zero, x0, y0 - pitch)

    def partial_row(j: int) -> list[int]:
        row = []
        for i in range(wa):
            if i + j < wa:
                g = netlist.add_gate(
                    f"{prefix}/pp{j}_{i}", GateType.AND2, (a[i], b[j]), stage
                )
                _place(netlist, g, x0 + j * 3 * pitch, y0 + i * pitch)
                row.append(g)
        return row

    acc = partial_row(0) + [zero] * 0
    for j in range(1, wb):
        row = partial_row(j)
        # Align: row contributes to product bits j .. wa-1.
        addend = [zero] * j + row
        addend = addend[:wa]
        adder = build_ripple_adder(
            netlist,
            acc,
            addend,
            zero,
            prefix=f"{prefix}/row{j}",
            stage=stage,
            origin=(x0 + j * 3 * pitch + pitch, y0),
            pitch=pitch,
        )
        acc = adder.bus("sum")
    return BlockOutputs(buses={"product": acc})


def build_comparator(
    netlist: Netlist,
    a: list[int],
    b: list[int],
    prefix: str,
    stage: int = 0,
    origin: tuple[float, float] = (0.0, 0.0),
    pitch: float = 4.0,
) -> BlockOutputs:
    """Add an equality comparator; returns signal ``eq`` (balanced AND tree)."""
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    x0, y0 = origin
    level = [
        _place(
            netlist,
            netlist.add_gate(f"{prefix}/xn{i}", GateType.XNOR2, (ai, bi), stage),
            x0,
            y0 + i * pitch,
        )
        for i, (ai, bi) in enumerate(zip(a, b))
    ]
    depth = 0
    while len(level) > 1:
        depth += 1
        nxt = []
        for i in range(0, len(level) - 1, 2):
            g = netlist.add_gate(
                f"{prefix}/and_d{depth}_{i}",
                GateType.AND2,
                (level[i], level[i + 1]),
                stage,
            )
            _place(netlist, g, x0 + depth * 2 * pitch, y0 + i * pitch)
            nxt.append(g)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return BlockOutputs(signals={"eq": level[0]})


# Cell mix of the random control clouds, weighted toward toggle-
# transparent cells (XOR/XNOR/NOT/BUF propagate input transitions
# unconditionally; AND/OR families gate them).  Real decode/steer logic
# has high switching correlation along its cones — a uniformly random
# AND/OR cloud would almost never activate a full path, starving the
# control-network DTS analysis of Section 4.
_CLOUD_TYPES = (
    [GateType.XOR2] * 3
    + [GateType.XNOR2] * 2
    + [GateType.NOT] * 2
    + [GateType.BUF]
    + [GateType.MUX2] * 2
    + [GateType.AND2]
    + [GateType.OR2]
    + [GateType.NAND2]
    + [GateType.NOR2]
)


def build_random_cloud(
    netlist: Netlist,
    inputs: list[int],
    n_gates: int,
    prefix: str,
    stage: int = 0,
    depth_bias: float = 0.6,
    seed=0,
    origin: tuple[float, float] = (0.0, 0.0),
    extent: tuple[float, float] = (60.0, 60.0),
) -> BlockOutputs:
    """Add a random combinational cloud modelling stage control logic.

    ``depth_bias`` in (0, 1) controls how strongly new gates prefer recently
    added gates as inputs — higher values produce deeper logic (longer
    control paths).  Returns bus ``heads``: gates with no fanout inside the
    cloud, which the caller must connect onward (e.g. to control flip-flops)
    to keep the netlist free of dangling logic.

    The construction is deterministic for a given ``seed``.
    """
    if not inputs:
        raise ValueError("random cloud needs at least one input")
    if n_gates < 1:
        raise ValueError(f"n_gates must be >= 1, got {n_gates}")
    if not 0.0 < depth_bias < 1.0:
        raise ValueError(f"depth_bias must be in (0, 1), got {depth_bias}")
    rng = as_rng(seed)
    x0, y0 = origin
    ex, ey = extent
    pool = list(inputs)
    created: list[int] = []
    has_fanout: set[int] = set()
    n_inputs = len(inputs)
    for idx in range(n_gates):
        gtype = _CLOUD_TYPES[rng.integers(len(_CLOUD_TYPES))]
        arity = {GateType.NOT: 1, GateType.BUF: 1, GateType.MUX2: 3}.get(
            gtype, 2
        )
        chosen: list[int] = []
        for _ in range(arity):
            # Geometric-ish bias toward the most recently created gates.
            if created and rng.random() < depth_bias:
                back = int(rng.geometric(0.5))
                pick = created[max(0, len(created) - back)]
            else:
                pick = pool[int(rng.integers(n_inputs))]
            chosen.append(pick)
        gid = netlist.add_gate(
            f"{prefix}/g{idx}", gtype, tuple(chosen), stage
        )
        _place(
            netlist,
            gid,
            x0 + float(rng.random()) * ex,
            y0 + float(rng.random()) * ey,
        )
        created.append(gid)
        has_fanout.update(chosen)
    heads = [g for g in created if g not in has_fanout]
    return BlockOutputs(buses={"heads": heads, "all": created})
