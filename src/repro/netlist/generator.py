"""Synthetic 6-stage in-order pipeline netlist generator.

Stands in for the synthesized LEON3 integer unit of Section 6.1.  Each stage
combines a random control-logic cloud (fetch/decode/steer state) with real
gate-level datapath blocks (PC incrementer, immediate extraction, bypass
muxing, ALU with ripple adder / logic unit / barrel shifter / array
multiplier, memory alignment, write-back select).  Endpoints are split into
control and data sets per Section 4, and every gate receives placement
coordinates consumed by the spatial process-variation model.

The generated netlist is *stimulus-driven*: flip-flop Q values and primary
inputs are written per cycle by the characterization layer (from the
instruction occupying each stage), and the combinational fabric is then
evaluated to determine activation — the "functional simulation coupled with
STA" arrangement of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import as_rng, check_positive
from repro.netlist.builders import (
    build_array_multiplier,
    build_barrel_shifter,
    build_comparator,
    build_logic_unit,
    build_random_cloud,
    build_ripple_adder,
    constant_zero,
)
from repro.netlist.gates import EndpointKind, GateType
from repro.netlist.netlist import Netlist

__all__ = ["PipelineConfig", "PipelineNetlist", "generate_pipeline", "STAGE_NAMES"]

#: Stage mnemonics of the modelled 6-stage integer pipeline.
STAGE_NAMES = ("IF", "ID", "RA", "EX", "ME", "WB")


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Parameters of the synthetic pipeline netlist.

    Attributes:
        data_width: Datapath width in bits.
        mult_width: Operand width of the array multiplier slice.
        shift_bits: Number of shift-amount bits (barrel-shifter levels).
        ctrl_regs: Control flip-flops per pipeline boundary.
        cloud_gates: Gates per per-stage control cloud.
        depth_bias: Depth bias of the random control clouds.
        stage_pitch: Placement pitch between stage regions (micrometres).
        seed: Seed for the deterministic random construction.
    """

    data_width: int = 16
    mult_width: int = 6
    shift_bits: int = 4
    ctrl_regs: int = 22
    cloud_gates: int = 180
    depth_bias: float = 0.55
    stage_pitch: float = 100.0
    seed: int = 2019

    def __post_init__(self) -> None:
        check_positive("data_width", self.data_width)
        check_positive("mult_width", self.mult_width)
        check_positive("shift_bits", self.shift_bits)
        check_positive("ctrl_regs", self.ctrl_regs)
        check_positive("cloud_gates", self.cloud_gates)
        if self.mult_width > self.data_width:
            raise ValueError("mult_width cannot exceed data_width")
        if (1 << self.shift_bits) > 2 * self.data_width:
            raise ValueError("shift_bits too large for data_width")


@dataclass(slots=True)
class PipelineNetlist:
    """A generated pipeline netlist plus its logical signal map.

    Attributes:
        netlist: The underlying :class:`Netlist`.
        config: Generation parameters.
        ctrl_src: Per-stage lists of *control source* gate ids — the
            flip-flops/inputs whose values encode the instruction currently
            occupying the stage.
        data_src: Per-stage dicts of named *data source* buses — the
            flip-flops/inputs carrying operand-derived values of the
            instruction currently occupying the stage.
        capture: Per-stage dicts of named capture flip-flop buses (the
            endpoints whose DTS Algorithm 1 evaluates for that stage).
        stage_names: Stage mnemonics, one per stage (family-specific:
            the in-order core uses :data:`STAGE_NAMES`, other core
            families supply their own).
    """

    netlist: Netlist
    config: PipelineConfig
    ctrl_src: list[list[int]] = field(default_factory=list)
    data_src: list[dict[str, list[int]]] = field(default_factory=list)
    capture: list[dict[str, list[int]]] = field(default_factory=list)
    stage_names: tuple[str, ...] = STAGE_NAMES

    @property
    def num_stages(self) -> int:
        return self.netlist.num_stages

    def all_sources(self) -> list[int]:
        """All encoder-driven source gate ids, in a stable order."""
        seen: list[int] = []
        for s in range(self.num_stages):
            seen.extend(self.ctrl_src[s])
            for bus in self.data_src[s].values():
                seen.extend(bus)
        # Feedback buses may repeat across stages; keep first occurrence.
        out, have = [], set()
        for gid in seen:
            if gid not in have:
                have.add(gid)
                out.append(gid)
        return out


def _ff_column(
    netlist: Netlist,
    prefix: str,
    count: int,
    stage: int,
    kind: EndpointKind,
    x: float,
    y0: float = 4.0,
    pitch: float = 4.0,
) -> list[int]:
    return [
        netlist.add_dff(f"{prefix}{i}", None, stage, kind, x=x, y=y0 + i * pitch)
        for i in range(count)
    ]


def _or_tree(netlist: Netlist, bits: list[int], prefix: str, stage: int) -> int:
    level = list(bits)
    depth = 0
    while len(level) > 1:
        depth += 1
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(
                netlist.add_gate(
                    f"{prefix}/or_d{depth}_{i}",
                    GateType.OR2,
                    (level[i], level[i + 1]),
                    stage,
                )
            )
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _xor_tree(netlist: Netlist, bits: list[int], prefix: str, stage: int) -> int:
    level = list(bits)
    depth = 0
    while len(level) > 1:
        depth += 1
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(
                netlist.add_gate(
                    f"{prefix}/xor_d{depth}_{i}",
                    GateType.XOR2,
                    (level[i], level[i + 1]),
                    stage,
                )
            )
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _connect_cloud_to_ffs(
    netlist: Netlist,
    cloud_all: list[int],
    heads: list[int],
    ffs: list[int],
    prefix: str,
    stage: int,
    rng,
) -> None:
    """Wire cloud outputs into capture flip-flops, consuming every head.

    Surplus heads are merged pairwise with XOR gates; if there are fewer
    heads than flip-flops, additional drivers are drawn from the cloud body.
    """
    heads = list(heads)
    merged = 0
    # Balanced pairwise reduction: each round halves the surplus, keeping
    # the merge logic logarithmic in depth rather than a serial chain.
    while len(heads) > len(ffs):
        surplus = len(heads) - len(ffs)
        nxt: list[int] = []
        i = 0
        while surplus > 0 and i + 1 < len(heads):
            nxt.append(
                netlist.add_gate(
                    f"{prefix}/merge{merged}",
                    GateType.XOR2,
                    (heads[i], heads[i + 1]),
                    stage,
                )
            )
            merged += 1
            surplus -= 1
            i += 2
        nxt.extend(heads[i:])
        heads = nxt
    drivers = list(heads)
    while len(drivers) < len(ffs):
        drivers.append(cloud_all[int(rng.integers(len(cloud_all)))])
    for ff, drv in zip(ffs, drivers):
        netlist.connect_dff(ff, drv)


def generate_pipeline(config: PipelineConfig | None = None) -> PipelineNetlist:
    """Generate the synthetic 6-stage pipeline netlist.

    The construction is fully deterministic for a given ``config``.
    """
    cfg = config or PipelineConfig()
    rng = as_rng(cfg.seed)
    w = cfg.data_width
    nl = Netlist(name="ts_pipeline", num_stages=len(STAGE_NAMES))
    pitch = cfg.stage_pitch

    def sx(stage: int, frac: float) -> float:
        return stage * pitch + frac * pitch

    # ------------------------------------------------------------------ #
    # Sources created up front (feedback-friendly).
    # ------------------------------------------------------------------ #
    instr = [
        nl.add_input(f"if/instr{i}", 0, EndpointKind.CONTROL, x=sx(0, 0.02), y=4.0 + 4 * i)
        for i in range(cfg.ctrl_regs)
    ]
    pc = _ff_column(nl, "if/pc", w, 0, EndpointKind.CONTROL, x=sx(0, 0.06))
    # A gate's ``stage`` attribute is its *capture* stage: the pipeline
    # stage whose logic drives its D pin (Algorithm 1 analyzes the
    # endpoints of the stage that produces their next values).  Boundary
    # register ``ctrl_state[s]`` sources stage ``s`` but is captured by
    # stage ``s - 1``'s cloud.
    ctrl_state = [
        _ff_column(
            nl, f"{STAGE_NAMES[s].lower()}/cstate", cfg.ctrl_regs,
            max(s - 1, 0), EndpointKind.CONTROL, x=sx(s, 0.10),
        )
        for s in range(6)
    ]
    ir = _ff_column(nl, "id/ir", cfg.ctrl_regs, 0, EndpointKind.CONTROL, x=sx(1, 0.06))
    rf_a = [
        nl.add_input(f"ra/rfa{i}", 2, EndpointKind.DATA, x=sx(2, 0.02), y=4.0 + 4 * i)
        for i in range(w)
    ]
    rf_b = [
        nl.add_input(f"ra/rfb{i}", 2, EndpointKind.DATA, x=sx(2, 0.04), y=4.0 + 4 * i)
        for i in range(w)
    ]
    op_a = _ff_column(nl, "ex/opa", w, 2, EndpointKind.DATA, x=sx(3, 0.04))
    op_b = _ff_column(nl, "ex/opb", w, 2, EndpointKind.DATA, x=sx(3, 0.08))
    ex_result = _ff_column(nl, "ex/res", w, 3, EndpointKind.DATA, x=sx(3, 0.92))
    cc = _ff_column(nl, "ex/cc", 4, 3, EndpointKind.DATA, x=sx(3, 0.96))
    mem_d = [
        nl.add_input(f"me/memd{i}", 4, EndpointKind.DATA, x=sx(4, 0.02), y=4.0 + 4 * i)
        for i in range(w)
    ]
    ma = _ff_column(nl, "me/ma", w, 4, EndpointKind.DATA, x=sx(4, 0.06))
    me_result = _ff_column(nl, "me/res", w, 4, EndpointKind.DATA, x=sx(4, 0.92))
    wb_src = _ff_column(nl, "wb/src", w, 5, EndpointKind.DATA, x=sx(5, 0.04))
    wb_result = _ff_column(nl, "wb/res", w, 5, EndpointKind.DATA, x=sx(5, 0.92))

    ctrl_src: list[list[int]] = [[] for _ in range(6)]
    data_src: list[dict[str, list[int]]] = [{} for _ in range(6)]
    capture: list[dict[str, list[int]]] = [{} for _ in range(6)]

    # ------------------------------------------------------------------ #
    # Stage 0 — IF: PC incrementer + fetch-control cloud.
    # ------------------------------------------------------------------ #
    # Constant-0 for the IF arithmetic comes from a dedicated tie-low
    # input port: deriving it from a live signal (constant_zero) would
    # create false static paths launching at that signal's flip-flop.
    zero_if = nl.add_input(
        "if/tielo", 0, EndpointKind.CONTROL, x=sx(0, 0.25), y=2.0
    )
    one_if = nl.add_gate("if/tie1", GateType.NOT, (zero_if,), 0)
    stride = [one_if] + [zero_if] * (w - 1)
    pc_add = build_ripple_adder(
        nl, pc, stride, zero_if, prefix="if/pcinc", stage=0,
        origin=(sx(0, 0.3), 4.0),
    )
    pc_next = _ff_column(nl, "if/pcnext", w, 0, EndpointKind.CONTROL, x=sx(0, 0.94))
    for ff, drv in zip(pc_next, pc_add.bus("sum")):
        nl.connect_dff(ff, drv)
    # Next-PC redirect cone — the classic critical control path of a fetch
    # unit: the registered branch displacement is added to the registered
    # next-PC, the predicted target is compared against the actual PC, and
    # the resulting redirect signal crosses the die through a
    # buffer/steering chain.  Every cell sits on one single-transition
    # chain launched from registered, per-instruction-toggling values, so
    # the cone's *statically* critical paths are exactly the ones dynamic
    # activity can sensitize — it activates coherently whenever the target
    # addition rips a long carry (displacement-dependent), giving the
    # control network genuine operand-dependent near-critical DTS.
    fimm_bits = w // 2
    fetch_imm = _ff_column(
        nl, "if/fimm", fimm_bits, 0, EndpointKind.CONTROL, x=sx(0, 0.28)
    )
    for ff, drv in zip(fetch_imm, ir[:fimm_bits]):
        nl.connect_dff(ff, drv)  # displacement field of the fetched word
    sext = [fetch_imm[i] if i < fimm_bits else fetch_imm[-1] for i in range(w)]
    target_add = build_ripple_adder(
        nl,
        pc_next,
        sext,
        zero_if,
        prefix="if/target",
        stage=0,
        origin=(sx(0, 0.5), 4.0),
    )
    # The redirect signal rides the target adder's carry-out: a single
    # transition front down one chain, so a long displacement-dependent
    # carry ripple activates the whole path coherently.  Tree-shaped
    # structures (e.g. a comparator) would statically look just as slow
    # but could never be fully activated.
    redirect = target_add.signal("cout")
    for i in range(6):
        # Global redirect distribution: repeater + steering mux per hop
        # (the mux's both-data-pins wiring makes it a pure repeater that
        # still costs a mux delay — a select-stable steering stage).
        inv = nl.add_gate(f"if/rchain_n{i}", GateType.NOT, (redirect,), 0)
        redirect = nl.add_gate(
            f"if/rchain_m{i}",
            GateType.MUX2,
            (ctrl_state[0][i % cfg.ctrl_regs], inv, inv),
            0,
        )
    redirect_ff = nl.add_dff(
        "if/redirect_ff",
        redirect,
        0,
        EndpointKind.CONTROL,
        x=sx(0, 0.97),
        y=2.0,
    )
    # Predicted-target register captures the target adder's sum bits
    # (per-bit capture keeps every path a coherently-activatable chain).
    target_reg = _ff_column(
        nl, "if/targreg", w, 0, EndpointKind.CONTROL, x=sx(0, 0.95)
    )
    for ff, drv in zip(target_reg, target_add.bus("sum")):
        nl.connect_dff(ff, drv)
    # Prediction check on registered values (short, never critical).
    predict_cmp = build_comparator(
        nl, pc_next, pc, prefix="if/predict", stage=0,
        origin=(sx(0, 0.8), 4.0),
    )
    nl.add_dff(
        "if/predict_ff",
        predict_cmp.signal("eq"),
        0,
        EndpointKind.CONTROL,
        x=sx(0, 0.98),
        y=2.0,
    )
    cloud_if = build_random_cloud(
        nl, instr + pc + ctrl_state[0], cfg.cloud_gates, "if/cloud", 0,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(0, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_if.bus("all"), cloud_if.bus("heads"), ir + ctrl_state[1],
        "if/wire", 0, rng,
    )
    ctrl_src[0] = instr + ctrl_state[0]
    # The PC is value-driven (the fetch address of the instruction in IF):
    # sequential fetch increments it by one — short carry chains — while
    # taken branches jump, rippling the full incrementer.  ``fetch_imm``
    # carries the branch displacement feeding the redirect cone.
    data_src[0] = {"pc": pc, "fetch_imm": fetch_imm, "pc_next": pc_next}
    capture[0] = {
        "ir": ir,
        "pc_next": pc_next,
        "redirect": [redirect_ff],
        "cstate": ctrl_state[1],
    }

    # ------------------------------------------------------------------ #
    # Stage 1 — ID: decode cloud + immediate extraction.
    # ------------------------------------------------------------------ #
    imm_mux: list[int] = []
    for i in range(w):
        lo = ir[i % len(ir)]
        hi = ir[(i * 3 + 5) % len(ir)]
        sel = ctrl_state[1][i % len(ctrl_state[1])]
        imm_mux.append(
            nl.add_gate(f"id/immmux{i}", GateType.MUX2, (sel, lo, hi), 1)
        )
    imm = _ff_column(nl, "id/imm", w, 1, EndpointKind.DATA, x=sx(1, 0.92))
    for ff, drv in zip(imm, imm_mux):
        nl.connect_dff(ff, drv)
    cloud_id = build_random_cloud(
        nl, ir + ctrl_state[1], int(cfg.cloud_gates * 1.4), "id/cloud", 1,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(1, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_id.bus("all"), cloud_id.bus("heads"), ctrl_state[2],
        "id/wire", 1, rng,
    )
    ctrl_src[1] = ir + ctrl_state[1]
    capture[1] = {"imm": imm, "cstate": ctrl_state[2]}

    # ------------------------------------------------------------------ #
    # Stage 2 — RA: operand read with bypass network.
    # ------------------------------------------------------------------ #
    byp_a: list[int] = []
    byp_b: list[int] = []
    sel_ex = ctrl_state[2][0]
    sel_me = ctrl_state[2][1]
    sel_imm = ctrl_state[2][2]
    for i in range(w):
        m1 = nl.add_gate(
            f"ra/bypa_ex{i}", GateType.MUX2, (sel_ex, rf_a[i], ex_result[i]), 2
        )
        m2 = nl.add_gate(
            f"ra/bypa_me{i}", GateType.MUX2, (sel_me, m1, me_result[i]), 2
        )
        byp_a.append(m2)
        m3 = nl.add_gate(
            f"ra/bypb_ex{i}", GateType.MUX2, (sel_ex, rf_b[i], ex_result[i]), 2
        )
        m4 = nl.add_gate(
            f"ra/bypb_imm{i}", GateType.MUX2, (sel_imm, m3, imm[i]), 2
        )
        byp_b.append(m4)
    for ff, drv in zip(op_a, byp_a):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(op_b, byp_b):
        nl.connect_dff(ff, drv)
    cloud_ra = build_random_cloud(
        nl, ctrl_state[2], cfg.cloud_gates, "ra/cloud", 2,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(2, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_ra.bus("all"), cloud_ra.bus("heads"), ctrl_state[3],
        "ra/wire", 2, rng,
    )
    ctrl_src[2] = list(ctrl_state[2])
    data_src[2] = {"rf_a": rf_a, "rf_b": rf_b, "imm": imm}
    capture[2] = {"op_a": op_a, "op_b": op_b, "cstate": ctrl_state[3]}

    # ------------------------------------------------------------------ #
    # Stage 3 — EX: ALU (adder, logic, shifter, multiplier) + flags.
    # ------------------------------------------------------------------ #
    cst3 = ctrl_state[3]
    sub_sel = cst3[3]
    op0, op1 = cst3[4], cst3[5]
    alu_sel0, alu_sel1 = cst3[6], cst3[7]
    b_eff = [
        nl.add_gate(f"ex/bsub{i}", GateType.XOR2, (op_b[i], sub_sel), 3)
        for i in range(w)
    ]
    adder = build_ripple_adder(
        nl, op_a, b_eff, sub_sel, prefix="ex/add", stage=3,
        origin=(sx(3, 0.25), 4.0),
    )
    logic = build_logic_unit(
        nl, op_a, op_b, op0, op1, prefix="ex/log", stage=3,
        origin=(sx(3, 0.45), 4.0),
    )
    shifter = build_barrel_shifter(
        nl, op_a, op_b[: cfg.shift_bits], prefix="ex/shf", stage=3,
        origin=(sx(3, 0.6), 4.0),
    )
    mult = build_array_multiplier(
        nl,
        op_a[: cfg.mult_width],
        op_b[: cfg.mult_width],
        prefix="ex/mul",
        stage=3,
        origin=(sx(3, 0.72), 4.0),
    )
    zero_ex = constant_zero(nl, op_a[0], "ex", 3)
    prod = mult.bus("product") + [zero_ex] * (w - cfg.mult_width)
    alu_out: list[int] = []
    for i in range(w):
        m0 = nl.add_gate(
            f"ex/alum0_{i}", GateType.MUX2,
            (alu_sel0, adder.bus("sum")[i], logic.bus("out")[i]), 3,
        )
        m1 = nl.add_gate(
            f"ex/alum1_{i}", GateType.MUX2,
            (alu_sel0, shifter.bus("out")[i], prod[i]), 3,
        )
        alu_out.append(
            nl.add_gate(f"ex/aluout{i}", GateType.MUX2, (alu_sel1, m0, m1), 3)
        )
    for ff, drv in zip(ex_result, alu_out):
        nl.connect_dff(ff, drv)
    zflag = nl.add_gate(
        "ex/zflag", GateType.NOT, (_or_tree(nl, alu_out, "ex/zf", 3),), 3
    )
    nflag = nl.add_gate("ex/nflag", GateType.BUF, (alu_out[-1],), 3)
    cflag = nl.add_gate("ex/cflag", GateType.BUF, (adder.signal("cout"),), 3)
    vflag = _xor_tree(nl, alu_out[: 4], "ex/vf", 3)
    for ff, drv in zip(cc, (zflag, nflag, cflag, vflag)):
        nl.connect_dff(ff, drv)
    cloud_ex = build_random_cloud(
        nl, cst3 + cc, cfg.cloud_gates, "ex/cloud", 3,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(3, 0.2), 10.0), extent=(0.5 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_ex.bus("all"), cloud_ex.bus("heads"), ctrl_state[4],
        "ex/wire", 3, rng,
    )
    ctrl_src[3] = list(cst3)
    # ``cc`` carries the flags produced by the previous arithmetic
    # instruction (still resident in the flag register during EX).
    data_src[3] = {"op_a": op_a, "op_b": op_b, "cc": cc}
    capture[3] = {"ex_result": ex_result, "cc": cc, "cstate": ctrl_state[4]}

    # ------------------------------------------------------------------ #
    # Stage 4 — ME: load alignment + memory-result select.
    # ------------------------------------------------------------------ #
    align = build_barrel_shifter(
        nl, mem_d, ma[:2], prefix="me/align", stage=4,
        origin=(sx(4, 0.3), 4.0),
    )
    ld_sel = ctrl_state[4][0]
    me_mux = [
        nl.add_gate(
            f"me/resmux{i}", GateType.MUX2, (ld_sel, ma[i], align.bus("out")[i]), 4
        )
        for i in range(w)
    ]
    for ff, drv in zip(me_result, me_mux):
        nl.connect_dff(ff, drv)
    cloud_me = build_random_cloud(
        nl, ctrl_state[4], cfg.cloud_gates, "me/cloud", 4,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(4, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_me.bus("all"), cloud_me.bus("heads"), ctrl_state[5],
        "me/wire", 4, rng,
    )
    ctrl_src[4] = list(ctrl_state[4])
    # ``ex_result`` holds the ALU result of the instruction now in ME (it
    # was computed while that instruction occupied EX), feeding the RA
    # bypass network with genuine cross-instruction value coupling.
    data_src[4] = {"mem_d": mem_d, "ma": ma, "ex_result": ex_result}
    capture[4] = {"me_result": me_result, "cstate": ctrl_state[5]}

    # ------------------------------------------------------------------ #
    # Stage 5 — WB: write-back select + commit cloud.
    # ------------------------------------------------------------------ #
    wb_sel = ctrl_state[5][0]
    wb_mux = [
        nl.add_gate(
            f"wb/mux{i}", GateType.MUX2, (wb_sel, wb_src[i], me_result[i]), 5
        )
        for i in range(w)
    ]
    for ff, drv in zip(wb_result, wb_mux):
        nl.connect_dff(ff, drv)
    commit = _ff_column(
        nl, "wb/commit", cfg.ctrl_regs // 2, 5, EndpointKind.CONTROL, x=sx(5, 0.96)
    )
    cloud_wb = build_random_cloud(
        nl, ctrl_state[5], cfg.cloud_gates, "wb/cloud", 5,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(5, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_wb.bus("all"), cloud_wb.bus("heads"), commit, "wb/wire", 5, rng
    )
    ctrl_src[5] = list(ctrl_state[5])
    data_src[5] = {"wb_src": wb_src, "me_result": me_result}
    capture[5] = {"wb_result": wb_result, "commit": commit}

    # ------------------------------------------------------------------ #
    # State registers whose next-state logic is a plain register transfer:
    # PC <- incremented PC, memory address <- ALU result, write-back source
    # <- ALU result pipeline, fetch control state <- fetch cloud.
    # ------------------------------------------------------------------ #
    for ff, drv in zip(pc, pc_next):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(ma, ex_result):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(wb_src, ex_result):
        nl.connect_dff(ff, drv)
    cloud_if_all = cloud_if.bus("all")
    for i, ff in enumerate(ctrl_state[0]):
        nl.connect_dff(ff, cloud_if_all[int(rng.integers(len(cloud_if_all)))])

    # ------------------------------------------------------------------ #
    # Tie off loose combinational outputs (unused carry-outs etc.) into
    # per-stage observation registers so no logic dangles.
    # ------------------------------------------------------------------ #
    arr = nl.arrays()
    unloaded = np.flatnonzero(~arr.endpoint & (np.diff(arr.fanout_ptr) == 0))
    loose_by_stage: dict[int, list[int]] = {}
    for gid, s in zip(unloaded.tolist(), arr.stage[unloaded].tolist()):
        loose_by_stage.setdefault(s, []).append(gid)
    for s, loose in sorted(loose_by_stage.items()):
        head = _xor_tree(nl, loose, f"{STAGE_NAMES[s].lower()}/tieoff", s)
        nl.add_dff(
            f"{STAGE_NAMES[s].lower()}/tieoff_ff",
            head,
            s,
            EndpointKind.DATA,  # loose ends are datapath carries
            x=sx(s, 0.99),
            y=2.0,
        )

    # Final placement sweep: glue logic created without explicit
    # coordinates (muxes, trees, merges) is scattered within its stage's
    # placement region so the spatial variation model sees every gate.
    arr = nl.arrays()
    unplaced = np.flatnonzero(~arr.endpoint & (arr.xy == 0.0).all(axis=1))
    for gid, s in zip(unplaced.tolist(), arr.stage[unplaced].tolist()):
        x = sx(s, 0.15 + 0.7 * float(rng.random()))
        nl.place(gid, x, 4.0 + 90.0 * float(rng.random()))

    nl.validate()
    return PipelineNetlist(
        netlist=nl,
        config=cfg,
        ctrl_src=ctrl_src,
        data_src=data_src,
        capture=capture,
    )
