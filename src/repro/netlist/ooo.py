"""Synthetic 8-stage speculative out-of-order (Tomasulo) pipeline netlist.

The second core family's machine: an in-order front end (fetch, decode,
rename) feeding reservation stations, out-of-order issue, a single
common data bus, and in-order commit through a reorder buffer::

    IF -> ID -> RN -> IS -> EX -> ME -> WB -> CM

Construction reuses the in-order generator's building blocks
(:mod:`repro.netlist.builders`) and follows the same conventions: each
stage pairs a random control cloud with real gate-level datapath
structures, endpoints split into control and data sets, every gate
placed for the spatial variation model, and control/data/capture signal
maps published through :class:`~repro.netlist.generator.PipelineNetlist`.

Family-specific structures replace the in-order bypass network: the
rename stage carries a map-table CAM and reorder-buffer tail pointer,
the issue stage carries CDB-tag wakeup comparators, a select chain, and
the Tomasulo operand-capture muxes (reservation-station value vs. CDB
forward), the write-back stage is the CDB broadcast with its tag match,
and the commit stage retires through head-pointer bookkeeping.  The EX
complex is the same ALU arrangement as the in-order core — its
control-select bit positions match, so the scheduler's semantic
:func:`~repro.cpu.pipeline._ex_overrides` apply unchanged.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng
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
from repro.netlist.generator import (
    PipelineConfig,
    PipelineNetlist,
    _connect_cloud_to_ffs,
    _ff_column,
    _or_tree,
    _xor_tree,
)
from repro.netlist.netlist import Netlist

__all__ = ["OOO_STAGE_NAMES", "TAG_BITS", "generate_ooo_pipeline"]

#: Stage mnemonics of the modelled Tomasulo machine.
OOO_STAGE_NAMES = ("IF", "ID", "RN", "IS", "EX", "ME", "WB", "CM")

#: Reorder-buffer tag width (pointers, CAM entries, CDB tag).
TAG_BITS = 5

#: Reservation-station entries with wakeup comparators in IS.
_RS_ENTRIES = 4

#: Map-table CAM entries in RN.
_CAM_ENTRIES = 8


def generate_ooo_pipeline(config: PipelineConfig | None = None) -> PipelineNetlist:
    """Generate the synthetic 8-stage Tomasulo pipeline netlist.

    The construction is fully deterministic for a given ``config`` (the
    same :class:`PipelineConfig` the in-order generator takes; the extra
    out-of-order structure widths are fixed module constants).
    """
    cfg = config or PipelineConfig()
    rng = as_rng(cfg.seed)
    w = cfg.data_width
    n_stages = len(OOO_STAGE_NAMES)
    nl = Netlist(name="ooo_tomasulo", num_stages=n_stages)
    pitch = cfg.stage_pitch

    def sx(stage: int, frac: float) -> float:
        return stage * pitch + frac * pitch

    def tag_slice(regs: list[int], entry: int) -> list[int]:
        """A TAG_BITS-wide slice of a control register column."""
        return [regs[(TAG_BITS * entry + k) % len(regs)] for k in range(TAG_BITS)]

    # ------------------------------------------------------------------ #
    # Sources created up front (feedback-friendly).
    # ------------------------------------------------------------------ #
    instr = [
        nl.add_input(f"if/instr{i}", 0, EndpointKind.CONTROL, x=sx(0, 0.02), y=4.0 + 4 * i)
        for i in range(cfg.ctrl_regs)
    ]
    pc = _ff_column(nl, "if/pc", w, 0, EndpointKind.CONTROL, x=sx(0, 0.06))
    # Boundary register ``ctrl_state[s]`` sources stage ``s`` but is
    # captured by stage ``s - 1``'s cloud (same convention as the
    # in-order generator: a gate's stage is its *capture* stage).
    ctrl_state = [
        _ff_column(
            nl, f"{OOO_STAGE_NAMES[s].lower()}/cstate", cfg.ctrl_regs,
            max(s - 1, 0), EndpointKind.CONTROL, x=sx(s, 0.10),
        )
        for s in range(n_stages)
    ]
    ir = _ff_column(nl, "id/ir", cfg.ctrl_regs, 0, EndpointKind.CONTROL, x=sx(1, 0.06))
    rn_tag = [
        nl.add_input(f"rn/tag{i}", 2, EndpointKind.DATA, x=sx(2, 0.02), y=4.0 + 4 * i)
        for i in range(TAG_BITS)
    ]
    rs_a = [
        nl.add_input(f"is/rsa{i}", 3, EndpointKind.DATA, x=sx(3, 0.02), y=4.0 + 4 * i)
        for i in range(w)
    ]
    rs_b = [
        nl.add_input(f"is/rsb{i}", 3, EndpointKind.DATA, x=sx(3, 0.04), y=4.0 + 4 * i)
        for i in range(w)
    ]
    op_a = _ff_column(nl, "ex/opa", w, 3, EndpointKind.DATA, x=sx(4, 0.04))
    op_b = _ff_column(nl, "ex/opb", w, 3, EndpointKind.DATA, x=sx(4, 0.08))
    ex_result = _ff_column(nl, "ex/res", w, 4, EndpointKind.DATA, x=sx(4, 0.92))
    cc = _ff_column(nl, "ex/cc", 4, 4, EndpointKind.DATA, x=sx(4, 0.96))
    mem_d = [
        nl.add_input(f"me/memd{i}", 5, EndpointKind.DATA, x=sx(5, 0.02), y=4.0 + 4 * i)
        for i in range(w)
    ]
    ma = _ff_column(nl, "me/ma", w, 5, EndpointKind.DATA, x=sx(5, 0.06))
    me_result = _ff_column(nl, "me/res", w, 5, EndpointKind.DATA, x=sx(5, 0.92))
    cdb_val = _ff_column(nl, "wb/cdbval", w, 6, EndpointKind.DATA, x=sx(6, 0.04))
    cdb_tag = _ff_column(nl, "wb/cdbtag", TAG_BITS, 6, EndpointKind.DATA, x=sx(6, 0.08))
    wb_result = _ff_column(nl, "wb/res", w, 6, EndpointKind.DATA, x=sx(6, 0.92))
    cm_val = _ff_column(nl, "cm/val", w, 7, EndpointKind.DATA, x=sx(7, 0.04))

    ctrl_src: list[list[int]] = [[] for _ in range(n_stages)]
    data_src: list[dict[str, list[int]]] = [{} for _ in range(n_stages)]
    capture: list[dict[str, list[int]]] = [{} for _ in range(n_stages)]

    # ------------------------------------------------------------------ #
    # Stage 0 — IF: PC incrementer + redirect cone + fetch cloud.
    # (Same fetch unit as the in-order core: the front end of the
    # Tomasulo machine is in-order.)
    # ------------------------------------------------------------------ #
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
    fimm_bits = w // 2
    fetch_imm = _ff_column(
        nl, "if/fimm", fimm_bits, 0, EndpointKind.CONTROL, x=sx(0, 0.28)
    )
    for ff, drv in zip(fetch_imm, ir[:fimm_bits]):
        nl.connect_dff(ff, drv)
    sext = [fetch_imm[i] if i < fimm_bits else fetch_imm[-1] for i in range(w)]
    target_add = build_ripple_adder(
        nl, pc_next, sext, zero_if, prefix="if/target", stage=0,
        origin=(sx(0, 0.5), 4.0),
    )
    # Redirect cone: carry-out of the target adder crosses the die
    # through a repeater/steering chain (see the in-order generator for
    # why this single-transition chain is the right critical structure).
    redirect = target_add.signal("cout")
    for i in range(6):
        inv = nl.add_gate(f"if/rchain_n{i}", GateType.NOT, (redirect,), 0)
        redirect = nl.add_gate(
            f"if/rchain_m{i}",
            GateType.MUX2,
            (ctrl_state[0][i % cfg.ctrl_regs], inv, inv),
            0,
        )
    redirect_ff = nl.add_dff(
        "if/redirect_ff", redirect, 0, EndpointKind.CONTROL,
        x=sx(0, 0.97), y=2.0,
    )
    target_reg = _ff_column(
        nl, "if/targreg", w, 0, EndpointKind.CONTROL, x=sx(0, 0.95)
    )
    for ff, drv in zip(target_reg, target_add.bus("sum")):
        nl.connect_dff(ff, drv)
    predict_cmp = build_comparator(
        nl, pc_next, pc, prefix="if/predict", stage=0,
        origin=(sx(0, 0.8), 4.0),
    )
    nl.add_dff(
        "if/predict_ff", predict_cmp.signal("eq"), 0, EndpointKind.CONTROL,
        x=sx(0, 0.98), y=2.0,
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
    # Stage 2 — RN: rename — map-table CAM + ROB tail allocation.
    # ------------------------------------------------------------------ #
    zero_rn = constant_zero(nl, ctrl_state[2][0], "rn", 2)
    one_rn = nl.add_gate("rn/tie1", GateType.NOT, (zero_rn,), 2)
    rob_tail = _ff_column(
        nl, "rn/tail", TAG_BITS, 2, EndpointKind.CONTROL, x=sx(2, 0.90)
    )
    tail_inc = build_ripple_adder(
        nl, rob_tail, [one_rn] + [zero_rn] * (TAG_BITS - 1), zero_rn,
        prefix="rn/tinc", stage=2, origin=(sx(2, 0.7), 4.0),
    )
    for ff, drv in zip(rob_tail, tail_inc.bus("sum")):
        nl.connect_dff(ff, drv)
    # Map-table CAM: the incoming tag is matched against every mapping
    # entry; the hit reduction feeds the rename-valid flop.
    cam_hits: list[int] = []
    for j in range(_CAM_ENTRIES):
        cmp_j = build_comparator(
            nl, rn_tag, tag_slice(ctrl_state[2], j),
            prefix=f"rn/cam{j}", stage=2,
            origin=(sx(2, 0.3 + 0.05 * j), 4.0),
        )
        cam_hits.append(cmp_j.signal("eq"))
    rn_hit_ff = nl.add_dff(
        "rn/hit_ff", _or_tree(nl, cam_hits, "rn/hit", 2), 2,
        EndpointKind.CONTROL, x=sx(2, 0.97), y=2.0,
    )
    cloud_rn = build_random_cloud(
        nl, ctrl_state[2], cfg.cloud_gates, "rn/cloud", 2,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(2, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_rn.bus("all"), cloud_rn.bus("heads"), ctrl_state[3],
        "rn/wire", 2, rng,
    )
    ctrl_src[2] = list(ctrl_state[2])
    data_src[2] = {"rn_tag": rn_tag}
    capture[2] = {
        "rob_tail": rob_tail,
        "rn_hit": [rn_hit_ff],
        "cstate": ctrl_state[3],
    }

    # ------------------------------------------------------------------ #
    # Stage 3 — IS: wakeup comparators + select chain + operand capture.
    # ------------------------------------------------------------------ #
    cst3 = ctrl_state[3]
    # Wakeup: the broadcast CDB tag is compared against every
    # reservation-station entry tag; any match wakes the entry.
    wake_eqs: list[int] = []
    for j in range(_RS_ENTRIES):
        cmp_j = build_comparator(
            nl, cdb_tag, tag_slice(cst3, j),
            prefix=f"is/wake{j}", stage=3,
            origin=(sx(3, 0.3 + 0.06 * j), 4.0),
        )
        wake_eqs.append(cmp_j.signal("eq"))
    grant = _or_tree(nl, wake_eqs, "is/grant", 3)
    # Select: oldest-first priority steering chain (repeater + mux per
    # entry, the same select-stable steering structure as the redirect
    # cone — a coherently-activatable single-transition chain).
    select = grant
    for j in range(_RS_ENTRIES):
        inv = nl.add_gate(f"is/schain_n{j}", GateType.NOT, (select,), 3)
        select = nl.add_gate(
            f"is/schain_m{j}",
            GateType.MUX2,
            (cst3[j % len(cst3)], inv, inv),
            3,
        )
    select_ff = nl.add_dff(
        "is/select_ff", select, 3, EndpointKind.CONTROL,
        x=sx(3, 0.97), y=2.0,
    )
    # Tomasulo operand capture: each operand comes either from the
    # reservation station's captured value or forwarded off the CDB.
    fwd_a = cst3[1]
    fwd_b = cst3[2]
    for i in range(w):
        cap_a = nl.add_gate(
            f"is/capa{i}", GateType.MUX2, (fwd_a, rs_a[i], cdb_val[i]), 3
        )
        nl.connect_dff(op_a[i], cap_a)
        cap_b = nl.add_gate(
            f"is/capb{i}", GateType.MUX2, (fwd_b, rs_b[i], cdb_val[i]), 3
        )
        nl.connect_dff(op_b[i], cap_b)
    cloud_is = build_random_cloud(
        nl, cst3, cfg.cloud_gates, "is/cloud", 3,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(3, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_is.bus("all"), cloud_is.bus("heads"), ctrl_state[4],
        "is/wire", 3, rng,
    )
    ctrl_src[3] = list(cst3)
    data_src[3] = {"rs_a": rs_a, "rs_b": rs_b}
    capture[3] = {
        "op_a": op_a,
        "op_b": op_b,
        "select": [select_ff],
        "cstate": ctrl_state[4],
    }

    # ------------------------------------------------------------------ #
    # Stage 4 — EX: ALU (adder, logic, shifter, multiplier) + flags.
    # Control-select bit positions match the in-order EX stage so the
    # scheduler's semantic overrides (bits 3..7) transfer unchanged.
    # ------------------------------------------------------------------ #
    cst4 = ctrl_state[4]
    sub_sel = cst4[3]
    op0, op1 = cst4[4], cst4[5]
    alu_sel0, alu_sel1 = cst4[6], cst4[7]
    b_eff = [
        nl.add_gate(f"ex/bsub{i}", GateType.XOR2, (op_b[i], sub_sel), 4)
        for i in range(w)
    ]
    adder = build_ripple_adder(
        nl, op_a, b_eff, sub_sel, prefix="ex/add", stage=4,
        origin=(sx(4, 0.25), 4.0),
    )
    logic = build_logic_unit(
        nl, op_a, op_b, op0, op1, prefix="ex/log", stage=4,
        origin=(sx(4, 0.45), 4.0),
    )
    shifter = build_barrel_shifter(
        nl, op_a, op_b[: cfg.shift_bits], prefix="ex/shf", stage=4,
        origin=(sx(4, 0.6), 4.0),
    )
    mult = build_array_multiplier(
        nl,
        op_a[: cfg.mult_width],
        op_b[: cfg.mult_width],
        prefix="ex/mul",
        stage=4,
        origin=(sx(4, 0.72), 4.0),
    )
    zero_ex = constant_zero(nl, op_a[0], "ex", 4)
    prod = mult.bus("product") + [zero_ex] * (w - cfg.mult_width)
    alu_out: list[int] = []
    for i in range(w):
        m0 = nl.add_gate(
            f"ex/alum0_{i}", GateType.MUX2,
            (alu_sel0, adder.bus("sum")[i], logic.bus("out")[i]), 4,
        )
        m1 = nl.add_gate(
            f"ex/alum1_{i}", GateType.MUX2,
            (alu_sel0, shifter.bus("out")[i], prod[i]), 4,
        )
        alu_out.append(
            nl.add_gate(f"ex/aluout{i}", GateType.MUX2, (alu_sel1, m0, m1), 4)
        )
    for ff, drv in zip(ex_result, alu_out):
        nl.connect_dff(ff, drv)
    zflag = nl.add_gate(
        "ex/zflag", GateType.NOT, (_or_tree(nl, alu_out, "ex/zf", 4),), 4
    )
    nflag = nl.add_gate("ex/nflag", GateType.BUF, (alu_out[-1],), 4)
    cflag = nl.add_gate("ex/cflag", GateType.BUF, (adder.signal("cout"),), 4)
    vflag = _xor_tree(nl, alu_out[:4], "ex/vf", 4)
    for ff, drv in zip(cc, (zflag, nflag, cflag, vflag)):
        nl.connect_dff(ff, drv)
    cloud_ex = build_random_cloud(
        nl, cst4 + cc, cfg.cloud_gates, "ex/cloud", 4,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(4, 0.2), 10.0), extent=(0.5 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_ex.bus("all"), cloud_ex.bus("heads"), ctrl_state[5],
        "ex/wire", 4, rng,
    )
    ctrl_src[4] = list(cst4)
    data_src[4] = {"op_a": op_a, "op_b": op_b, "cc": cc}
    capture[4] = {"ex_result": ex_result, "cc": cc, "cstate": ctrl_state[5]}

    # ------------------------------------------------------------------ #
    # Stage 5 — ME: load alignment + memory-result select.
    # ------------------------------------------------------------------ #
    align = build_barrel_shifter(
        nl, mem_d, ma[:2], prefix="me/align", stage=5,
        origin=(sx(5, 0.3), 4.0),
    )
    ld_sel = ctrl_state[5][0]
    me_mux = [
        nl.add_gate(
            f"me/resmux{i}", GateType.MUX2, (ld_sel, ma[i], align.bus("out")[i]), 5
        )
        for i in range(w)
    ]
    for ff, drv in zip(me_result, me_mux):
        nl.connect_dff(ff, drv)
    cloud_me = build_random_cloud(
        nl, ctrl_state[5], cfg.cloud_gates, "me/cloud", 5,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(5, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_me.bus("all"), cloud_me.bus("heads"), ctrl_state[6],
        "me/wire", 5, rng,
    )
    ctrl_src[5] = list(ctrl_state[5])
    data_src[5] = {"mem_d": mem_d, "ma": ma, "ex_result": ex_result}
    capture[5] = {"me_result": me_result, "cstate": ctrl_state[6]}

    # ------------------------------------------------------------------ #
    # Stage 6 — WB: CDB broadcast — result select + tag match.
    # ------------------------------------------------------------------ #
    wb_sel = ctrl_state[6][0]
    wb_mux = [
        nl.add_gate(
            f"wb/mux{i}", GateType.MUX2, (wb_sel, cdb_val[i], me_result[i]), 6
        )
        for i in range(w)
    ]
    for ff, drv in zip(wb_result, wb_mux):
        nl.connect_dff(ff, drv)
    match_cmp = build_comparator(
        nl, cdb_tag, tag_slice(ctrl_state[6], 1),
        prefix="wb/match", stage=6, origin=(sx(6, 0.6), 4.0),
    )
    match_ff = nl.add_dff(
        "wb/match_ff", match_cmp.signal("eq"), 6, EndpointKind.CONTROL,
        x=sx(6, 0.97), y=2.0,
    )
    cloud_wb = build_random_cloud(
        nl, ctrl_state[6], cfg.cloud_gates, "wb/cloud", 6,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(6, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_wb.bus("all"), cloud_wb.bus("heads"), ctrl_state[7],
        "wb/wire", 6, rng,
    )
    ctrl_src[6] = list(ctrl_state[6])
    data_src[6] = {"cdb_val": cdb_val, "cdb_tag": cdb_tag}
    capture[6] = {
        "wb_result": wb_result,
        "cdb_match": [match_ff],
        "cstate": ctrl_state[7],
    }

    # ------------------------------------------------------------------ #
    # Stage 7 — CM: in-order retirement — head pointer + commit select.
    # ------------------------------------------------------------------ #
    zero_cm = constant_zero(nl, ctrl_state[7][0], "cm", 7)
    one_cm = nl.add_gate("cm/tie1", GateType.NOT, (zero_cm,), 7)
    rob_head = _ff_column(
        nl, "cm/head", TAG_BITS, 7, EndpointKind.CONTROL, x=sx(7, 0.90)
    )
    head_inc = build_ripple_adder(
        nl, rob_head, [one_cm] + [zero_cm] * (TAG_BITS - 1), zero_cm,
        prefix="cm/hinc", stage=7, origin=(sx(7, 0.6), 4.0),
    )
    for ff, drv in zip(rob_head, head_inc.bus("sum")):
        nl.connect_dff(ff, drv)
    empty_cmp = build_comparator(
        nl, rob_head, rob_tail, prefix="cm/empty", stage=7,
        origin=(sx(7, 0.7), 4.0),
    )
    empty_ff = nl.add_dff(
        "cm/empty_ff", empty_cmp.signal("eq"), 7, EndpointKind.CONTROL,
        x=sx(7, 0.97), y=2.0,
    )
    cm_sel = ctrl_state[7][0]
    retire_mux = [
        nl.add_gate(
            f"cm/mux{i}", GateType.MUX2, (cm_sel, cm_val[i], wb_result[i]), 7
        )
        for i in range(w)
    ]
    retire = _ff_column(nl, "cm/ret", w, 7, EndpointKind.DATA, x=sx(7, 0.92))
    for ff, drv in zip(retire, retire_mux):
        nl.connect_dff(ff, drv)
    commit = _ff_column(
        nl, "cm/commit", cfg.ctrl_regs // 2, 7, EndpointKind.CONTROL,
        x=sx(7, 0.96),
    )
    cloud_cm = build_random_cloud(
        nl, ctrl_state[7], cfg.cloud_gates, "cm/cloud", 7,
        depth_bias=cfg.depth_bias, seed=int(rng.integers(2**31)),
        origin=(sx(7, 0.2), 10.0), extent=(0.6 * pitch, 80.0),
    )
    _connect_cloud_to_ffs(
        nl, cloud_cm.bus("all"), cloud_cm.bus("heads"), commit, "cm/wire", 7, rng
    )
    ctrl_src[7] = list(ctrl_state[7])
    data_src[7] = {"cm_val": cm_val}
    capture[7] = {"retire": retire, "empty": [empty_ff], "commit": commit}

    # ------------------------------------------------------------------ #
    # Plain register transfers: PC <- incremented PC, memory address and
    # CDB value <- ALU result, CDB tag <- allocated ROB tag, commit value
    # <- broadcast result, fetch control state <- fetch cloud.
    # ------------------------------------------------------------------ #
    for ff, drv in zip(pc, pc_next):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(ma, ex_result):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(cdb_val, ex_result):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(cdb_tag, rob_tail):
        nl.connect_dff(ff, drv)
    for ff, drv in zip(cm_val, wb_result):
        nl.connect_dff(ff, drv)
    cloud_if_all = cloud_if.bus("all")
    for i, ff in enumerate(ctrl_state[0]):
        nl.connect_dff(ff, cloud_if_all[int(rng.integers(len(cloud_if_all)))])

    # ------------------------------------------------------------------ #
    # Tie off loose combinational outputs into per-stage observation
    # registers so no logic dangles (unused carry-outs, cloud spillover).
    # ------------------------------------------------------------------ #
    arr = nl.arrays()
    unloaded = np.flatnonzero(~arr.endpoint & (np.diff(arr.fanout_ptr) == 0))
    loose_by_stage: dict[int, list[int]] = {}
    for gid, s in zip(unloaded.tolist(), arr.stage[unloaded].tolist()):
        loose_by_stage.setdefault(s, []).append(gid)
    for s, loose in sorted(loose_by_stage.items()):
        head = _xor_tree(nl, loose, f"{OOO_STAGE_NAMES[s].lower()}/tieoff", s)
        nl.add_dff(
            f"{OOO_STAGE_NAMES[s].lower()}/tieoff_ff",
            head,
            s,
            EndpointKind.DATA,
            x=sx(s, 0.99),
            y=2.0,
        )

    # Placement sweep for glue logic created without coordinates.
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
        stage_names=OOO_STAGE_NAMES,
    )
