"""Frozen scalar references of the DTS kernels (test-side oracles).

Each kernel in ``src/repro`` has exactly one, vectorized implementation.
The straight-line code each one replaced lives here, unchanged in
arithmetic, as the ground truth the parity tests compare against:

* ``Netlist.validate`` / ``topological_order`` / ``nominal_delays``,
  ``PathEnumerator._compute_arrivals`` / ``critical_paths``,
  ``LevelizedSimulator._build_plan`` and
  ``GraphDTSAnalyzer.activated_arrivals_multi`` -> :func:`validate` /
  :func:`topological_order` / :func:`nominal_delays`,
  :func:`compute_arrivals` / :func:`critical_paths`, :func:`build_plan`
  and :func:`activated_arrivals_multi` (walks over ``Gate`` objects,
  one gate or pin at a time; :func:`capture_endpoints` and
  :func:`fanout_lists` are the endpoint filter and fan-out cache they
  replaced);
* ``LevelizedSimulator.evaluate`` -> :func:`evaluate` (per-gate
  topological loop);
* ``StimulusEncoder.encode_schedules`` -> :func:`encode_schedules`
  (one uncached :func:`encode_cycle` per cycle: Python bit loops);
* ``StageDTSAnalyzer.ap_trace_grid`` -> :func:`ap_trace_grid` (the
  per-endpoint, per-cycle scan :func:`ap_trace`, once per period);
* ``_StagePlan.first_activated`` / ``assemble`` -> :func:`first_activated`
  / :func:`assemble` (the batched AP selection with ``(found,
  candidates)`` pairs of ``int64`` ids per ordering);
* ``StageDTSAnalyzer.combine_grid`` -> :func:`combine_grid` (the scalar
  :func:`combine` per (AP set, period) cell: every moment and
  ``path_cov`` recomputed per cell, no memo);
* ``ActivityCache.activity`` -> :func:`activity` (simulate every window);
* ``clark_max_coefficients`` -> :func:`clark_max_coefficients`
  (``scipy.stats.norm`` pdf/cdf);
* ``repro.workloads.automotive._bitcount_params`` ->
  :func:`bitcount_params` (one scalar ``rng.integers`` draw per value);
* ``InstructionErrorModel.all_block_probabilities`` /
  ``block_probabilities`` / ``_control_arrays`` ->
  :func:`all_block_probabilities` / :func:`block_probabilities` /
  :func:`control_arrays` (every block, instruction and operating point
  resampled, featurized and predicted on its own; one control lookup
  per sample);
* ``EdgeProfiler`` and its subclasses ``SimulationCollector`` and
  ``ControlSampleCollector`` -> the stand-alone classes of the same
  names, each a listener with its own block segmentation (run side by
  side with the shared ones, not patched).

The method references take ``self`` first, so :func:`reference_kernels`
can patch them over the public entry points and a whole estimation runs
end to end on the scalar code.  Patches act in this process only, which
is where the engine runs every job.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
from scipy import stats

import repro.dta.graphdta
import repro.sta.clark
import repro.sta.ssta
import repro.workloads.automotive
from repro._util import as_rng, check_in
from repro.cfg.cfg import ENTRY_EDGE, ControlFlowGraph
from repro.cfg.marginal import BlockProbabilities
from repro.cfg.profile import ProfileResult
from repro.core.collect import BlockExecutionSample
from repro.core.errormodel import _SAFE_SLACK, InstructionErrorModel
from repro.cpu.interpreter import StepRecord
from repro.dta.algorithm1 import _MODES, StageDTSAnalyzer, _StagePlan
from repro.dta.datapath import feature_matrix, record_arrays
from repro.dta.graphdta import GraphDTSAnalyzer
from repro.dta.windowpool import ActivityCache
from repro.kernels import kernel_stats
from repro.logicsim.simulator import _OPCODE, LevelizedSimulator
from repro.logicsim.stimulus import (
    StimulusEncoder,
    int_to_bits,
    mix64,
    token_bits,
)
from repro.netlist.gates import GATE_ARITY, GateType, evaluate_gate
from repro.netlist.netlist import Netlist
from repro.netlist.paths import Path, PathEnumerator
from repro.sta.clark import _EPS, _theta, clark_min_arrays
from repro.sta.gaussian import Gaussian
from repro.sta.ssta import statistical_min

__all__ = [
    "ControlSampleCollector",
    "EdgeProfiler",
    "STRUCTURE_PATCHES",
    "SimulationCollector",
    "activated_arrivals_multi",
    "activity",
    "all_block_probabilities",
    "ap_trace",
    "ap_trace_grid",
    "assemble",
    "bitcount_params",
    "block_probabilities",
    "build_plan",
    "capture_endpoints",
    "clark_max_coefficients",
    "combine",
    "combine_grid",
    "compute_arrivals",
    "control_arrays",
    "critical_paths",
    "encode_cycle",
    "encode_schedules",
    "evaluate",
    "fanout_lists",
    "first_activated",
    "nominal_delays",
    "reference_kernels",
    "topological_order",
    "validate",
]


# --------------------------------------------------------------------- #
# Netlist structure and path analysis (per-gate object walks)
# --------------------------------------------------------------------- #


def fanout_lists(netlist: Netlist) -> list[list[int]]:
    """The former ``Netlist.fanout`` cache: loads per driver, once per
    pin, skipping an unconnected flip-flop's placeholder self-loop."""
    fan: list[list[int]] = [[] for _ in range(len(netlist))]
    for g in netlist.gates:
        for i in g.inputs:
            if g.gtype == GateType.DFF and i == g.gid:
                continue
            fan[i].append(g.gid)
    return fan


def topological_order(self: Netlist) -> list[int]:
    """``Netlist.topological_order``: Kahn's algorithm over ``Gate``s."""
    gates = self.gates
    fanout = fanout_lists(self)
    indeg = {}
    for g in gates:
        if g.is_combinational:
            indeg[g.gid] = sum(1 for i in g.inputs if gates[i].is_combinational)
    ready = deque(gid for gid, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        gid = ready.popleft()
        order.append(gid)
        for out in fanout[gid]:
            if out in indeg:
                indeg[out] -= 1
                if indeg[out] == 0:
                    ready.append(out)
    if len(order) != len(indeg):
        raise ValueError("combinational fabric contains a cycle")
    return order


def validate(self: Netlist) -> None:
    """``Netlist.validate``: forward and backward reachability sets."""
    gates = self.gates
    for g in gates:
        if g.gtype == GateType.DFF and g.inputs == (g.gid,):
            raise ValueError(f"DFF {g.name!r} has an unconnected D pin")
    order = topological_order(self)
    fwd = {g.gid for g in gates if g.is_endpoint}
    for gid in order:
        if any(i in fwd for i in gates[gid].inputs):
            fwd.add(gid)
    bwd: set[int] = set()
    stack = [i for g in gates if g.gtype == GateType.DFF for i in g.inputs]
    while stack:
        gid = stack.pop()
        if gid in bwd or not gates[gid].is_combinational:
            continue
        bwd.add(gid)
        stack.extend(gates[gid].inputs)
    for g in gates:
        if g.is_combinational and (g.gid not in fwd or g.gid not in bwd):
            raise ValueError(
                f"combinational gate {g.name!r} is dangling "
                "(not on any endpoint-to-endpoint path)"
            )


def nominal_delays(self: Netlist, library) -> np.ndarray:
    """``Netlist.nominal_delays``: one library lookup per gate."""
    fanout = fanout_lists(self)
    delays = np.zeros(len(self))
    for g in self.gates:
        delays[g.gid] = library.delay(g.gtype, len(fanout[g.gid]))
    return delays


def compute_arrivals(self: PathEnumerator) -> np.ndarray:
    """``PathEnumerator._compute_arrivals``: one gate at a time."""
    n = len(self.netlist)
    arrival = np.full(n, -np.inf)
    for g in self.netlist.gates:
        if g.is_endpoint:
            arrival[g.gid] = self.delays[g.gid]
    for gid in topological_order(self.netlist):
        g = self.netlist.gate(gid)
        best = max(arrival[i] for i in g.inputs)
        arrival[gid] = best + self.delays[gid]
    return arrival


def critical_paths(self: PathEnumerator, endpoint: int, k: int = 16) -> list:
    """``PathEnumerator.critical_paths`` without the memo, reading
    ``Gate`` objects and numpy scalars."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sink = self.netlist.gate(endpoint)
    if sink.gtype != GateType.DFF:
        raise ValueError(f"gate {sink.name!r} is not a capture flip-flop")
    arrival = self._arrival
    driver = sink.inputs[0]
    results: list[Path] = []
    counter = 0
    heap = [(-arrival[driver], counter, driver, (driver,), self.delays[driver])]
    while heap and len(results) < k:
        neg_bound, _, head, partial, cost = heapq.heappop(heap)
        head_gate = self.netlist.gate(head)
        if head_gate.is_endpoint:
            results.append(Path(gates=partial, sink=endpoint, delay=-neg_bound))
            continue
        for inp in dict.fromkeys(head_gate.inputs):
            counter += 1
            new_cost = cost + self.delays[inp]
            bound = new_cost + (arrival[inp] - self.delays[inp])
            heapq.heappush(
                heap, (-bound, counter, inp, (inp,) + partial, new_cost)
            )
    return results


def capture_endpoints(netlist: Netlist, stage=None, kind=None) -> list[int]:
    """The former endpoint lists: a filter over every ``Gate``."""
    return [
        g.gid
        for g in netlist.gates
        if g.gtype == GateType.DFF
        and (stage is None or g.stage == stage)
        and (kind is None or g.endpoint_kind == kind)
    ]


def build_plan(self: LevelizedSimulator) -> list[tuple]:
    """``LevelizedSimulator._build_plan``: levels and groups per gate."""
    topo = topological_order(self.netlist)
    level = np.zeros(len(self.netlist), dtype=int)
    for gid in topo:
        gate = self.netlist.gate(gid)
        level[gid] = 1 + max((level[i] for i in gate.inputs), default=0)
    groups: dict[tuple[int, object], list[int]] = {}
    for gid in topo:
        gtype = self.netlist.gate(gid).gtype
        groups.setdefault((int(level[gid]), gtype), []).append(gid)
    plan = []
    for (_lvl, gtype), gids in sorted(
        groups.items(), key=lambda item: (item[0][0], item[0][1].value)
    ):
        ids = np.asarray(gids, dtype=int)
        fanin = np.array(
            [self.netlist.gate(g).inputs for g in gids], dtype=int
        ).reshape(len(gids), GATE_ARITY[gtype]).T
        plan.append((_OPCODE[gtype], ids, fanin))
    return plan


def activated_arrivals_multi(
    self: GraphDTSAnalyzer, activity, delays
) -> np.ndarray:
    """``GraphDTSAnalyzer.activated_arrivals_multi``: one gate and one
    input pin at a time."""
    delays = np.asarray(delays, dtype=float)
    act = activity.activated
    n_cycles, n_gates = act.shape
    neg = repro.dta.graphdta._NEG
    arr = np.full((delays.shape[0], n_cycles, n_gates), neg)
    for g in self.netlist.gates:
        if g.is_endpoint:
            arr[:, :, g.gid] = np.where(
                act[None, :, g.gid], delays[:, g.gid, None], neg
            )
    for gid in topological_order(self.netlist):
        gate = self.netlist.gate(gid)
        best = np.full((delays.shape[0], n_cycles), neg)
        for src in gate.inputs:
            np.maximum(best, arr[:, :, src], out=best)
        best = np.where(best == neg, 0.0, best)
        arr[:, :, gid] = np.where(
            act[None, :, gid], best + delays[:, gid, None], neg
        )
    return arr


# --------------------------------------------------------------------- #
# Logic simulation
# --------------------------------------------------------------------- #


def evaluate(self: LevelizedSimulator, source_values) -> np.ndarray:
    """``LevelizedSimulator.evaluate``, settling one gate at a time."""
    source_values = np.asarray(source_values, dtype=bool)
    if source_values.ndim != 2 or source_values.shape[1] != self.n_sources:
        raise ValueError(
            f"source_values must be (n_cycles, {self.n_sources}), got "
            f"{source_values.shape}"
        )
    n_cycles = source_values.shape[0]
    values = np.zeros((n_cycles, len(self.netlist)), dtype=bool)
    for col, gid in enumerate(self.source_ids):
        values[:, gid] = source_values[:, col]
    stats_ = kernel_stats()
    stats_.sim_calls += 1
    stats_.sim_cycle_gates += n_cycles * len(self._topo)
    for gid in self._topo:
        gate = self.netlist.gate(gid)
        operands = [values[:, i] for i in gate.inputs]
        values[:, gid] = evaluate_gate(gate.gtype, operands)
    return values


def encode_cycle(self: StimulusEncoder, cycle) -> np.ndarray:
    """One cycle's source row, re-encoded from scratch (the former
    ``StimulusEncoder.encode_cycle``)."""
    num_stages = self.pipeline.num_stages
    if len(cycle) != num_stages:
        raise ValueError(
            f"cycle must have {num_stages} stage entries, got {len(cycle)}"
        )
    row = np.zeros(self.n_sources, dtype=bool)
    for s, occ in enumerate(cycle):
        ctrl = self.pipeline.ctrl_src[s]
        n = len(ctrl)
        # Mix the stage index in so the same instruction produces
        # distinct (but fixed) patterns in different stages.  Half the
        # control bits encode the opcode class, a quarter the opcode,
        # and a quarter the full static instruction (see
        # StageOccupancy).
        stage_salt = mix64(s + 101)
        levels = (
            token_bits(mix64(occ.class_token ^ stage_salt), n),
            token_bits(mix64(occ.op_token ^ stage_salt), n),
            token_bits(mix64(occ.token ^ stage_salt), n),
        )
        for i, gid in enumerate(ctrl):
            level = 0 if i % 4 < 2 else (1 if i % 4 == 2 else 2)
            bit = occ.ctrl_overrides.get(i)
            row[self._source_pos[gid]] = (
                levels[level][i] if bit is None else bit
            )
        for bus_name, gids in self.pipeline.data_src[s].items():
            value = occ.data.get(bus_name, 0)
            for gid, bit in zip(gids, int_to_bits(value, len(gids))):
                row[self._source_pos[gid]] = bit
    return row


def encode_schedules(self: StimulusEncoder, schedules) -> list[np.ndarray]:
    """``StimulusEncoder.encode_schedules``, one :func:`encode_cycle` per
    cycle."""
    for schedule in schedules:
        if not schedule:
            raise ValueError("schedule must contain at least one cycle")
    return [
        np.stack([encode_cycle(self, cycle) for cycle in schedule])
        for schedule in schedules
    ]


def activity(self: ActivityCache, source_values, compute):
    """``ActivityCache.activity`` without the cache: always simulate."""
    return compute(source_values)


# --------------------------------------------------------------------- #
# Algorithm 1: AP selection and the statistical minimum
# --------------------------------------------------------------------- #


def ap_trace(
    self: StageDTSAnalyzer,
    stage: int,
    activity,
    clock_period: float,
    mode: str = "statistical",
    include_safe: bool = False,
):
    """The AP sets of every cycle at one clock period: per-endpoint
    loop, per-cycle union."""
    check_in("mode", mode, _MODES)
    n_cycles = activity.n_cycles
    result = [[] for _ in range(n_cycles)]
    threshold = clock_period - self.library.setup_time
    for ep in self._stage_endpoints[stage]:
        if not include_safe and ep.risk_metric <= threshold:
            continue
        if not ep.paths:
            continue
        # (n_paths, n_cycles) activation matrix for this endpoint.
        act = ep.activation_matrix(activity.activated).T
        orders = (
            (ep.order_nominal,)
            if mode == "deterministic"
            else (ep.order_worst, ep.order_best)
        )
        chosen = np.full((len(orders), n_cycles), -1, dtype=int)
        for oi, order in enumerate(orders):
            ordered = act[order]
            any_active = ordered.any(axis=0)
            first = ordered.argmax(axis=0)
            chosen[oi, any_active] = np.asarray(order)[first[any_active]]
        for t in range(n_cycles):
            picked = {int(i) for i in chosen[:, t] if i >= 0}
            result[t].extend(ep.paths[i] for i in sorted(picked))
    return result


def ap_trace_grid(
    self: StageDTSAnalyzer,
    stage: int,
    activity,
    clock_periods,
    mode: str = "statistical",
    include_safe: bool = False,
    picks=None,
):
    """``StageDTSAnalyzer.ap_trace_grid``: one scalar scan per period
    (``picks`` is ignored)."""
    check_in("mode", mode, _MODES)
    return [
        ap_trace(self, stage, activity, cp, mode, include_safe)
        for cp in clock_periods
    ]


def first_activated(self: _StagePlan, activated, mode: str) -> list:
    """``_StagePlan.first_activated``: per criticality ordering of
    ``mode``, ``(found, candidates)``, both ``(n_cycles,
    n_endpoints)``."""
    counts = np.add.reduceat(
        activated[:, self.gather], self.path_segments, axis=1,
        dtype=np.int16,
    )
    act = counts == self.path_lengths[None, :]
    names = (
        ("order_nominal",)
        if mode == "deterministic"
        else ("order_worst", "order_best")
    )
    first = []
    for name in names:
        ranks, order_flat = self.orders[name]
        masked = np.where(act, ranks[None, :], self.n_paths)
        min_rank = np.minimum.reduceat(masked, self.ep_offsets, axis=1)
        idx = self.ep_offsets[None, :] + np.minimum(
            min_rank, self.ep_sizes[None, :] - 1
        )
        first.append((min_rank < self.ep_sizes[None, :], order_flat[idx]))
    return first


def assemble(self: _StagePlan, first: list, mask, trace: list) -> None:
    """``_StagePlan.assemble`` over :func:`first_activated` pairs."""
    sentinel = self.n_paths
    chosen = np.concatenate(
        [
            np.where(found & mask[None, :], candidates, sentinel).T
            for found, candidates in first
        ],
        axis=0,
    )
    chosen.sort(axis=0)
    keep = chosen < sentinel
    keep[1:] &= chosen[1:] != chosen[:-1]
    for t in np.flatnonzero(keep.any(axis=0)):
        trace[t].extend(self.paths_flat[g] for g in chosen[keep[:, t], t])


def combine(
    self: StageDTSAnalyzer,
    paths,
    clock_period: float,
    mode: str = "statistical",
):
    """The stage DTS of one AP set at one clock period, recomputing every
    path moment and pairwise ``path_cov`` per call, with no memo."""
    check_in("mode", mode, _MODES)
    if not paths:
        return None
    setup = self.library.setup_time
    if mode == "deterministic":
        worst = max(p.delay for p in paths)
        return Gaussian(clock_period - worst - setup, 0.0)
    kernel_stats().combine_calls += 1
    slacks = []
    for p in paths:
        mean, var = self.variation.path_delay_moments(p.gates)
        slacks.append(Gaussian(clock_period - mean - setup, var))
    if len(slacks) == 1:
        return slacks[0]
    n = len(paths)
    kernel_stats().clark_reductions += n - 1
    cov = np.zeros((n, n))
    for i in range(n):
        cov[i, i] = slacks[i].var
        for j in range(i + 1, n):
            cov[i, j] = cov[j, i] = self.variation.path_cov(
                paths[i].gates, paths[j].gates
            )
    return statistical_min(slacks, cov)


def combine_grid(
    self: StageDTSAnalyzer,
    ap_sets,
    clock_periods,
    mode: str = "statistical",
):
    """``StageDTSAnalyzer.combine_grid``: the scalar combine per (AP set,
    period) cell."""
    check_in("mode", mode, _MODES)
    return [
        [combine(self, paths, cp, mode) for cp in clock_periods]
        for paths in ap_sets
    ]


def clark_max_coefficients(x: Gaussian, y: Gaussian, cov_xy: float):
    """``clark_max_coefficients`` through ``scipy.stats.norm``."""
    theta = _theta(x.var, y.var, cov_xy)
    if theta < _EPS:
        # X - Y is (almost) deterministic: the max is whichever has the
        # larger mean.
        if x.mean >= y.mean:
            return x, 1.0, 0.0
        return y, 0.0, 1.0
    alpha = (x.mean - y.mean) / theta
    phi = float(stats.norm.pdf(alpha))
    cphi = float(stats.norm.cdf(alpha))
    mean = x.mean * cphi + y.mean * (1.0 - cphi) + theta * phi
    second = (
        (x.var + x.mean**2) * cphi
        + (y.var + y.mean**2) * (1.0 - cphi)
        + (x.mean + y.mean) * theta * phi
    )
    var = max(second - mean**2, 0.0)
    return Gaussian(mean, var), cphi, 1.0 - cphi


# --------------------------------------------------------------------- #
# The error model
# --------------------------------------------------------------------- #


def control_arrays(
    self: InstructionErrorModel, bid: int, k: int, preds, corrected: bool
):
    """``InstructionErrorModel._control_arrays``: one lookup per sample
    of instruction ``k``."""
    means = np.empty(len(preds))
    variances = np.empty(len(preds))
    for i, pred in enumerate(preds):
        normal, corr = self.control_model.get(bid, pred, k)
        g = corr if corrected else normal
        if g is None:
            means[i] = _SAFE_SLACK
            variances[i] = 0.0
        else:
            means[i] = g.mean
            variances[i] = g.var
    return means, variances


def block_probabilities(
    self: InstructionErrorModel, bid: int, samples, n_samples: int, seed=0
) -> BlockProbabilities:
    """``InstructionErrorModel.block_probabilities``: resample, featurize
    and predict per instruction, at this operating point only."""
    if not samples:
        raise ValueError(f"block {bid} has no execution samples")
    block = self.cfg.block(bid)
    rng = as_rng(seed + bid)
    chosen = [
        samples[int(i)]
        for i in rng.integers(len(samples), size=n_samples)
    ]
    preds = [s.pred for s in chosen]
    n_i = block.size
    pc = np.empty((n_i, n_samples))
    pe = np.empty((n_i, n_samples))
    g_frac = self.processor.variation.config.global_fraction
    flushed = np.zeros(n_samples, dtype=np.int64)
    for k in range(n_i):
        ins = self.program[block.start + k]
        klass = ins.op_class
        a, b, r = record_arrays([sample.records[k] for sample in chosen])
        pa, pb, pr = record_arrays(
            [
                sample.records[k - 1] if k > 0 else sample.entry_prev
                for sample in chosen
            ]
        )
        feats_c = feature_matrix(ins, a, b, r, pa, pb, pr)
        feats_e = feature_matrix(ins, a, b, r, flushed, flushed, flushed)
        dp_mean_c, dp_sd_c = self.datapath.predict_arrival(klass, feats_c)
        dp_mean_e, dp_sd_e = self.datapath.predict_arrival(klass, feats_e)
        slack_base = self.clock_period - self.setup_time
        for corrected, dp_mean, dp_sd, out in (
            (False, dp_mean_c, dp_sd_c, pc),
            (True, dp_mean_e, dp_sd_e, pe),
        ):
            ctrl_mean, ctrl_var = self._control_arrays(
                bid, k, preds, corrected
            )
            dpm = slack_base - dp_mean
            dpv = dp_sd**2
            cov = g_frac * np.sqrt(ctrl_var) * dp_sd
            mean, var = clark_min_arrays(ctrl_mean, ctrl_var, dpm, dpv, cov)
            out[k] = self._probability(mean, var)
    return BlockProbabilities(pc=pc, pe=pe)


def all_block_probabilities(
    self: InstructionErrorModel,
    samples,
    n_samples: int = 128,
    seed=0,
    half=None,
):
    """``InstructionErrorModel.all_block_probabilities``: every block on
    its own, nothing shared across operating points (``half`` is
    ignored)."""
    return {
        bid: self.block_probabilities(bid, blk, n_samples, seed)
        for bid, blk in sorted(samples.items())
    }


# --------------------------------------------------------------------- #
# Workload data
# --------------------------------------------------------------------- #


def bitcount_params(dataset) -> dict:
    """``_bitcount_params``: the seeded ``bitcount`` inputs, one scalar
    draw per value."""
    n = 110 if dataset.scale == "small" else 2100
    rng = as_rng(dataset.seed)
    widths = rng.integers(1, 17, size=n)
    values = np.array(
        [int(rng.integers(1 << w)) for w in widths], dtype=np.int64
    )
    return {"n": n, "values": values}


# --------------------------------------------------------------------- #
# Functional-run listeners
# --------------------------------------------------------------------- #


class EdgeProfiler:
    """An interpreter listener that accumulates block/edge counts.

    Usage::

        profiler = EdgeProfiler(cfg)
        simulator.run(state, listener=profiler.listener)
        result = profiler.result()
    """

    def __init__(self, cfg: ControlFlowGraph) -> None:
        self.cfg = cfg
        n_instr = len(cfg.program)
        self._block_of = cfg.block_of_instruction
        self._is_leader = [False] * n_instr
        for b in cfg.blocks:
            self._is_leader[b.start] = True
        self._block_counts = np.zeros(len(cfg), dtype=np.int64)
        self._edge_counts: dict[tuple[int, int], int] = {}
        self._instructions = 0
        # The first executed block is entered through the virtual edge.
        self._pending_edge_source = ENTRY_EDGE
        self._started = False

    def listener(self, pc: int, a: int, b: int, r: int, next_pc: int) -> None:
        """Interpreter listener callback."""
        self._instructions += 1
        if not self._started or self._is_leader[pc]:
            if not self._started and not self._is_leader[pc]:
                raise AssertionError("execution must start at a block leader")
            bid = self._block_of[pc]
            self._block_counts[bid] += 1
            key = (self._pending_edge_source, bid)
            self._edge_counts[key] = self._edge_counts.get(key, 0) + 1
            self._started = True
        if 0 <= next_pc < len(self._is_leader) and self._is_leader[next_pc]:
            self._pending_edge_source = self._block_of[pc]

    def result(self) -> ProfileResult:
        """Snapshot of the accumulated profile."""
        return ProfileResult(
            block_counts=self._block_counts.copy(),
            edge_counts=dict(self._edge_counts),
            total_instructions=self._instructions,
        )


class SimulationCollector:
    """Interpreter listener: profile + per-block joint reservoirs.

    Args:
        cfg: The program CFG.
        reservoir_size: Max sampled executions kept per block.
        seed: Reservoir-sampling seed (deterministic collection).
    """

    def __init__(
        self, cfg: ControlFlowGraph, reservoir_size: int = 160, seed=17
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.cfg = cfg
        self.reservoir_size = reservoir_size
        self._rng = as_rng(seed)
        n_instr = len(cfg.program)
        self._is_leader = [False] * n_instr
        for b in cfg.blocks:
            self._is_leader[b.start] = True
        self._block_of = cfg.block_of_instruction
        self._block_counts = np.zeros(len(cfg), dtype=np.int64)
        self._edge_counts: dict[tuple[int, int], int] = {}
        self._instructions = 0
        self.reservoirs: dict[int, list[BlockExecutionSample]] = {}
        self._pending_pred = ENTRY_EDGE
        self._prev_record: StepRecord | None = None
        self._current: BlockExecutionSample | None = None
        self._current_bid = -1
        self._started = False

    # ------------------------------------------------------------------ #

    def listener(self, pc: int, a: int, b: int, r: int, next_pc: int) -> None:
        record = StepRecord(pc, a, b, r, next_pc)
        self._instructions += 1
        if not self._started or self._is_leader[pc]:
            self._enter_block(self._block_of[pc])
            self._started = True
        if self._current is not None:
            self._current.records.append(record)
        is_exit = (
            0 <= next_pc < len(self._is_leader) and self._is_leader[next_pc]
        ) or next_pc == pc
        if is_exit:
            self._leave_block()
            self._pending_pred = self._block_of[pc]
        self._prev_record = record

    def _enter_block(self, bid: int) -> None:
        self._block_counts[bid] += 1
        key = (self._pending_pred, bid)
        self._edge_counts[key] = self._edge_counts.get(key, 0) + 1
        self._current_bid = bid
        count = int(self._block_counts[bid])
        reservoir = self.reservoirs.setdefault(bid, [])
        if len(reservoir) < self.reservoir_size:
            slot = len(reservoir)
            reservoir.append(None)  # type: ignore[arg-type]
        else:
            j = int(self._rng.integers(count))
            if j >= self.reservoir_size:
                self._current = None
                return
            slot = j
        sample = BlockExecutionSample(
            pred=self._pending_pred,
            entry_prev=self._prev_record,
            records=[],
        )
        reservoir[slot] = sample
        self._current = sample

    def _leave_block(self) -> None:
        if self._current is not None:
            expected = self.cfg.block(self._current_bid).size
            if len(self._current.records) != expected:
                # Partial block execution (shouldn't happen with maximal
                # blocks) — drop the sample defensively.
                res = self.reservoirs[self._current_bid]
                res.remove(self._current)
        self._current = None

    # ------------------------------------------------------------------ #

    def profile(self) -> ProfileResult:
        """The profiling half of the collection."""
        return ProfileResult(
            block_counts=self._block_counts.copy(),
            edge_counts=dict(self._edge_counts),
            total_instructions=self._instructions,
        )

    def samples(self) -> dict[int, list[BlockExecutionSample]]:
        """Per-block joint execution samples (completed ones only).

        A sample is complete when it covers the whole block; an execution
        cut short by the instruction budget leaves a partial sample in the
        reservoir, which is filtered here.
        """
        out: dict[int, list[BlockExecutionSample]] = {}
        for bid, res in self.reservoirs.items():
            expected = self.cfg.block(bid).size
            complete = [
                s
                for s in res
                if s is not None and len(s.records) == expected
            ]
            if complete:
                out[bid] = complete
        return out


class ControlSampleCollector:
    """Interpreter listener capturing one execution window per CFG edge.

    For every (block, predecessor) pair, stores the block's executed
    records together with the trailing records of the path leading into it
    (the pipeline-sharing context).
    """

    def __init__(self, cfg: ControlFlowGraph, tail_length: int = 5) -> None:
        self.cfg = cfg
        self.tail_length = tail_length
        self._is_leader = [False] * len(cfg.program)
        for b in cfg.blocks:
            self._is_leader[b.start] = True
        self._block_of = cfg.block_of_instruction
        max_block = max(b.size for b in cfg.blocks)
        self._history: deque[StepRecord] = deque(
            maxlen=tail_length + max_block
        )
        self._pending_pred = ENTRY_EDGE
        self._open: dict[tuple[int, int], int] = {}
        #: (bid, pred) -> (tail records, block records)
        self.samples: dict[
            tuple[int, int], tuple[list[StepRecord], list[StepRecord]]
        ] = {}
        self._started = False

    def listener(self, pc: int, a: int, b: int, r: int, next_pc: int) -> None:
        if not self._started or self._is_leader[pc]:
            bid = self._block_of[pc]
            key = (bid, self._pending_pred)
            if key not in self.samples and key not in self._open:
                self._open[key] = len(self._history)
            self._started = True
        record = StepRecord(pc, a, b, r, next_pc)
        self._history.append(record)
        leaving = (
            0 <= next_pc < len(self._is_leader) and self._is_leader[next_pc]
        ) or next_pc == pc
        if leaving:
            self._flush_completed(pc)
            self._pending_pred = self._block_of[pc]

    def _flush_completed(self, last_pc: int) -> None:
        bid = self._block_of[last_pc]
        block = self.cfg.block(bid)
        done = [key for key in self._open if key[0] == bid]
        for key in done:
            hist = list(self._history)
            n = block.size
            block_records = hist[-n:]
            if [rec.index for rec in block_records] != list(
                block.instruction_indices()
            ):
                # Partial capture (history overflow or interrupted block).
                del self._open[key]
                continue
            tail = hist[max(0, len(hist) - n - self.tail_length) : len(hist) - n]
            self.samples[key] = (tail, block_records)
            del self._open[key]


# --------------------------------------------------------------------- #
# Whole-run switch
# --------------------------------------------------------------------- #

#: The netlist-structure share of :data:`_PATCHES`: the per-gate walks
#: over ``Gate`` objects that ``Netlist.arrays`` replaced.
STRUCTURE_PATCHES = (
    (Netlist, "topological_order", topological_order),
    (Netlist, "validate", validate),
    (Netlist, "nominal_delays", nominal_delays),
    (PathEnumerator, "_compute_arrivals", compute_arrivals),
    (PathEnumerator, "critical_paths", critical_paths),
    (LevelizedSimulator, "_build_plan", build_plan),
    (GraphDTSAnalyzer, "activated_arrivals_multi", activated_arrivals_multi),
)

#: (owner, attribute, frozen body) patched by :func:`reference_kernels`.
_PATCHES = (
    *STRUCTURE_PATCHES,
    (LevelizedSimulator, "evaluate", evaluate),
    (StimulusEncoder, "encode_schedules", encode_schedules),
    (StageDTSAnalyzer, "ap_trace_grid", ap_trace_grid),
    (_StagePlan, "first_activated", first_activated),
    (_StagePlan, "assemble", assemble),
    (StageDTSAnalyzer, "combine_grid", combine_grid),
    (ActivityCache, "activity", activity),
    # Every module that binds the scalar Clark step by name.
    (repro.sta.ssta, "clark_max_coefficients", clark_max_coefficients),
    (repro.sta.clark, "clark_max_coefficients", clark_max_coefficients),
    (repro.dta.graphdta, "clark_max_coefficients", clark_max_coefficients),
    (InstructionErrorModel, "all_block_probabilities", all_block_probabilities),
    (InstructionErrorModel, "block_probabilities", block_probabilities),
    (InstructionErrorModel, "_control_arrays", control_arrays),
    (repro.workloads.automotive, "_bitcount_params", bitcount_params),
)


@contextmanager
def reference_kernels():
    """Run the enclosed code on the frozen scalar references.

    Patches every kernel entry point with its reference body for the
    duration of the block (in this process only; see the module
    docstring for the serial settings a full run needs).
    """
    with ExitStack() as stack:
        for owner, name, body in _PATCHES:
            stack.enter_context(mock.patch.object(owner, name, body))
        yield
