"""Frozen scalar references of the DTS kernels (test-side oracles).

Each kernel in ``src/repro`` has exactly one, vectorized implementation.
The straight-line code each one replaced lives here, unchanged in
arithmetic, as the ground truth the parity tests compare against:

* ``LevelizedSimulator.evaluate`` -> :func:`evaluate` (per-gate
  topological loop);
* ``StimulusEncoder.encode_cycle`` -> :func:`encode_cycle` (uncached
  re-encode);
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
  per sample).

The method references take ``self`` first, so :func:`reference_kernels`
can patch them over the public entry points and a whole estimation runs
end to end on the scalar code.  Patches act in this process only, which
is where the engine runs every job.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
from scipy import stats

import repro.dta.graphdta
import repro.sta.clark
import repro.sta.ssta
import repro.workloads.automotive
from repro._util import as_rng, check_in
from repro.cfg.marginal import BlockProbabilities
from repro.core.errormodel import _SAFE_SLACK, InstructionErrorModel
from repro.dta.algorithm1 import _MODES, StageDTSAnalyzer, _StagePlan
from repro.dta.datapath import feature_matrix, record_arrays
from repro.dta.windowpool import ActivityCache
from repro.kernels import kernel_stats
from repro.logicsim.simulator import LevelizedSimulator
from repro.logicsim.stimulus import (
    StimulusEncoder,
    int_to_bits,
    mix64,
    token_bits,
)
from repro.netlist.gates import evaluate_gate
from repro.sta.clark import _EPS, _theta, clark_min_arrays
from repro.sta.gaussian import Gaussian
from repro.sta.ssta import statistical_min

__all__ = [
    "activity",
    "all_block_probabilities",
    "ap_trace",
    "ap_trace_grid",
    "assemble",
    "bitcount_params",
    "block_probabilities",
    "clark_max_coefficients",
    "combine",
    "combine_grid",
    "control_arrays",
    "encode_cycle",
    "evaluate",
    "first_activated",
    "reference_kernels",
]


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
    for gid, col in self._source_pos.items():
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
    """``StimulusEncoder.encode_cycle``, re-encoding from scratch."""
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
# Whole-run switch
# --------------------------------------------------------------------- #

#: (owner, attribute, frozen body) patched by :func:`reference_kernels`.
_PATCHES = (
    (LevelizedSimulator, "evaluate", evaluate),
    (StimulusEncoder, "encode_cycle", encode_cycle),
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
