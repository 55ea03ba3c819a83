"""Ablation ``abl-twopass`` — the two-pass percentile critical-path scan.

Under SSTA the most critical *activated* path is ambiguous: the paper runs
Algorithm 1's scan twice, ordering by worst-case (1st percentile) slack
and by best-case (99th percentile) slack, and keeps the union (Section 3).
This ablation builds endpoints whose slack ordering flips between the
percentiles (a long low-variance path vs a shorter high-variance one) and
measures the stage-DTS error of each single-pass variant against
chip-sampled ground truth.
"""

import numpy as np
import pytest

from conftest import print_table
from repro._util import as_rng
from repro.dta.algorithm1 import StageDTSAnalyzer
from repro.logicsim import LevelizedSimulator
from repro.netlist import EndpointKind, GateType, Netlist, TimingLibrary
from repro.variation import ProcessVariationModel, VariationConfig


def _flip_netlist():
    """Two activatable paths whose criticality order is percentile-dependent.

    The *longer* chain is spread across the die (its gate variations
    decorrelate, so the path sigma grows only as sqrt(n)) while the
    *shorter* chain is tightly placed (fully correlated variations add
    linearly, giving a much larger sigma).  The long chain wins on mean
    and on best-case (99th percentile) slack; the short, high-sigma chain
    wins on worst-case (1st percentile) slack.
    """
    nl = Netlist("flip", num_stages=1)
    a = nl.add_input("a", 0, EndpointKind.CONTROL, x=0.0, y=0.0)
    b = nl.add_input("b", 0, EndpointKind.CONTROL, x=700.0, y=0.0)
    long = a
    for i in range(9):
        long = nl.add_gate(
            f"l{i}", GateType.BUF, (long,), 0, x=2.0 + 77.0 * i, y=60.0 * (i % 2)
        )
    short = b
    for i in range(7):
        short = nl.add_gate(
            f"s{i}", GateType.BUF, (short,), 0, x=700.0 + 0.3 * i, y=0.0
        )
    out = nl.add_gate("or", GateType.OR2, (long, short), 0, x=710.0, y=10.0)
    nl.add_dff("ff", out, 0, EndpointKind.CONTROL, x=711.0, y=10.0)
    return nl


def _ground_truth(nl, lib, pv, paths, period, n_chips=4000):
    chips = pv.sample_chips(n_chips, as_rng(5))
    slacks = np.stack(
        [
            period - chips[:, list(p.gates)].sum(axis=1) - lib.setup_time
            for p in paths
        ]
    )
    m = slacks.min(axis=0)
    return float(m.mean()), float(m.std())


def test_two_pass_vs_single_pass(benchmark):
    def run():
        nl = _flip_netlist()
        lib = TimingLibrary()
        pv = ProcessVariationModel(
            nl,
            lib,
            VariationConfig(
                global_fraction=0.02,
                spatial_fraction=0.88,
                random_fraction=0.10,
                correlation_length=40.0,
                sigma_scale=6.0,
            ),
        )
        an = StageDTSAnalyzer(nl, lib, pv, paths_per_endpoint=16)
        sim = LevelizedSimulator(nl)
        # Toggle both inputs: both paths activated.
        src = np.array([[0, 0, 0], [1, 1, 0]], dtype=bool)
        activity = sim.activity(src)
        period = 400.0
        (aps,) = an.ap_trace_grid(0, activity, [period], include_safe=True)
        paths = aps[1]
        ((two_pass,),) = an.combine_grid([paths], [period])
        truth = _ground_truth(nl, lib, pv, paths, period)

        # Single-pass variants: first activated path by one ordering only.
        ep = an._stage_endpoints[0][0]
        act = ep.activation_matrix(activity.activated)[1]
        results = {"two-pass": two_pass}
        for label, order in (
            ("worst-only", ep.order_worst),
            ("best-only", ep.order_best),
        ):
            first = next(int(i) for i in order if act[i])
            ((results[label],),) = an.combine_grid(
                [[ep.paths[first]]], [period]
            )
        return results, truth

    results, truth = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [["chip-sampled truth", round(truth[0], 1), round(truth[1], 1)]]
    errs = {}
    for label, g in results.items():
        rows.append([label, round(g.mean, 1), round(g.std, 1)])
        errs[label] = abs(g.mean - truth[0]) + abs(g.std - truth[1])
    print_table(
        ["variant", "DTS mean (ps)", "DTS sd (ps)"],
        rows,
        "ablation: two-pass percentile scan",
    )
    # The union never does worse than the worse single pass, and at least
    # one single-pass variant is strictly worse (it misses a path that the
    # other percentile ordering would have caught).
    assert errs["two-pass"] <= min(errs["worst-only"], errs["best-only"]) + 1e-6
    assert max(errs.values()) > errs["two-pass"] + 1.0
