"""Ablation ``abl-graphdta`` — path-based vs graph-based DTA (related work [7]).

The related-work discussion positions graph-based DTA as more efficient
than path-based techniques but unsuited to cycle-by-cycle TS analysis with
nondeterministic (process-variation) timing models.  Both engines are
implemented here, so the trade-off is measured rather than asserted:

  * deterministic accuracy: graph propagation is exact; the path-based
    engine's top-K truncation is checked against it;
  * statistical accuracy: per-node independent Clark propagation (all a
    graph traversal can do) misestimates sigma badly on correlated paths;
  * runtime: per-cycle cost of each engine on the full pipeline.
"""

import time

import numpy as np
import pytest

from conftest import print_table
from repro._util import as_rng
from repro.dta import GraphDTSAnalyzer, StageDTSAnalyzer
from repro.logicsim import LevelizedSimulator, StageOccupancy, StimulusEncoder
from repro.netlist import generate_pipeline
from repro.variation import ProcessVariationModel
from tests._dts import stage_dts


def _random_schedule(rng, n_cycles):
    return [
        [
            StageOccupancy(
                token=int(rng.integers(1, 10_000)),
                data={
                    "op_a": int(rng.integers(1 << 16)),
                    "op_b": int(rng.integers(1 << 16)),
                    "pc": int(rng.integers(256)),
                    "pc_next": int(rng.integers(256)),
                    "fetch_imm": int(rng.integers(256)),
                },
            )
            for _ in range(6)
        ]
        for _ in range(n_cycles)
    ]


def test_accuracy_and_runtime(benchmark, processor):
    def run():
        pipeline = processor.pipeline
        nl = pipeline.netlist
        library = processor.library
        pv = processor.variation
        sim = LevelizedSimulator(nl)
        enc = StimulusEncoder(pipeline)
        rng = as_rng(11)
        activity = sim.activity(
            enc.encode_schedule(_random_schedule(rng, 24))
        )
        period = processor.clock_period

        graph = GraphDTSAnalyzer(nl, library)
        t0 = time.perf_counter()
        arrivals = graph.activated_arrivals(activity)
        graph_traces = {
            s: graph.stage_dts_trace(s, activity, period, arrivals)
            for s in range(6)
        }
        graph_seconds = time.perf_counter() - t0

        results = {}
        for k in (12, 48):
            paths = StageDTSAnalyzer(
                nl, library, pv, paths_per_endpoint=k
            )
            t0 = time.perf_counter()
            path_traces = {
                s: [
                    d.mean if d is not None else None
                    for d in stage_dts(
                        paths, s, activity, period, mode="deterministic",
                        include_safe=True,
                    )
                ]
                for s in range(6)
            }
            path_seconds = time.perf_counter() - t0
            agree = optimistic = comparisons = 0
            for s in range(6):
                for t in range(1, activity.n_cycles):
                    g, p = graph_traces[s][t], path_traces[s][t]
                    if g is None or p is None:
                        continue
                    comparisons += 1
                    if abs(p - g) < 1e-6:
                        agree += 1
                    elif p > g:
                        optimistic += 1  # top-K missed the critical path
            results[k] = {
                "comparisons": comparisons,
                "agree": agree,
                "optimistic": optimistic,
                "seconds": path_seconds,
            }
        results["graph_s"] = graph_seconds
        return results

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            f"path-based K={k}",
            out[k]["comparisons"],
            out[k]["agree"],
            out[k]["optimistic"],
            round(out[k]["seconds"], 3),
        ]
        for k in (12, 48)
    ]
    rows.append(["graph-based (exact)", "-", "-", "-", round(out["graph_s"], 3)])
    print_table(
        ["engine", "comparisons", "exact agree", "optimistic", "seconds"],
        rows,
        "ablation: path-based vs graph-based DTA",
    )
    for k in (12, 48):
        r = out[k]
        assert r["comparisons"] > 50
        # Path-based never reports a worse (lower) DTS than the oracle.
        assert r["agree"] + r["optimistic"] == r["comparisons"]
        assert r["agree"] / r["comparisons"] > 0.4
    # Deeper enumeration converges toward the graph oracle.
    assert out[48]["agree"] >= out[12]["agree"]
