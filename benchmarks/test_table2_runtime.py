"""Experiment ``table2-runtime`` — Table 2's runtime columns.

Paper: 85 minutes total for 12 programs — training (gate-level control
characterization, 3,825 s) dominating simulation (instrumented native
execution, 1,259 s), i.e. roughly a 3:1 split, with simulation running at
~4.6 M original instructions per second on a 1.36 GHz UltraSPARC.

Here: the same two-phase structure at reproduction scale.  The checked
shapes: training cost scales with characterized (block, edge) pairs, not
with dynamic instructions; and the architecture-level simulation phase
sustains >50 k instructions/s in pure Python.
"""

import time

import pytest

from conftest import print_table
from repro.pipeline.pipeline import EstimationPipeline
from repro.workloads import load_workload


def test_training_phase_runtime(benchmark, processor):
    workload = load_workload("stringsearch")  # block-rich, small dynamic
    estimator = EstimationPipeline(processor)
    _ = processor.datapath_model  # exclude the shared one-time fit

    def train():
        return estimator.train(
            workload.program,
            setup=workload.setup(workload.dataset("small")),
            max_instructions=workload.budget("small"),
        )

    artifacts = benchmark.pedantic(train, rounds=1, iterations=1)
    pairs = len({(b, p) for (b, p, _k) in artifacts.control_model.normal})
    per_pair = artifacts.training_seconds / max(pairs, 1)
    print_table(
        ["quantity", "value"],
        [
            ["characterized (block, edge) pairs", pairs],
            ["training seconds", round(artifacts.training_seconds, 2)],
            ["seconds per pair", round(per_pair, 3)],
        ],
        "Table 2 - training runtime structure",
    )
    assert pairs >= 10
    assert per_pair < 1.0  # gate-level, but once per pair only


def test_simulation_phase_throughput(benchmark, processor):
    workload = load_workload("pgp.encode")
    estimator = EstimationPipeline(processor)
    artifacts = estimator.train(
        workload.program,
        setup=workload.setup(workload.dataset("small")),
        max_instructions=workload.budget("small"),
    )

    def simulate():
        return estimator.estimate(
            workload.program,
            artifacts,
            setup=workload.setup(workload.dataset("large")),
            max_instructions=workload.budget("large"),
        )

    report = benchmark.pedantic(simulate, rounds=1, iterations=1)
    rate = report.total_instructions / report.simulation_seconds
    print_table(
        ["quantity", "paper", "measured"],
        [
            ["simulated instructions", "782,002,182", f"{report.total_instructions:,}"],
            ["simulation seconds", 170, round(report.simulation_seconds, 2)],
            ["instructions / second", "4.6M", f"{rate:,.0f}"],
        ],
        "Table 2 - simulation throughput",
    )
    assert rate > 50_000  # architecture-level, no gate-level work in the loop
