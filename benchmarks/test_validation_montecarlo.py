"""Validation ``val-montecarlo`` — the brute-force baseline the paper lacked.

Section 5: "we cannot use Monte Carlo experiments because our baseline
simulator is too slow to handle large input datasets."  At reproduction
scale the brute-force path *is* feasible: sample manufactured chips, run
deterministic gate-level DTA per chip over collected execution windows,
and read each chip's error rate directly.

Checked shapes:
  * the framework's mean error rate agrees with the chip-sampled ground
    truth within a factor of 2 (the paper claims accuracy "comparable to
    low-level simulations");
  * a genuine reproduction finding: the paper's D = 2 dependency
    neighborhoods capture only *adjacent*-instruction correlation, but a
    slow chip slows every instruction at once — the measured chip-to-chip
    spread therefore exceeds the framework's error-rate SD substantially.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.core import MonteCarloValidator
from repro.pipeline.pipeline import EstimationPipeline
from repro.workloads import load_workload

BENCHMARKS = ("gsm.decode", "dijkstra")


def test_framework_vs_chip_sampling(benchmark, processor):
    def run():
        rows = {}
        estimator = EstimationPipeline(processor)
        for name in BENCHMARKS:
            workload = load_workload(name)
            setup = workload.setup(workload.dataset("small"))
            budget = workload.budget("small")
            artifacts = estimator.train(
                workload.program, setup=setup, max_instructions=budget
            )
            report = estimator.estimate(
                workload.program, artifacts, setup=setup,
                max_instructions=budget,
            )
            validator = MonteCarloValidator(
                processor, n_chips=24, windows_per_block=5
            )
            truth = validator.estimate(
                workload.program, setup=setup, max_instructions=budget
            )
            rows[name] = (report, truth)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = []
    for name, (report, truth) in rows.items():
        table.append(
            [
                name,
                round(report.error_rate_mean, 3),
                round(truth.mean_percent, 3),
                round(report.error_rate_sd, 3),
                round(truth.sd_percent, 3),
            ]
        )
    print_table(
        ["benchmark", "framework ER%", "MC ER%", "framework SD", "MC SD"],
        table,
        "validation: framework vs chip-sampling Monte Carlo",
    )
    for name, (report, truth) in rows.items():
        if truth.mean_percent > 0:
            ratio = report.error_rate_mean / truth.mean_percent
            assert 0.5 <= ratio <= 2.0, (name, ratio)
        # The D=2 limitation: chip-global correlation widens the true
        # spread beyond the framework's SD.
        assert truth.sd_percent > report.error_rate_sd, name
