"""Ablation ``abl-dpmodel`` — the datapath timing model's regressor.

The paper's datapath model [2] must predict activated arrivals from
architecturally visible values.  The feature/arrival relation is strongly
piecewise (carry chains, shifter levels, multiplier rows), so this
reproduction defaults to a bagged regression-tree ensemble and keeps the
ridge-linear variant for comparison (related work [18] makes the same
move to tree models).  Measured: in-sample residual per opcode class and
the end-to-end error-rate shift the model choice causes.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.core import ProcessorModel
from repro.dta.datapath import DatapathTimingModel
from repro.dta.trainer import DatapathTrainer
from repro.pipeline.pipeline import EstimationPipeline
from repro.workloads import load_workload


def test_tree_vs_linear(benchmark, processor):
    def run():
        trainer = DatapathTrainer(
            processor.pipeline,
            processor.data_analyzer,
            processor.library.setup_time,
        )
        _, samples = trainer.train()
        residuals = {}
        models = {}
        for kind in ("linear", "tree"):
            model = DatapathTimingModel(kind)
            model.fit(samples)
            models[kind] = model
            residuals[kind] = {
                k.value: v for k, v in model._residual_sd.items()
            }
        # End-to-end effect on one benchmark.
        workload = load_workload("dijkstra")
        ers = {}
        for kind, model in models.items():
            proc = ProcessorModel(
                pipeline=processor.pipeline, library=processor.library
            )
            proc.__dict__["datapath_model"] = model
            proc.__dict__["ssta"] = processor.ssta
            proc.__dict__["control_analyzer"] = processor.control_analyzer
            proc.__dict__["data_analyzer"] = processor.data_analyzer
            estimator = EstimationPipeline(proc)
            artifacts = estimator.train(
                workload.program,
                setup=workload.setup(workload.dataset("small")),
                max_instructions=workload.budget("small"),
            )
            report = estimator.estimate(
                workload.program,
                artifacts,
                setup=workload.setup(workload.dataset("large")),
                max_instructions=200_000,
            )
            ers[kind] = report.error_rate_mean
        return residuals, ers

    residuals, ers = benchmark.pedantic(run, rounds=1, iterations=1)
    classes = sorted(residuals["linear"])
    print_table(
        ["class", "linear resid (ps)", "tree resid (ps)"],
        [
            [c, round(residuals["linear"][c], 1),
             round(residuals["tree"][c], 1)]
            for c in classes
        ],
        "ablation: datapath regressor residuals",
    )
    print_table(
        ["model", "dijkstra ER %"],
        [[k, round(v, 4)] for k, v in ers.items()],
        "ablation: end-to-end effect",
    )
    # The tree regressor dominates on (nearly) every class and never loses
    # badly; residual-as-variance means the looser linear fit inflates ER.
    wins = sum(
        residuals["tree"][c] <= residuals["linear"][c] * 1.05
        for c in classes
    )
    assert wins >= len(classes) - 1
    mean_improvement = np.mean(
        [
            residuals["linear"][c] / max(residuals["tree"][c], 1e-9)
            for c in classes
        ]
    )
    assert mean_improvement > 1.1
    # The regressor choice shifts the estimate measurably (model error is
    # folded into the probability tails), but both stay in a sane band.
    assert all(0.01 < v < 2.0 for v in ers.values())
    assert ers["linear"] != pytest.approx(ers["tree"], rel=0.05)
