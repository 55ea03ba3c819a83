"""Experiment ``kernels`` — speedups of the vectorized DTS kernel layer.

Measures the vectorized kernels against the frozen scalar references of
``tests/_reference.py`` (the pre-kernel per-gate / per-pair / per-call
code paths) and writes the numbers to ``BENCH_kernels.json`` at the
repository root so regressions are measured, not asserted:

* end-to-end: one characterize+estimate job on the reduced pipeline,
  kernels vs. :func:`~tests._reference.reference_kernels`, including
  processor construction;
* micro: batched logic simulation vs. the per-gate loop, one
  ``combine_grid`` call over a repeated AP set (memo hits) vs. one call
  per repeat with the memo cleared before each, blocked
  ``path_cov_matrix`` vs. the pairwise ``path_cov`` loop, and datapath
  training's AP unions reduced by one ``combine_grid`` call vs. one call
  per set, and the datapath model's 8 classes x 7 bagged trees on the
  default training set grown as one level-wise forest vs. the frozen
  node-by-node recursion, one tree at a time.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -q``.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import nullcontext
from unittest import mock

import numpy as np

from conftest import print_table
import repro.dta.regression
from repro import kernel_stats
from repro.dta.algorithm1 import StageDTSAnalyzer
from repro.dta.regression import BaggedTrees, fit_bagged
from repro.dta.trainer import _T_REF, DatapathTrainer
from repro.logicsim.simulator import LevelizedSimulator
from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline
from repro.runner import ProcessorConfig
from repro.workloads import load_workload
from tests import _reference

#: Single canonical output location — CI uploads the repo-root file.
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Reduced pipeline (same shape the engine test-suite uses) so the bench
#: finishes in seconds while still exercising every kernel.
SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)
TRAIN_INSTRUCTIONS = 4_000
MAX_INSTRUCTIONS = 6_000


def _single_job(reference: bool = False):
    """One full characterize+estimate job on a fresh processor.

    ``reference=True`` runs it on the frozen scalar references, which
    only patch this process.
    """
    from repro.pipeline.pipeline import EstimationPipeline

    with _reference.reference_kernels() if reference else nullcontext():
        before = kernel_stats().snapshot()
        t0 = time.perf_counter()
        processor = SMALL.build()
        estimator = EstimationPipeline(processor, n_data_samples=32)
        workload = load_workload("bitcount")
        program, train_setup, _ = workload.run_spec("small", seed=0)
        artifacts = estimator.train(
            program, setup=train_setup, max_instructions=TRAIN_INSTRUCTIONS
        )
        _, eval_setup, _ = workload.run_spec("large", seed=0)
        report = estimator.estimate(
            program,
            artifacts,
            setup=eval_setup,
            max_instructions=MAX_INSTRUCTIONS,
            seed=0,
        )
        elapsed = time.perf_counter() - t0
        stats = kernel_stats().delta(before)
    return elapsed, report, stats


def _bench_logic_sim(pipe, rng):
    sim = LevelizedSimulator(pipe.netlist)
    sources = rng.random((512, sim.n_sources)) < 0.5
    t0 = time.perf_counter()
    reference = _reference.evaluate(sim, sources)
    per_gate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = sim.evaluate(sources)
    batched_s = time.perf_counter() - t0
    assert np.array_equal(reference, batched)
    return {
        "cycles": int(sources.shape[0]),
        "gates": len(pipe.netlist),
        "per_gate_s": round(per_gate_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(per_gate_s / batched_s, 2),
    }


def _bench_combine(pipe):
    analyzer = StageDTSAnalyzer(pipe.netlist, TimingLibrary())
    ep = max(
        (ep for eps in analyzer._stage_endpoints.values() for ep in eps),
        key=lambda ep: len(ep.paths),
    )
    paths = list(ep.paths)
    period = max(p.delay for p in paths) * 1.02
    repeats = 200
    t0 = time.perf_counter()
    for _ in range(repeats):
        analyzer._combine_memo.clear()
        ((direct,),) = analyzer.combine_grid([paths], [period])
    direct_s = time.perf_counter() - t0
    analyzer._combine_memo.clear()
    t0 = time.perf_counter()
    memoized = analyzer.combine_grid([paths] * repeats, [period])
    memo_s = time.perf_counter() - t0
    # Bitwise: the memo must not change the result.
    assert memoized == [[direct]] * repeats
    return {
        "ap_size": len(paths),
        "repeats": repeats,
        "direct_s": round(direct_s, 4),
        "memoized_s": round(memo_s, 4),
        "speedup": round(direct_s / memo_s, 2),
    }


def _bench_path_cov(pipe):
    from repro.netlist.paths import PathEnumerator
    from repro.variation import ProcessVariationModel

    lib = TimingLibrary()
    variation = ProcessVariationModel(pipe.netlist, lib)
    enum = PathEnumerator(pipe.netlist, pipe.netlist.nominal_delays(lib))
    paths = []
    for g in pipe.netlist.gates:
        if g.is_endpoint and g.inputs:
            paths.extend(enum.critical_paths(g.gid, k=4))
        if len(paths) >= 48:
            break
    seqs = [p.gates for p in paths]
    t0 = time.perf_counter()
    blocked = variation.path_cov_matrix(seqs)
    blocked_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pairwise = np.array(
        [[variation.path_cov(a, b) for b in seqs] for a in seqs]
    )
    pairwise_s = time.perf_counter() - t0
    assert np.allclose(blocked, pairwise, rtol=1e-9)
    return {
        "paths": len(seqs),
        "pairwise_s": round(pairwise_s, 4),
        "blocked_s": round(blocked_s, 4),
        "speedup": round(pairwise_s / blocked_s, 2),
    }


def _bench_training_combine():
    """Datapath training's AP unions, replayed on fresh analyzers: one
    ``combine_grid`` call (one covariance fill, one ragged Clark chain)
    vs. one call per set."""
    processor = SMALL.build()
    stage = processor.data_analyzer.stage_analyzer
    ap_sets = []
    combine_grid = stage.combine_grid
    stage.combine_grid = lambda sets, *args: (
        ap_sets.extend(sets) or combine_grid(sets, *args)
    )
    processor.datapath_model

    def fresh():
        return StageDTSAnalyzer(
            processor.pipeline.netlist,
            processor.library,
            processor.variation,
            paths_per_endpoint=stage.paths_per_endpoint,
            endpoint_kind=stage.endpoint_kind,
            enumerator=processor.enumerator,
        )

    batched_s = scalar_s = float("inf")
    for _ in range(3):
        analyzer = fresh()
        t0 = time.perf_counter()
        batched = analyzer.combine_grid(ap_sets, [_T_REF])
        batched_s = min(batched_s, time.perf_counter() - t0)
        analyzer = fresh()
        t0 = time.perf_counter()
        scalar = [analyzer.combine_grid([ap], [_T_REF])[0] for ap in ap_sets]
        scalar_s = min(scalar_s, time.perf_counter() - t0)
        assert batched == scalar  # bitwise
    return {
        "ap_sets": len(ap_sets),
        "scalar_s": round(scalar_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(scalar_s / batched_s, 2),
    }


def _bench_forest_fit():
    """The datapath model's bagged trees on the default processor's
    default training set (8 classes x 48 samples, 7 trees each): one
    level-wise ``fit_bagged`` vs. the frozen recursion per tree."""
    processor = ProcessorConfig().build()
    _, samples = DatapathTrainer(
        processor.pipeline,
        processor.data_analyzer,
        processor.library.setup_time,
        processor.logic_simulator,
        processor.stimulus_encoder,
        scheduler_factory=processor.core_family.make_scheduler,
    ).train()
    by_class = {}
    for sample in samples:
        by_class.setdefault(sample.op_class, []).append(sample)
    data = [
        (np.stack([r.features for r in rows]), np.array([r.arrival for r in rows]))
        for rows in by_class.values()
    ]

    def fit():
        ensembles = [
            BaggedTrees(n_trees=7, max_depth=6, min_leaf=max(2, len(y) // 24))
            for _, y in data
        ]
        t0 = time.perf_counter()
        fit_bagged(ensembles, data)
        return time.perf_counter() - t0, [e.to_dict() for e in ensembles]

    level_s = recursive_s = float("inf")
    for _ in range(5):
        elapsed, level = fit()
        level_s = min(level_s, elapsed)
        with mock.patch.object(
            repro.dta.regression, "grow_forest", _reference.grow_forest
        ):
            elapsed, recursive = fit()
        recursive_s = min(recursive_s, elapsed)
        assert level == recursive  # the same trees, node for node
    return {
        "trees": sum(len(e["trees"]) for e in level),
        "nodes": sum(len(t["nodes"]) for e in level for t in e["trees"]),
        "recursive_s": round(recursive_s, 4),
        "level_s": round(level_s, 4),
        "speedup": round(recursive_s / level_s, 2),
    }


def test_kernel_speedups():
    # Interleaved rounds, best-of: the end-to-end numbers are wall-clock
    # and the reference run is long enough to catch scheduler noise.
    baseline, kernel = [], []
    report_ref = report_ker = stats_ker = None
    for _ in range(2):
        elapsed, report_ref, _stats = _single_job(reference=True)
        baseline.append(elapsed)
        elapsed, report_ker, stats_ker = _single_job()
        kernel.append(elapsed)
    baseline_s, kernels_s = min(baseline), min(kernel)
    speedup = baseline_s / kernels_s

    pipe = generate_pipeline(SMALL.pipeline)
    rng = np.random.default_rng(11)
    micro = {
        "logic_sim": _bench_logic_sim(pipe, rng),
        "combine_memo": _bench_combine(pipe),
        "path_cov": _bench_path_cov(pipe),
        "training_combine": _bench_training_combine(),
        "forest_fit": _bench_forest_fit(),
    }

    doc = {
        "schema": "repro.bench-kernels/1",
        "workload": "bitcount",
        "train_instructions": TRAIN_INSTRUCTIONS,
        "max_instructions": MAX_INSTRUCTIONS,
        "end_to_end": {
            "baseline_s": round(baseline_s, 3),
            "kernels_s": round(kernels_s, 3),
            "speedup": round(speedup, 2),
            "baseline_rounds_s": [round(x, 3) for x in baseline],
            "kernel_rounds_s": [round(x, 3) for x in kernel],
        },
        "micro": micro,
        "kernel_stats": stats_ker.to_json(),
    }
    (REPO_ROOT / "BENCH_kernels.json").write_text(json.dumps(doc, indent=2))

    print_table(
        ["kernel", "reference_s", "kernels_s", "speedup"],
        [
            ["end-to-end job", round(baseline_s, 2), round(kernels_s, 2),
             f"{speedup:.2f}x"],
            ["logic sim (512 cycles)", micro["logic_sim"]["per_gate_s"],
             micro["logic_sim"]["batched_s"],
             f"{micro['logic_sim']['speedup']:.2f}x"],
            ["combine x200", micro["combine_memo"]["direct_s"],
             micro["combine_memo"]["memoized_s"],
             f"{micro['combine_memo']['speedup']:.2f}x"],
            ["path cov (48 paths)", micro["path_cov"]["pairwise_s"],
             micro["path_cov"]["blocked_s"],
             f"{micro['path_cov']['speedup']:.2f}x"],
            ["training combine (batched vs scalar)",
             micro["training_combine"]["scalar_s"],
             micro["training_combine"]["batched_s"],
             f"{micro['training_combine']['speedup']:.2f}x"],
            ["forest fit (56 trees, level-wise vs recursive)",
             micro["forest_fit"]["recursive_s"],
             micro["forest_fit"]["level_s"],
             f"{micro['forest_fit']['speedup']:.2f}x"],
        ],
        "Kernel layer speedups (BENCH_kernels.json)",
    )

    # Same program, same seeds: the kernel run must agree with the
    # reference run to reporting precision.
    assert report_ker.total_instructions == report_ref.total_instructions
    assert abs(
        report_ker.error_rate_mean - report_ref.error_rate_mean
    ) < 1e-6
    # Smoke regression floor (the recorded value is the real measurement).
    assert speedup >= 2.0
    assert micro["logic_sim"]["speedup"] > 1.0
    assert micro["combine_memo"]["speedup"] > 1.0
    assert micro["path_cov"]["speedup"] > 1.0
    assert micro["training_combine"]["speedup"] >= 2.0
    assert micro["forest_fit"]["speedup"] >= 1.3
