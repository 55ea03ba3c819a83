"""Experiment ``window_pool`` — the window-analysis layer.

Measures the two reuse paths of the layer and writes the numbers to
``BENCH_window_pool.json`` at the repository root:

* **Activity cache**: logic simulations deduplicated by content
  addressing across the Monte Carlo validator's execution windows
  (the cache vs. the frozen uncached ``ActivityCache.activity`` of
  ``tests/_reference.py``) — training windows are all distinct by
  construction, but executed windows repeat their stimuli.
* **Period-sweep reuse**: a warm second operating point of a frequency
  sweep must re-characterize with *zero* logic simulations, asserted on
  the per-job ``kernels_training`` counters.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_window_pool.py -q``.
"""

from __future__ import annotations

import json
import os
import pathlib
from unittest import mock

from conftest import print_table
from repro.core import EstimationRequest
from repro.dta.executor import effective_cpus
from repro.dta.windowpool import ActivityCache
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig
from repro.runner import EstimationEngine, ProcessorConfig
from repro.workloads import load_workload
from tests import _reference

#: Single canonical output location — CI uploads the repo-root file.
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Reduced pipeline (the engine test-suite shape) on dijkstra, whose CFG
#: yields the largest (block, edge) window set of the suite.
SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)
WORKLOAD = "dijkstra"
TRAIN_INSTRUCTIONS = 50_000


def _training_inputs():
    """A warmed processor + the program's run spec (shared)."""
    processor = SMALL.build()
    _ = processor.clock_period
    _ = processor.datapath_model  # charge shared training to warm-up
    workload = load_workload(WORKLOAD)
    program, setup, _ = workload.run_spec("small", seed=0)
    return processor, program, setup


def test_window_pool_benchmark(tmp_path):
    processor, program, setup = _training_inputs()

    # -- activity cache: sims deduplicated across MC windows ------------- #
    from repro.core.montecarlo import MonteCarloValidator

    def _mc_sims():
        before = kernel_stats().snapshot()
        MonteCarloValidator(
            processor, n_chips=4, windows_per_block=6
        ).estimate(
            program, setup=setup, max_instructions=20_000, seed=0
        )
        return kernel_stats().delta(before).sim_calls

    with mock.patch.object(ActivityCache, "activity", _reference.activity):
        sims_uncached = _mc_sims()
    sims_cached = _mc_sims()

    # -- period-sweep reuse: warm second operating point ----------------- #
    # One engine run per point, so the second run sees the first run's
    # persisted windows artifact (one run would share a single grid pass
    # between the points; that variant is benchmarks/test_sweep_grid.py).
    engine = EstimationEngine(
        SMALL, cache_dir=tmp_path, n_data_samples=32,
    )
    sweep_rows = []
    for spec in (1.15, 1.25):
        summary = engine.run(
            [
                EstimationRequest(
                    workload=WORKLOAD, speculation=spec,
                    train_instructions=TRAIN_INSTRUCTIONS,
                    max_instructions=60_000, seed=0,
                )
            ]
        )
        assert not summary.failed, summary.failed[0].error
        sweep_rows.append(
            summary.results[0].report.to_json()["timing"]["kernels_training"]
        )

    doc = {
        "schema": "repro.bench-window-pool/3",
        "workload": WORKLOAD,
        "train_instructions": TRAIN_INSTRUCTIONS,
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "activity_cache": {
            "sim_calls_uncached": int(sims_uncached),
            "sim_calls_cached": int(sims_cached),
            "sims_saved": int(sims_uncached - sims_cached),
        },
        "period_sweep": {
            "first_period": {
                "sim_calls": sweep_rows[0]["sim_calls"],
                "windows_reused": sweep_rows[0]["windows_reused"],
            },
            "second_period": {
                "sim_calls": sweep_rows[1]["sim_calls"],
                "windows_reused": sweep_rows[1]["windows_reused"],
            },
        },
    }
    text = json.dumps(doc, indent=2)
    (REPO_ROOT / "BENCH_window_pool.json").write_text(text)

    print_table(
        ["metric", "uncached/first", "cached/second", "gain"],
        [
            ["logic sims / MC run", sims_uncached, sims_cached,
             f"-{sims_uncached - sims_cached}"],
            ["sweep 2nd-period sims", sweep_rows[0]["sim_calls"],
             sweep_rows[1]["sim_calls"],
             f"{sweep_rows[1]['windows_reused']} reused"],
        ],
        "Window-analysis layer (BENCH_window_pool.json)",
    )

    # Cache floors: dedup saves sims; the warm sweep point runs none.
    assert sims_cached < sims_uncached
    assert sweep_rows[0]["sim_calls"] > 0
    assert sweep_rows[1]["sim_calls"] == 0
    assert sweep_rows[1]["windows_reused"] > 0
