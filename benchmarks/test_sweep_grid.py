"""Experiment ``sweep_grid`` — batched operating-point evaluation.

Times a 16-point frequency sweep two ways on identically warmed
stores and writes the numbers to ``BENCH_sweep.json`` at the
repository root:

* **per-point**: 16 independent callers — each point runs on a fresh
  :class:`EstimationPipeline` over the arm's store, so each pays its
  own training and evaluation functional simulations, window decode,
  and estimate;
* **grid**: one :meth:`EstimationPipeline.execute_grid` pass — the
  period-independent work (functional simulations, window logic
  simulation, activation bookkeeping) runs once and only the
  period-dependent tail fans out, batched along the period axis down
  to the Clark reductions.

Each arm runs in its own interpreter over its own copy of one warm
store (windows survive across operating points, control artifacts do
not), after the same untimed warm-up job, so neither arm finds a
processor, memo, or kept pass input the other filled.  The grid's
advantage is shared-work elimination — it holds on a 1-CPU host, no
parallelism involved.  Five alternating pairs are timed; the gate is
*never lose* on the median pair: ``wall_speedup >= 1.0``.
Byte-identical reports across the two arms are asserted outright and
recorded.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_sweep_grid.py -q``.
One arm alone: ``python benchmarks/test_sweep_grid.py {per-point,grid} STORE``
prints its timing document.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from repro.core import EstimationRequest
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore
from repro.runner import ProcessorConfig

REPO_ROOT = pathlib.Path(__file__).parent.parent

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)
WORKLOAD = "bitcount"
TRAIN_INSTRUCTIONS = 20_000
MAX_INSTRUCTIONS = 30_000
N_POINTS = 16
WARM_SPEC = 1.00  # warms the period-independent windows artifact only
PAIRS = 5
ARMS = ("per-point", "grid")


def _sweep_points(n=N_POINTS, start=1.02, stop=1.32):
    step = (stop - start) / (n - 1)
    return [round(start + i * step, 10) for i in range(n)]


def _request(spec):
    return EstimationRequest(
        workload=WORKLOAD, speculation=spec,
        train_instructions=TRAIN_INSTRUCTIONS,
        max_instructions=MAX_INSTRUCTIONS, seed=0,
    )


def _pipeline(root):
    return EstimationPipeline(
        SMALL, store=ArtifactStore(root), n_data_samples=32
    )


def _row_digest(result):
    row = json.dumps(
        result.report.to_json(include_timing=False), sort_keys=True
    )
    return hashlib.sha256(row.encode()).hexdigest()


def run_arm(arm, root) -> dict:
    """Time one arm over the warm store at ``root`` (this process)."""
    _pipeline(root).execute(_request(WARM_SPEC))  # untimed warm-up
    requests = [_request(spec) for spec in _sweep_points()]
    before = kernel_stats().snapshot()
    t0 = time.perf_counter()
    if arm == "per-point":
        results = [_pipeline(root).execute(r) for r in requests]
        telemetry = None
    else:
        grid = _pipeline(root).execute_grid(requests)
        results = grid.results
        telemetry = grid.telemetry()
    wall_s = time.perf_counter() - t0
    return {
        "arm": arm,
        "wall_s": wall_s,
        "rows": [_row_digest(r) for r in results],
        "telemetry": telemetry,
        "kernel_stats": kernel_stats().delta(before).to_json(),
    }


def _spawn_arm(arm, warm_root, root) -> dict:
    """:func:`run_arm` in a fresh interpreter over a copy of the store."""
    shutil.copytree(warm_root, root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, __file__, arm, str(root)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_sweep_grid_benchmark(tmp_path):
    from conftest import print_table

    warm_root = tmp_path / "warm"
    _pipeline(warm_root).execute(_request(WARM_SPEC))

    pairs = []
    for i in range(PAIRS):
        order = ARMS if i % 2 == 0 else ARMS[::-1]
        pair = {
            arm: _spawn_arm(arm, warm_root, tmp_path / f"{arm}-{i}")
            for arm in order
        }
        pairs.append(pair)

    # Byte-identical reports are the correctness contract of the grid.
    for i, pair in enumerate(pairs):
        for arm in ARMS:
            n_rows = len(pair[arm]["rows"])
            assert n_rows == N_POINTS, (i, arm, n_rows)
    expected = pairs[0]["per-point"]["rows"]
    diverged = [
        (i, arm, point)
        for i, pair in enumerate(pairs)
        for arm in ARMS
        for point, (a, b) in enumerate(zip(expected, pair[arm]["rows"]))
        if a != b
    ]
    parity = not diverged
    assert parity, (
        f"reports diverged from pair 0's per-point arm at "
        f"(pair, arm, point) {diverged}"
    )

    per_point_s = [pair["per-point"]["wall_s"] for pair in pairs]
    grid_s = [pair["grid"]["wall_s"] for pair in pairs]
    speedups = [p / g for p, g in zip(per_point_s, grid_s)]
    wall_speedup = statistics.median(speedups)
    per_point_med = statistics.median(per_point_s)
    grid_med = statistics.median(grid_s)
    telemetry = pairs[0]["grid"]["telemetry"]

    doc = {
        "schema": "repro.bench-sweep/2",
        "workload": WORKLOAD,
        "points": N_POINTS,
        "speculations": _sweep_points(),
        "train_instructions": TRAIN_INSTRUCTIONS,
        "max_instructions": MAX_INSTRUCTIONS,
        "cpu_count": os.cpu_count(),
        "pairs": [
            {
                "first": next(iter(pair)),
                "per_point_s": round(pair["per-point"]["wall_s"], 3),
                "grid_s": round(pair["grid"]["wall_s"], 3),
                "speedup": round(s, 2),
            }
            for pair, s in zip(pairs, speedups)
        ],
        "per_point": {
            "wall_s": round(per_point_med, 3),
            "points_per_s": round(N_POINTS / per_point_med, 3),
        },
        "grid": {
            "wall_s": round(grid_med, 3),
            "points_per_s": round(N_POINTS / grid_med, 3),
            "train_sims_skipped": telemetry["train_sims_skipped"],
            "eval_sims_skipped": telemetry["eval_sims_skipped"],
            "control_cache_hits": telemetry["control_cache_hits"],
            "grid_points": telemetry["grid_points"],
            "grid_reuse_hits": telemetry["grid_reuse_hits"],
        },
        "wall_speedup": round(wall_speedup, 2),
        "reports_byte_identical": parity,
        "kernel_stats_per_point": pairs[0]["per-point"]["kernel_stats"],
        "kernel_stats_grid": pairs[0]["grid"]["kernel_stats"],
    }
    (REPO_ROOT / "BENCH_sweep.json").write_text(json.dumps(doc, indent=2))

    print_table(
        ["metric", "per-point", "grid", "gain"],
        [
            ["wall (s, median of 5)", round(per_point_med, 3),
             round(grid_med, 3), f"{wall_speedup:.2f}x"],
            ["points/s", round(N_POINTS / per_point_med, 2),
             round(N_POINTS / grid_med, 2), ""],
            ["eval sims", N_POINTS,
             N_POINTS - telemetry["eval_sims_skipped"],
             f"-{telemetry['eval_sims_skipped']}"],
            ["train sims", N_POINTS,
             N_POINTS - telemetry["train_sims_skipped"],
             f"-{telemetry['train_sims_skipped']}"],
            ["byte-identical", "-", "-",
             str(parity)],
        ],
        "Operating-point grid (BENCH_sweep.json)",
    )

    # The batched pass covered every point and never loses to the loop.
    assert telemetry["grid_points"] == N_POINTS
    assert telemetry["eval_sims_skipped"] == N_POINTS - 1
    assert wall_speedup >= 1.0


if __name__ == "__main__":
    print(json.dumps(run_arm(sys.argv[1], pathlib.Path(sys.argv[2]))))
