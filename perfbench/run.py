#!/usr/bin/env python3
"""The estimator's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-estimate --seed 0 --seconds 30 --trace 0

Workloads: ``cold-estimate``, ``warm-sweep``, ``service-mix`` (see
``perfbench/README.md`` for what each one exercises and why).  The run
sets up, measures for ``--seconds``, checks every report, prints every
metric by name with its unit plus the host and execution plan, and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` wraps each layer's public entry points and reports per-layer self
time and counters instead.  ``--repin`` recomputes the expected reports
of seed 0 and prints them as the ``pinned`` entry of the context line
(the source of ``perfbench/expected.json``).

Exits with status 2, printing no result, when the checkout lacks the
package under ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "dk_error_rate": "ratio",
    "mc_mean_err": "ratio",
}
#: Hard wall-clock budget of one run, below the 180 s limit.
RUN_BUDGET_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("cold-estimate", "warm-sweep", "service-mix"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true")
    return parser.parse_args(argv)


def _host_context(kernels) -> dict:
    import numpy
    import scipy
    from repro.dta.executor import effective_cpus

    plan = {
        name: sum(doc.get(name, 0) for doc in kernels)
        for name in ("pool_maps_serial", "pool_maps_forked",
                     "pool_maps_degraded")
    }
    return {
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        **plan,
    }


def _end_to_end(outcome) -> dict:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "latency_s.p50": statistics.median(outcome.latencies),
        "points_per_s": outcome.points / outcome.busy_s,
        "peak_rss_mb": statistics.median(outcome.rss_mb),
        "dk_error_rate": outcome.dk_error_rate,
        "mc_mean_err": outcome.mc_mean_err,
    }


def _per_layer(outcome) -> dict:
    import harness

    trace = harness.merge_docs(outcome.traces)
    kernels = harness.merge_docs(outcome.kernels)
    extra = {
        name: statistics.median(values)
        for name, values in outcome.layer_extra.items() if values
    }
    outcome.context["untraced"] = trace.get("missing", [])
    spans = trace.get("spans", 0)
    extra["trace.overhead_frac"] = (
        spans * harness.span_cost_s() / outcome.traced_s
        if outcome.traced_s else 0.0
    )
    return harness.layer_metrics(
        trace, kernels, len(outcome.latencies), extra
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no package at {ROOT / 'src' / 'repro'}; run from a "
            f"checkout of the repository", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    started = time.monotonic()
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), workdir=workdir,
        deadline=started + RUN_BUDGET_S, repin=args.repin,
    )
    outcome = workloads.Outcome()
    try:
        workloads.WORKLOADS[args.workload](run, outcome)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = _per_layer(outcome)
        units = harness.LAYER_METRICS
    else:
        metrics = _end_to_end(outcome)
        units = END_TO_END
    timing = harness.summarize(outcome.latencies)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "latency_s": timing,
        "latency_samples_s": [round(v, 4) for v in outcome.latencies],
        "setup_samples_s": [round(v, 4) for v in outcome.setup_s],
        "latency_wall_s": [round(v, 4) for v in outcome.wall_latencies],
        "setup_wall_s": [round(v, 4) for v in outcome.wall_setup_s],
        "host": _host_context(outcome.kernels),
        "run_s": time.monotonic() - started,
        **outcome.context,
    }
    missing = [name for name, value in metrics.items() if value is None]
    for name, value in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{args.workload:14s} {name:28s} {shown:>14s} {units[name]}")
    tail = (
        f"p{timing['tail_pct']:g} {timing['tail']:.4g} s"
        if timing["tail"] is not None else "no tail (under 20 samples)"
    )
    print(f"{args.workload:14s} latency: n={timing['n']}, {tail}")
    for error in outcome.errors:
        print(f"FAILED {error}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and not missing,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value if value is not None else 0.0,
                   "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
