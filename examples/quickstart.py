"""Quickstart: estimate a program's error rate on a TS processor.

Builds the default processor configuration (the paper's Section 6.1
analogue: 6-stage in-order pipeline, SSTA-guardbanded baseline frequency,
1.15x speculative working point, replay-at-half-frequency correction) and
runs the full train+estimate flow through the unified request API: one
:class:`EstimationRequest` names the workload, dataset pair, and budgets,
and ``EstimationPipeline.run`` executes both phases.

Run:  python examples/quickstart.py [benchmark]
"""

import sys

import numpy as np

from repro import EstimationPipeline, EstimationRequest, default_processor
from repro.workloads import list_workloads


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "bitcount"
    if name not in list_workloads():
        raise SystemExit(f"unknown benchmark {name!r}; try {list_workloads()}")

    print("building processor model (synthesis + SSTA + model training)...")
    processor = default_processor()
    op = processor.describe()
    print(
        f"  {op['gates']} gates, {op['stages']} stages\n"
        f"  baseline (guardbanded) frequency: "
        f"{op['baseline_frequency_mhz']:.0f} MHz\n"
        f"  speculative working frequency:    "
        f"{op['working_frequency_mhz']:.0f} MHz "
        f"({op['speculation']:.2f}x)\n"
        f"  error correction: {op['correction']} "
        f"({op['penalty_cycles']:.0f} cycles/error)"
    )

    estimator = EstimationPipeline(processor)

    print(f"\ntraining and simulating {name} (small -> large dataset)...")
    report = estimator.run(EstimationRequest(workload=name, seed=0))

    print(f"\n=== {report.program} ===")
    print(f"dynamic instructions : {report.total_instructions:,}")
    print(f"basic blocks         : {report.basic_blocks}")
    print(
        f"characterized entries: {report.characterized_pairs} "
        f"({report.training_seconds:.1f}s training)"
    )
    print(
        f"error rate           : {report.error_rate_mean:.3f}% "
        f"(SD {report.error_rate_sd:.3f}%)"
    )
    print(f"d_K(lambda, normal)  : {report.d_k_lambda:.4f}")
    print(f"d_K(R_E, Poisson)    : {report.d_k_rate:.4f}")

    perf = processor.performance
    impr = perf.improvement_percent(report.error_rate_mean / 100.0)
    print(
        f"performance vs baseline: {impr:+.2f}% "
        f"(break-even at {100 * perf.breakeven_error_rate():.3f}% error rate)"
    )

    print("\nerror-rate CDF with lower/upper bounds (Figure 3 style):")
    grid = report.error_rate_grid(9)
    print(f"  {'ER %':>8s} {'lower':>7s} {'cdf':>7s} {'upper':>7s}")
    for r, lo, c, up in zip(
        grid["rates_percent"], grid["lower"], grid["cdf"], grid["upper"]
    ):
        bar = "#" * int(round(40 * c))
        print(f"  {r:8.3f} {lo:7.3f} {c:7.3f} {up:7.3f}  {bar}")


if __name__ == "__main__":
    main()
