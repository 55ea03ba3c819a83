"""Energy-oriented timing speculation: spend the slack on voltage.

The Razor line of work [11] uses timing speculation for *energy*: hold the
frequency and undervolt until timing errors start appearing.  The
alpha-power-law voltage model converts the framework's error-rate-vs-
clock-period behaviour into error-rate-vs-voltage, and the replay penalty
converts error rate into the throughput cost — giving the energy-optimal
undervolt per program.

Run:  python examples/voltage_scaling.py [benchmark]
"""

import sys

import numpy as np

from repro.core import EstimationRequest, ProcessorModel
from repro.perf import VoltageScalingModel
from repro.pipeline.pipeline import EstimationPipeline
from repro.workloads import list_workloads


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "typeset"
    if name not in list_workloads():
        raise SystemExit(f"unknown benchmark {name!r}; try {list_workloads()}")
    volts = VoltageScalingModel(v_nominal=0.9, v_threshold=0.35)

    base = ProcessorModel()
    # Warm the period-independent engines once; every undervolt point
    # below derives from this base and inherits them.
    _ = base.clock_period
    _ = base.control_analyzer
    _ = base.datapath_model

    print(
        f"benchmark: {name}; baseline "
        f"{base.baseline_frequency_mhz:.0f} MHz at "
        f"{volts.v_nominal:.2f} V (sign-off corner "
        f"{volts.guardband_voltage(0.10):.2f} V)\n"
    )
    print(
        f"{'V':>6s} {'delay x':>8s} {'ER %':>8s} {'replay cost %':>14s} "
        f"{'energy saved %':>15s} {'net benefit %':>14s}"
    )
    best = None
    for speculation in (1.00, 1.05, 1.10, 1.15, 1.20, 1.25):
        # Undervolting by the delay-equivalent of `speculation` consumes
        # the same slack as overclocking by it.  Each point derives a
        # processor from the shared base — the period-independent trained
        # engines (SSTA, analyzers, datapath model) carry over.
        voltage = volts.undervolt_for_speculation(speculation)
        proc = base.derive(speculation=speculation)
        estimator = EstimationPipeline(proc)
        report = estimator.run(
            EstimationRequest(
                workload=name, max_instructions=250_000, seed=0
            )
        )
        er = report.error_rate_mean / 100.0
        penalty = proc.scheme.penalty_cycles(proc.pipeline.num_stages)
        replay_cost = 100.0 * penalty * er
        energy_saved = volts.energy_saving_percent(speculation)
        # First-order: energy saved minus replay-work overhead.
        net = energy_saved - replay_cost
        marker = ""
        if best is None or net > best[1]:
            best = (voltage, net, speculation)
            marker = "  <-"
        print(
            f"{voltage:6.3f} {speculation:8.2f} "
            f"{report.error_rate_mean:8.3f} {replay_cost:14.2f} "
            f"{energy_saved:15.2f} {net:+14.2f}{marker}"
        )

    print(
        f"\nenergy-optimal undervolt for {name}: {best[0]:.3f} V "
        f"(delay-equivalent {best[2]:.2f}x, net ~{best[1]:+.1f}% dynamic "
        "energy)"
    )
    print(
        "past the optimum, replayed instructions burn the energy the lower "
        "voltage saved\n— the same program-dependent crossover as the "
        "frequency sweep, in volts."
    )


if __name__ == "__main__":
    main()
