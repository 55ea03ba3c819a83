"""Process-variation sensitivity study.

The framework's headline capability is folding *design-time* uncertainty —
process variation with spatial correlation — into the error-rate estimate.
This example varies the variation strength and correlation structure and
shows the effect on (a) the guardbanded baseline frequency, (b) a
benchmark's error-rate distribution, and (c) the spread between chips
(captured by the distribution's standard deviation).

Run:  python examples/process_variation_study.py
"""

import numpy as np

from repro.core import ProcessorModel
from repro.netlist import TimingLibrary, generate_pipeline
from repro.pipeline.pipeline import EstimationPipeline
from repro.variation import VariationConfig
from repro.workloads import load_workload

SCENARIOS = [
    ("nominal (sigma x1.0)", VariationConfig()),
    ("strong variation (sigma x2.0)", VariationConfig(sigma_scale=2.0)),
    ("weak variation (sigma x0.5)", VariationConfig(sigma_scale=0.5)),
    (
        "short correlation length (25um)",
        VariationConfig(correlation_length=25.0),
    ),
    (
        "mostly die-to-die",
        VariationConfig(
            global_fraction=0.8, spatial_fraction=0.1, random_fraction=0.1
        ),
    ),
    (
        "mostly random",
        VariationConfig(
            global_fraction=0.1, spatial_fraction=0.1, random_fraction=0.8
        ),
    ),
]


def main() -> None:
    workload = load_workload("basicmath")
    pipeline = generate_pipeline()
    library = TimingLibrary()

    print(f"{'scenario':32s} {'base MHz':>9s} {'work MHz':>9s} "
          f"{'ER %':>8s} {'SD %':>7s}")
    for label, config in SCENARIOS:
        proc = ProcessorModel(
            pipeline=pipeline, library=library, variation_config=config
        )
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
        print(
            f"{label:32s} {proc.baseline_frequency_mhz:9.0f} "
            f"{proc.working_frequency_mhz:9.0f} "
            f"{report.error_rate_mean:8.3f} {report.error_rate_sd:7.3f}"
        )

    print(
        "\nobservations:\n"
        "  - stronger variation forces a slower guardbanded baseline "
        "(SSTA yield)\n"
        "    AND fattens the error-probability tails at the working "
        "point;\n"
        "  - die-to-die-dominated variation moves whole chips together "
        "(higher SD\n"
        "    across chips), while independent per-gate randomness "
        "averages out\n"
        "    within each path."
    )


if __name__ == "__main__":
    main()
