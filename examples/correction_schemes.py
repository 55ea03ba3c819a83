"""Error-correction scheme comparison.

The correction mechanism affects the framework twice (Section 4.1): its
*dynamic* effect conditions instruction error probabilities (p^e vs p^c —
the next instruction launches from a flushed pipeline), and its *penalty*
determines how much performance each error costs.  This example compares
replay-at-half-frequency (the paper's conservative scheme, 24 cycles/error)
against a plain pipeline flush (7 cycles/error), at several speculation
levels.

Run:  python examples/correction_schemes.py
"""

import numpy as np

from repro.core import EstimationRequest, ProcessorModel
from repro.cpu import PipelineFlush, ReplayHalfFrequency
from repro.netlist import TimingLibrary, generate_pipeline
from repro.pipeline.pipeline import EstimationPipeline
from repro.workloads import load_workload


def main() -> None:
    workload = load_workload("pgp.encode")
    pipeline = generate_pipeline()
    library = TimingLibrary()
    schemes = [ReplayHalfFrequency(), PipelineFlush()]

    # Warm the shared engines once; every (scheme, speculation) point
    # below derives from this base and inherits them.
    base = ProcessorModel(pipeline=pipeline, library=library)
    _ = base.clock_period
    _ = base.control_analyzer
    _ = base.datapath_model

    print(f"benchmark: {workload.name}\n")
    print(
        f"{'scheme':24s} {'spec':>5s} {'ER %':>8s} "
        f"{'penalty':>8s} {'perf %':>8s}"
    )
    for scheme in schemes:
        for speculation in (1.10, 1.15, 1.20):
            proc = base.derive(scheme=scheme, speculation=speculation)
            estimator = EstimationPipeline(proc)
            report = estimator.run(
                EstimationRequest(
                    workload=workload,
                    max_instructions=250_000,
                    seed=0,
                )
            )
            er = report.error_rate_mean
            penalty = scheme.penalty_cycles(proc.pipeline.num_stages)
            perf = proc.performance.improvement_percent(er / 100.0)
            print(
                f"{scheme.name:24s} {speculation:5.2f} {er:8.3f} "
                f"{penalty:8.0f} {perf:+8.2f}"
            )

    print(
        "\nthe cheaper flush scheme tolerates noticeably higher error "
        "rates before\nspeculation stops paying off — its break-even "
        "error rate is "
        f"{100 * ProcessorModel(pipeline=pipeline, library=library, scheme=PipelineFlush()).performance.breakeven_error_rate():.2f}% "
        f"vs "
        f"{100 * base.performance.breakeven_error_rate():.2f}% for replay."
    )


if __name__ == "__main__":
    main()
