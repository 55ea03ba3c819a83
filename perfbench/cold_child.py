"""One cold estimate in a fresh interpreter (the ``cold-estimate`` op).

Usage: ``python3 perfbench/cold_child.py SEED TRACE`` with the
repository's ``src`` on ``PYTHONPATH``.  Imports the package, runs the
golden-shape request (``bitcount``, 20k training and 20k evaluation
instructions, ``inorder6``, default processor) with ``seed=SEED``
through ``EstimationPipeline(ProcessorConfig()).execute``, and prints
one JSON line: the report (timings excluded), the import time, the
kernel counters, peak RSS, the CPU speed samples of the whole process
(:class:`harness.SpeedProbe`, started before the import) and, with
``TRACE=1``, the tracer document.
"""

import time

import harness

PROBE = harness.SpeedProbe().start()
START = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the measured import)
import repro.pipeline.pipeline  # noqa: E402

IMPORT_S = time.perf_counter() - START

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    seed, trace = int(argv[1]), argv[2] == "1"
    from repro import api
    from repro.core import EstimationRequest
    from repro.kernels import kernel_stats
    from repro.pipeline.ir import ProcessorConfig
    from repro.pipeline.pipeline import EstimationPipeline

    tracer = None
    if trace:
        tracer = harness.Tracer()
        harness.install(tracer)
    request = EstimationRequest(
        workload="bitcount",
        max_instructions=20_000,
        train_instructions=20_000,
        seed=seed,
    )
    result = EstimationPipeline(ProcessorConfig()).execute(request)
    doc = {
        "import_s": IMPORT_S,
        "report": api.report_to_json(result.report, include_timing=False),
        "kernels": kernel_stats().to_json(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.to_json() if tracer is not None else None,
        "speed": PROBE.stop(),
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
