"""Run ``repro serve`` under the benchmark's tracer (service-mix server).

Usage: ``python3 perfbench/serve.py OUT TRACE -- <repro serve flags>``
with the repository's ``src`` on ``PYTHONPATH``.  Pins the process to one CPU
(its default single worker thread and event loop share the GIL, so the
server runs on about one CPU anyway) and samples that CPU's speed on a
thread of its own (:class:`harness.SpeedProbe`).  Installs the layer
wrappers when ``TRACE=1``, then calls ``repro.cli.main(["serve", ...])``.

* ``SIGUSR1`` marks the start of the timed phase: the tracer is reset
  and the kernel counters are snapshotted.
* At shutdown (``SIGINT``) it writes ``OUT``: peak RSS, the kernel
  counters since the mark, the tracer document and the speed samples.
"""

import json
import os
import resource
import signal
import sys

import harness


def main(argv) -> int:
    out, trace = argv[1], argv[2] == "1"
    serve_args = argv[argv.index("--") + 1:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = harness.SpeedProbe().start_thread()
    import repro.cli
    from repro.kernels import kernel_stats

    tracer = None
    if trace:
        tracer = harness.Tracer()
        harness.install(tracer)
    mark = {"kernels": kernel_stats().snapshot()}

    def on_mark(signum, frame):
        mark["kernels"] = kernel_stats().snapshot()
        if tracer is not None:
            tracer.reset()

    signal.signal(signal.SIGUSR1, on_mark)
    code = repro.cli.main(["serve", *serve_args])
    doc = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernels": kernel_stats().delta(mark["kernels"]).to_json(),
        "trace": tracer.to_json() if tracer is not None else None,
        "speed": probe.stop(),
    }
    tmp = out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle)
    os.replace(tmp, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
