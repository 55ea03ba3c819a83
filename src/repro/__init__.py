"""repro — program error-rate estimation for timing-speculative processors.

A full reproduction of Assare & Gupta, *Accurate Estimation of Program Error
Rate for Timing-Speculative Processors*, DAC 2019: gate-level netlist
substrate, (S)STA with correlated process variation, dynamic timing analysis
(Algorithms 1 and 2), an instruction error model with error-correction
conditioning, CFG-based marginal error probabilities, and the
Poisson/Gaussian limit-theorem estimator of program error rate with
Stein / Chen-Stein approximation bounds.

Quickstart::

    from repro import EstimationPipeline, default_processor
    from repro.workloads import load_workload

    proc = default_processor()
    workload = load_workload("bitcount")
    pipeline = EstimationPipeline(proc)
    artifacts = pipeline.train(
        workload.program, setup=workload.setup(workload.dataset("small"))
    )
    report = pipeline.estimate(
        workload.program, artifacts,
        setup=workload.setup(workload.dataset("large")),
    )
    print(report.error_rate_mean, report.error_rate_sd)

Or as a service (``python -m repro serve`` / ``submit`` on the CLI)::

    from repro import api
    from repro.service import EstimationService, ServiceClient

    service = EstimationService(".repro-service", port=0)
    with service.start_in_thread():
        client = ServiceClient(f"http://127.0.0.1:{service.port}")
        job = client.submit(api.build_request(workload="bitcount", seed=0))
        print(client.wait(job.id).report.error_rate_mean)
"""

__version__ = "1.0.0"

from repro import api
from repro.api import ApiError, JobResult, JobStatus
from repro.core.processor import ProcessorModel, default_processor
from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport
from repro.core.montecarlo import MonteCarloValidator
from repro.kernels import (
    KernelConfig,
    KernelStats,
    configure_kernels,
    kernel_config,
    kernel_stats,
)
from repro.pipeline.ir import TrainingArtifacts
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.registry import REGISTRY, use_backends
from repro.pipeline.store import ArtifactStore

__all__ = [
    "__version__",
    "api",
    "ApiError",
    "JobResult",
    "JobStatus",
    "ProcessorModel",
    "default_processor",
    "EstimationPipeline",
    "EstimationRequest",
    "TrainingArtifacts",
    "ErrorRateReport",
    "MonteCarloValidator",
    "ArtifactStore",
    "REGISTRY",
    "use_backends",
    "KernelConfig",
    "KernelStats",
    "configure_kernels",
    "kernel_config",
    "kernel_stats",
]
