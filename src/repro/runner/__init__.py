"""Parallel batch estimation with trained-artifact caching.

The runner turns the one-job framework API into a production batch
surface: express each (workload × operating point) job as an
:class:`~repro.core.request.EstimationRequest`, hand the batch to an
:class:`EstimationEngine`, and get a :class:`RunSummary` of per-job
reports plus telemetry back.  Trained artifacts (control timing models,
the shared datapath model) round-trip through the content-addressed
:class:`~repro.pipeline.store.ArtifactStore`, so repeated runs — sweeps
over operating points, warm re-runs of the full suite — skip their
training phases entirely.

Quickstart::

    from repro.runner import EstimationEngine, EstimationRequest

    engine = EstimationEngine(max_workers=4, cache_dir=".repro-cache")
    summary = engine.run(
        [EstimationRequest(workload=n) for n in ("bitcount", "dijkstra")]
    )
    for result in summary.succeeded:
        print(result.report, "cache hit" if result.cache_hit else "")
    print(summary.describe())
"""

from repro.core.request import EstimationRequest
from repro.pipeline.ir import program_fingerprint
from repro.pipeline.store import stable_digest
from repro.runner.engine import (
    EstimationEngine,
    JobResult,
    ProcessorConfig,
    RunSummary,
)

__all__ = [
    "EstimationEngine",
    "EstimationRequest",
    "JobResult",
    "ProcessorConfig",
    "RunSummary",
    "program_fingerprint",
    "stable_digest",
]
