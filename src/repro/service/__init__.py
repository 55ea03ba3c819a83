"""Estimation-as-a-service: an async HTTP/JSON job server.

The serving layer over the staged
:class:`~repro.pipeline.pipeline.EstimationPipeline`: clients POST
schema-versioned :class:`~repro.api.EstimationRequest` documents to
``/v1/jobs``, the server enqueues them on a persistent SQLite-backed
:class:`JobQueue`, a micro-batching scheduler
(:mod:`repro.service.scheduler`) coalesces grid-compatible jobs into
shared evaluation passes that run on the server's dispatch threads,
and the server serves status, stage telemetry, and results back over
the same wire schema (:mod:`repro.api`).

See ``docs/SERVICE.md`` for the endpoint contract, batching semantics,
and queue resume semantics.
"""

from repro.service.queue import JobQueue
from repro.service.scheduler import (
    Batch,
    SchedulerStats,
    batch_key,
    form_batches,
)
from repro.service.server import EstimationService
from repro.service.client import ServiceClient, ServiceError

__all__ = [
    "JobQueue",
    "EstimationService",
    "ServiceClient",
    "ServiceError",
    "Batch",
    "SchedulerStats",
    "batch_key",
    "form_batches",
]
