"""Dynamic micro-batching: coalesce compatible jobs into grid passes.

The estimator is embarrassingly batchable along the operating-point
axis (:mod:`repro.pipeline.grid`), but that win only reaches the serving
layer when *one* client submits a multi-point job.  Independent tenants
sweeping the same voltage/frequency neighbourhood submit compatible
single-point jobs concurrently — and executed one-by-one each pays its
own evaluation simulation (and, cold, its own training run).  This
module is the serving-side half of the grid evaluator:

* :func:`batch_key` reads a request document's
  :func:`~repro.pipeline.grid.grid_key` — the one rule for which
  requests may share a grid pass, the same one the batch engine groups
  by;
* :func:`form_batches` groups a claimed job set into :class:`Batch`
  objects (bounded by ``max_points``), leaving incompatible jobs as
  singleton batches;
* :func:`execute_batch_jobs` runs one batch — a coalesced batch becomes
  one :meth:`~repro.pipeline.pipeline.EstimationPipeline.execute_grid`
  pass over the union of the batch's *distinct* points, fanned back out
  into one per-job result document (jobs asking for the same point
  share the same per-point result) — and never raises: per-job failures
  become per-job error documents, and a failed grid pass falls back to
  one pass per job;
* :class:`SchedulerStats` counts what the batching layer did (batches
  formed, jobs coalesced, window waits, fallback singles, grid
  fallbacks) for ``/v1/metrics``.

:func:`execute_batch_jobs` runs on the server's dispatch threads, one
warm pipeline per thread.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field

from repro import api
from repro.pipeline.grid import grid_key

__all__ = [
    "Batch",
    "SchedulerStats",
    "batch_key",
    "form_batches",
    "execute_batch_jobs",
]

def batch_key(request_doc: dict) -> tuple:
    """The document's :func:`~repro.pipeline.grid.grid_key`.

    Two normalized ``estimation-request`` documents may coalesce into
    one grid pass iff their keys are equal: everything but the operating
    point (``speculation`` / ``speculations``) must match, the explicit
    sampling ``seed`` included.  A document that no longer parses (say,
    its core family is not registered after a restart) coalesces with
    nothing; :func:`execute_batch_jobs` then fails that job alone.
    """
    try:
        return grid_key(api.requests_from_json(request_doc)[0])
    except api.ApiError:
        return ("unparsed", id(request_doc))


def _point_count(request_doc: dict) -> int:
    points = request_doc.get("speculations")
    if isinstance(points, list):
        return len(points)
    return 1


@dataclass(slots=True)
class Batch:
    """One dispatch unit: compatible jobs executed as a single pass.

    Attributes:
        jobs: ``(job_id, request_doc)`` pairs, claim order.
        key: The shared :func:`batch_key` of every job.
        points: Total operating points across the jobs (before in-pass
            deduplication of identical points).
        wait_ms: Straggler wait this batch's window actually spent,
            stamped by the scheduler loop before dispatch.
    """

    jobs: list
    key: tuple
    points: int = 0
    wait_ms: float = 0.0

    @property
    def coalesced(self) -> bool:
        return len(self.jobs) > 1

    @property
    def job_ids(self) -> list:
        return [job_id for job_id, _doc in self.jobs]


def form_batches(claimed, max_points: int) -> list[Batch]:
    """Group claimed jobs into batches by grid compatibility.

    Args:
        claimed: ``(job_id, request_doc, submitted_at)`` triples from
            :meth:`~repro.service.queue.JobQueue.claim_many`, FIFO.
        max_points: Cap on total operating points per batch; a
            compatible run larger than this splits into several batches
            (bounding both grid memory and worst-case batch latency).

    Returns:
        Batches in first-job claim order.  Jobs that share a key
        coalesce; everything else ends up in singleton batches.
    """
    batches: list[Batch] = []
    open_by_key: dict[tuple, Batch] = {}
    for job_id, doc, _submitted in claimed:
        key = batch_key(doc)
        points = _point_count(doc)
        batch = open_by_key.get(key)
        if batch is not None and batch.points + points <= max_points:
            batch.jobs.append((job_id, doc))
            batch.points += points
        else:
            batch = Batch(jobs=[(job_id, doc)], key=key, points=points)
            batches.append(batch)
            open_by_key[key] = batch
    return batches


@dataclass(slots=True)
class SchedulerStats:
    """Thread-safe batching counters for ``/v1/metrics``."""

    batches_formed: int = 0
    jobs_coalesced: int = 0
    points_coalesced: int = 0
    window_waits: int = 0
    window_wait_ms_total: float = 0.0
    window_wait_ms_max: float = 0.0
    fallback_singles: int = 0
    grid_fallbacks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record_dispatch(self, batch: Batch) -> None:
        with self._lock:
            if batch.coalesced:
                self.batches_formed += 1
                self.jobs_coalesced += len(batch.jobs)
                self.points_coalesced += batch.points
            else:
                self.fallback_singles += 1

    def record_wait(self, wait_ms: float) -> None:
        with self._lock:
            self.window_waits += 1
            self.window_wait_ms_total += wait_ms
            self.window_wait_ms_max = max(self.window_wait_ms_max, wait_ms)

    def record_grid_fallback(self) -> None:
        with self._lock:
            self.grid_fallbacks += 1

    def to_json(self) -> dict:
        with self._lock:
            return {
                "batches_formed": self.batches_formed,
                "jobs_coalesced": self.jobs_coalesced,
                "points_coalesced": self.points_coalesced,
                "window_waits": self.window_waits,
                "window_wait_ms_total": round(self.window_wait_ms_total, 3),
                "window_wait_ms_max": round(self.window_wait_ms_max, 3),
                "fallback_singles": self.fallback_singles,
                "grid_fallbacks": self.grid_fallbacks,
            }


# --------------------------------------------------------------------- #
# Batch execution (dispatch thread)
# --------------------------------------------------------------------- #


def _ok(job_id: str, payload: api.JobResult) -> dict:
    return {"job": job_id, "ok": True, "result": payload.to_json()}


def _failed(job_id: str) -> dict:
    return {"job": job_id, "ok": False, "error": traceback.format_exc()}


def _run_single(pipeline, job_id: str, requests) -> dict:
    """One job (one or more points) as its own grid pass."""
    try:
        outcome = pipeline.execute_grid(requests)
        payload = api.JobResult.from_results(job_id, outcome.results)
        return _ok(job_id, payload)
    except Exception:
        return _failed(job_id)


def execute_batch_jobs(
    pipeline, jobs, batch_info: dict | None = None, stats=None
) -> list[dict]:
    """Execute one batch; returns one outcome document per job.

    Args:
        pipeline: A warm :class:`EstimationPipeline` (the dispatch
            thread's own).
        jobs: ``(job_id, request_doc)`` pairs sharing one
            :func:`batch_key` (singleton lists are fine).
        batch_info: Telemetry stamped onto every coalesced job's
            result document (``batched: true`` + the ``batch`` section).
        stats: Optional :class:`SchedulerStats` for fallback counting.

    Returns:
        ``{"job", "ok", "result"}`` or ``{"job", "ok", "error"}``
        documents, one per input job, input order.  Never raises.
    """
    parsed: list[tuple[str, list]] = []
    outcomes: dict[str, dict] = {}
    for job_id, doc in jobs:
        try:
            parsed.append((job_id, api.requests_from_json(doc)))
        except Exception:
            outcomes[job_id] = _failed(job_id)
    if len(parsed) == 1:
        job_id, requests = parsed[0]
        outcomes[job_id] = _run_single(pipeline, job_id, requests)
    elif parsed:
        # One grid pass over the union of distinct points; jobs asking
        # for the same operating point share the same per-point result.
        # Keying on speculation alone is sound because the jobs share
        # one grid_key, which includes the explicit seed: equal points
        # are identical requests, hence identical computations.
        flat: list = []
        index: dict = {}
        for _job_id, requests in parsed:
            for request in requests:
                if request.speculation not in index:
                    index[request.speculation] = len(flat)
                    flat.append(request)
        try:
            outcome = pipeline.execute_grid(flat)
        except Exception:
            # One pass per job owns failure capture: per-job error
            # documents (or per-job success) instead of a lost batch.
            if stats is not None:
                stats.record_grid_fallback()
            for job_id, requests in parsed:
                outcomes[job_id] = _run_single(pipeline, job_id, requests)
        else:
            for job_id, requests in parsed:
                try:
                    results = [
                        outcome.results[index[r.speculation]]
                        for r in requests
                    ]
                    payload = api.JobResult.from_results(
                        job_id,
                        results,
                        batched=True,
                        batch=batch_info,
                    )
                    outcomes[job_id] = _ok(job_id, payload)
                except Exception:
                    outcomes[job_id] = _failed(job_id)
    return [outcomes[job_id] for job_id, _doc in jobs]
