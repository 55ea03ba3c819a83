"""The asyncio HTTP/JSON estimation job server.

:class:`EstimationService` binds the moving parts together:

* an :mod:`asyncio` socket server speaking a minimal HTTP/1.1 subset
  (stdlib only — ``asyncio.start_server`` plus a hand-rolled
  request parser; one request per connection);
* the persistent :class:`~repro.service.queue.JobQueue` (survives
  ``SIGKILL``: running jobs are requeued on startup, finished jobs keep
  their results);
* the micro-batching scheduler (:mod:`repro.service.scheduler`): one
  loop claims queued jobs in bulk, waits up to ``batch_window_ms``
  (measured from *enqueue* time, so a job never waits longer than the
  window end to end; never longer than the last batch took to run)
  for compatible stragglers, coalesces jobs that
  are identical up to the operating point into one grid pass, and
  dispatches batches concurrently — incompatible jobs fall through as
  singleton batches on the unchanged scalar path;
* job execution on dispatch threads, each owning one
  :class:`~repro.pipeline.pipeline.EstimationPipeline`.  Every
  pipeline shares one on-disk
  :class:`~repro.pipeline.store.ArtifactStore` — the warm store is the
  multiplexing medium: a second tenant submitting an overlapping
  operating point trains with zero logic simulations.

Endpoints (all JSON, schema :data:`repro.api.SCHEMA`):

=========================== =========================================
``POST /v1/jobs``           submit an ``estimation-request`` (single
                            point, or multi-point via the schema-3
                            ``speculations`` axis — evaluated through
                            the batched grid path); 202 +
                            ``job-status``
``GET /v1/jobs``            recent ``job-status`` documents
``GET /v1/jobs/{id}``       one ``job-status`` (with stage telemetry)
``GET /v1/jobs/{id}/result`` the ``job-result`` (409 until finished)
``GET /v1/store/stats``     shared-store entry counts / bytes /
                            telemetry + queue state counts
``GET /v1/metrics``         batching counters, queue depth, in-flight
                            batches, per-family job counts
``GET /v1/healthz``         liveness + queue counts + scheduler shape
=========================== =========================================
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import api
from repro.pipeline.store import ArtifactStore
from repro.service.queue import JobQueue
from repro.service.scheduler import (
    Batch,
    SchedulerStats,
    execute_batch_jobs,
    form_batches,
)

__all__ = ["EstimationService"]

_MAX_BODY = 1 << 20  # 1 MiB request bodies are plenty for one job doc

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
}

#: Fallback poll period for jobs enqueued without a wakeup (a second
#: service process writing the same queue database).
_IDLE_POLL_S = 2.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class EstimationService:
    """Asyncio job server over the shared estimation pipeline.

    Args:
        state_dir: Directory holding ``queue.db`` and the shared
            ``store/`` (created on demand).  The service is resumable
            from this directory alone.
        config: :class:`~repro.pipeline.ir.ProcessorConfig` every job
            runs against (default: the paper's configuration).
        host / port: Bind address; ``port=0`` picks a free port
            (``self.port`` is updated once bound).
        workers: Concurrent in-thread batch executors.  Each owns one
            pipeline; all share the store, so the warm-reuse contract
            holds across workers and tenants.
        n_data_samples: Data-variation samples per estimator.
        store_budget: LRU byte budget for the shared store (``None`` =
            unbounded / ``REPRO_STORE_BUDGET``).
        batch_window_ms: Micro-batch window.  A claimed job waits up to
            this long (measured from its enqueue time), and no longer
            than the last batch took to run, for compatible
            stragglers before its batch dispatches; ``0`` disables
            coalescing entirely, restoring strict job-at-a-time
            execution.
        max_batch: Cap on jobs claimed per scheduler pass and on
            operating points per coalesced batch.
    """

    def __init__(
        self,
        state_dir,
        *,
        config=None,
        host: str = "127.0.0.1",
        port: int = 8731,
        workers: int = 1,
        n_data_samples: int = 128,
        store_budget: int | None = None,
        batch_window_ms: float = 4.0,
        max_batch: int = 16,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        from repro.pipeline.ir import ProcessorConfig

        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.config = config if config is not None else ProcessorConfig()
        self.host = host
        self.port = port
        self.workers = workers
        self.n_data_samples = n_data_samples
        self.store_budget = store_budget
        self.batch_window_ms = float(batch_window_ms)
        self.max_batch = max_batch
        self.queue = JobQueue(self.state_dir / "queue.db")
        self.store = ArtifactStore(
            self.state_dir / "store", max_bytes=store_budget
        )
        self.stats = SchedulerStats()
        self._dispatch: ThreadPoolExecutor | None = None
        self._slots: asyncio.Semaphore | None = None
        self._inflight = 0
        #: Wall seconds of the last batch a dispatch thread ran (``None``
        #: until one has); caps the straggler wait.
        self._last_pass_s: float | None = None
        self._local = threading.local()
        self._server: asyncio.base_events.Server | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._stopping = False
        #: Set once the socket is bound (handle for tests/benchmarks).
        self.ready = threading.Event()
        self.jobs_done = 0
        self.jobs_failed = 0
        #: Completed-job counts keyed by the request's core family.
        self.jobs_by_family: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Job execution (dispatch threads)
    # ------------------------------------------------------------------ #

    def _pipeline(self):
        """This dispatch thread's pipeline (shared store, own caches)."""
        pipe = getattr(self._local, "pipeline", None)
        if pipe is None:
            from repro.pipeline.pipeline import EstimationPipeline

            pipe = EstimationPipeline(
                self.config,
                store=self.store,
                n_data_samples=self.n_data_samples,
            )
            self._local.pipeline = pipe
        return pipe

    def _batch_info(self, batch: Batch) -> dict | None:
        if not batch.coalesced:
            return None
        return {
            "jobs": len(batch.jobs),
            "points": batch.points,
            "window_ms": self.batch_window_ms,
            "wait_ms": round(batch.wait_ms, 3),
        }

    def _run_batch(self, batch: Batch) -> None:
        """Execute one batch (dispatch thread); finishes every job."""
        self.stats.record_dispatch(batch)
        start = time.perf_counter()
        outcomes = execute_batch_jobs(
            self._pipeline(), batch.jobs, self._batch_info(batch),
            stats=self.stats,
        )
        self._last_pass_s = time.perf_counter() - start
        doc_by_job = {job_id: doc for job_id, doc in batch.jobs}
        for outcome in outcomes:
            if outcome["ok"]:
                result_doc = outcome["result"]
                self.queue.complete(
                    outcome["job"], result_doc,
                    stages=result_doc.get("stages"),
                )
                self.jobs_done += 1
                family = doc_by_job.get(outcome["job"], {}).get(
                    "core_family", "inorder6"
                )
                self.jobs_by_family[family] = (
                    self.jobs_by_family.get(family, 0) + 1
                )
            else:
                self.queue.fail(outcome["job"], outcome["error"])
                self.jobs_failed += 1

    async def _scheduler_loop(self) -> None:
        """Claim -> window -> coalesce -> dispatch, forever.

        The batch window is measured from the *oldest claimed job's
        enqueue time* — a job that already sat queued for the window
        (or longer, on a busy server) dispatches immediately, so the
        window bounds per-job latency overhead by construction.  The
        wait is also capped by the last batch's run time: a straggler
        that misses the batch waits at most about one pass for the
        next, so waiting longer for it costs the claimed jobs more than
        sharing the pass saves.
        """
        loop = asyncio.get_running_loop()
        window_s = max(self.batch_window_ms, 0.0) / 1000.0
        while not self._stopping:
            claimed = self.queue.claim_many("scheduler", self.max_batch)
            if not claimed:
                self._wake.clear()
                if self.queue.depth():
                    continue  # enqueued between claim and clear
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=_IDLE_POLL_S
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            wait_ms = 0.0
            if window_s > 0 and len(claimed) < self.max_batch:
                oldest = min(triple[2] for triple in claimed)
                last_pass = self._last_pass_s
                wait_s = window_s if last_pass is None else min(
                    window_s, last_pass
                )
                remaining = oldest + wait_s - time.time()
                if remaining > 0:
                    await asyncio.sleep(remaining)
                    wait_ms = 1000.0 * remaining
                    self.stats.record_wait(wait_ms)
                    claimed += self.queue.claim_many(
                        "scheduler", self.max_batch - len(claimed)
                    )
            if window_s > 0:
                batches = form_batches(claimed, self.max_batch)
            else:
                # Batching disabled: strict job-at-a-time execution.
                batches = form_batches(claimed, 0)
            for batch in batches:
                batch.wait_ms = wait_ms
                await self._slots.acquire()
                self._inflight += 1
                future = loop.run_in_executor(
                    self._dispatch, self._run_batch, batch
                )
                future.add_done_callback(self._batch_done)

    def _batch_done(self, future) -> None:
        self._inflight -= 1
        self._slots.release()
        exc = future.exception()
        if exc is not None:  # _run_batch never raises by contract
            traceback.print_exception(exc)

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, doc = await self._respond(reader)
        except _HttpError as exc:
            status, doc = exc.status, {"error": str(exc)}
        except Exception:
            status, doc = 500, {"error": traceback.format_exc()}
        body = json.dumps(doc, indent=2).encode() + b"\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _HttpError(400, "empty request")
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad Content-Length")
        if content_length > _MAX_BODY:
            raise _HttpError(400, f"body exceeds {_MAX_BODY} bytes")
        raw = (
            await reader.readexactly(content_length)
            if content_length else b""
        )
        return self._route(method.upper(), target.split("?", 1)[0], raw)

    def _route(self, method: str, path: str, raw: bytes):
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise _HttpError(404, f"no such path {path!r}")
        rest = parts[1:]
        if rest == ["jobs"]:
            if method == "POST":
                return self._post_job(raw)
            if method == "GET":
                return 200, {
                    "schema": api.SCHEMA,
                    "jobs": [s.to_json() for s in self.queue.list()],
                }
            raise _HttpError(405, f"{method} not allowed on {path}")
        if len(rest) == 2 and rest[0] == "jobs" and method == "GET":
            return 200, self._status_of(rest[1]).to_json()
        if (len(rest) == 3 and rest[0] == "jobs" and rest[2] == "result"
                and method == "GET"):
            return self._get_result(rest[1])
        if rest == ["store", "stats"] and method == "GET":
            return 200, {
                "schema": api.SCHEMA,
                "store": self.store.describe(),
                "jobs": self.queue.counts(),
                "queue_depth": self.queue.depth(),
            }
        if rest == ["metrics"] and method == "GET":
            return 200, self._metrics()
        if rest == ["healthz"] and method == "GET":
            return 200, {
                "schema": api.SCHEMA,
                "ok": True,
                "jobs": self.queue.counts(),
                "queue_depth": self.queue.depth(),
                "inflight_batches": self._inflight,
                "workers": self.workers,
                "batching": {
                    "batch_window_ms": self.batch_window_ms,
                    "max_batch": self.max_batch,
                },
            }
        raise _HttpError(404, f"no such path {path!r}")

    def _metrics(self):
        return {
            "schema": api.SCHEMA,
            "kind": "service-metrics",
            "batching": self.stats.to_json(),
            "queue_depth": self.queue.depth(),
            "inflight_batches": self._inflight,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_by_family": dict(
                sorted(self.jobs_by_family.items())
            ),
            "config": {
                "batch_window_ms": self.batch_window_ms,
                "max_batch": self.max_batch,
                "workers": self.workers,
            },
        }

    def _post_job(self, raw: bytes):
        try:
            doc = json.loads(raw.decode() or "null")
        except ValueError:
            raise _HttpError(400, "request body is not valid JSON")
        try:
            requests = api.requests_from_json(doc)
            normalized = api.grid_request_to_json(requests)
        except api.ApiError as exc:
            raise _HttpError(400, str(exc))
        job_id = self.queue.submit(normalized)
        if self._wake is not None:
            self._wake.set()
        return 202, self._status_of(job_id).to_json()

    def _status_of(self, job_id: str) -> api.JobStatus:
        status = self.queue.get(job_id)
        if status is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return status

    def _get_result(self, job_id: str):
        status = self._status_of(job_id)
        if status.state == "done":
            return 200, self.queue.result_doc(job_id)
        if status.state == "failed":
            return 500, {
                "error": status.error or "job failed",
                "job": job_id,
                "state": status.state,
            }
        raise _HttpError(
            409, f"job {job_id!r} is {status.state}, not finished"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the socket, recover the queue, start the scheduler."""
        self._wake = asyncio.Event()
        recovered = self.queue.recover()
        if recovered:
            self._wake.set()
        self._dispatch = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self._slots = asyncio.Semaphore(self.workers)
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler_task = asyncio.ensure_future(self._scheduler_loop())
        self.ready.set()

    async def stop(self) -> None:
        """Stop accepting, cancel the scheduler, close queue and store."""
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            await asyncio.gather(
                self._scheduler_task, return_exceptions=True
            )
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=False)
        self.queue.close()
        self.store.close()

    # ------------------------------------------------------------------ #
    # Embedding helper (tests, benchmarks, notebooks)
    # ------------------------------------------------------------------ #

    def start_in_thread(self, timeout: float = 10.0) -> "ServiceThread":
        """Run this service on a daemon thread; returns a stop handle."""
        handle = ServiceThread(self)
        handle.start(timeout=timeout)
        return handle


class ServiceThread:
    """A service running on its own event-loop thread (test harness)."""

    def __init__(self, service: EstimationService) -> None:
        self.service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_requested: asyncio.Event | None = None

    def start(self, timeout: float = 10.0) -> None:
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def _main() -> None:
                self._stop_requested = asyncio.Event()
                await self.service.start()
                started.set()
                await self._stop_requested.wait()
                # Run stop() to completion here: cancelling it with the
                # loop's leftover tasks would skip closing the queue.
                await self.service.stop()

            try:
                loop.run_until_complete(_main())
            finally:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("service failed to start in time")

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop_requested.set)
        except RuntimeError:
            pass  # the loop already finished
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
