"""Persistent spawned worker processes for the estimation service.

The service used to execute every job on an in-process worker thread.
Threads share the GIL, so ``workers > 1`` buys concurrency (two jobs in
flight) but not parallelism (two jobs *computing*), and the window-
analysis fork pool refuses to fork under the service's live non-daemon
threads (:func:`repro.dta.executor.fork_safe`).  This module moves job
execution onto a :class:`WorkerPool` of long-lived *spawned* processes:

* each worker is a fresh interpreter owning one warm
  :class:`~repro.pipeline.pipeline.EstimationPipeline` over the shared
  on-disk :class:`~repro.pipeline.store.ArtifactStore` (concurrent-
  writer safe), so the warm-reuse contract holds across processes
  exactly as it does across threads;
* a spawn costs ~:data:`~repro.dta.executor.SPAWN_STARTUP_MS` — two
  orders of magnitude above a fork — which is why the processes are
  persistent: the pool pays the spawn once and amortizes it over the
  service lifetime, not per batch;
* whether a pool pays at all is decided by :func:`plan_worker_pool`,
  which resolves an :class:`~repro.dta.executor.ExecutionPlan` in the
  same cost-model vocabulary (spawn availability, CPU budget, degrade
  reasons) the window executors use — on a 1-CPU host the plan degrades
  and the service keeps executing in-thread.  The plan is not a window
  executor: the pool runs *jobs*, so it is not in the executor registry;
* results travel back over the worker pipe, except large payloads,
  which go through ``multiprocessing.shared_memory`` — the same
  :func:`~repro.dta.executor.share_bytes` hand-off (threshold and
  ``pool_shm_bytes`` accounting) as the window pool's trace deltas;
* each worker ships its :class:`~repro.kernels.KernelStats` delta with
  every batch and the parent merges it, so process-wide counters stay
  truthful across the process boundary.

Crash containment: a worker dying mid-batch raises
:class:`WorkerCrashed` in the dispatching thread and is respawned in
place; the scheduler requeues the batch's jobs (see
:meth:`~repro.service.queue.JobQueue.requeue`), so a ``SIGKILL``-ed
worker loses no work and duplicates none.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

from repro.dta.executor import (
    ExecutionPlan,
    _serial_plan,
    adopt_bytes,
    effective_cpus,
    share_bytes,
)
from repro.kernels import kernel_stats

__all__ = ["WorkerCrashed", "WorkerPool", "plan_worker_pool"]

#: The plan name of the spawned job pool.
POOL_NAME = "service-pool"

#: Environment hook for crash tests: when set to a filesystem path that
#: does not exist yet, the *first* worker batch creates the file and
#: hard-exits the process — exactly one crash, deterministic retries.
CRASH_ONCE_ENV = "REPRO_WORKER_CRASH_ONCE"


class WorkerCrashed(RuntimeError):
    """A pool worker died before returning its batch.

    Attributes:
        worker: Index of the worker that died.
        exitcode: The process exit code (``None`` if unknown).
    """

    def __init__(self, worker: int, exitcode) -> None:
        super().__init__(
            f"worker process {worker} died (exitcode {exitcode})"
        )
        self.worker = worker
        self.exitcode = exitcode


# --------------------------------------------------------------------- #
# The plan (cost-models whether a pool pays)
# --------------------------------------------------------------------- #


def plan_worker_pool(
    n_tasks: int, workers: int, *, force: bool = False
) -> ExecutionPlan:
    """Should the service stand up ``workers`` spawned job processes?

    Answers for batches of up to ``n_tasks`` jobs in the shared
    :class:`ExecutionPlan` vocabulary: the plan comes back with
    ``executor == "service-pool"`` and a resolved worker count when the
    pool is predicted to pay, or degraded to ``local-serial`` with the
    reason (no spawn support, single usable CPU) when it is not.
    ``force=True`` trusts an explicit worker count — the crash and
    determinism tests use it to exercise the real spawn path on any
    host — gated only by spawn availability.
    """
    if workers < 1 or n_tasks < 1:
        # Not a degrade: the request was never pool-capable.
        return _serial_plan(POOL_NAME, n_tasks)
    if "spawn" not in multiprocessing.get_all_start_methods():
        return _serial_plan(
            POOL_NAME, n_tasks, "platform has no spawn start method"
        )
    if not force:
        cpus = effective_cpus()
        if cpus < 2:
            return _serial_plan(
                POOL_NAME, n_tasks,
                f"only {cpus} usable CPU: spawned job processes would"
                f" contend with the service instead of parallelizing it",
            )
        workers = min(workers, cpus)
    return ExecutionPlan(
        requested=POOL_NAME,
        executor=POOL_NAME,
        workers=workers,
        chunk_size=1,
        n_tasks=n_tasks,
    )


# --------------------------------------------------------------------- #
# Worker side (a fresh spawned interpreter)
# --------------------------------------------------------------------- #


def _crash_once_hook() -> None:
    path = os.environ.get(CRASH_ONCE_ENV)
    if not path or os.path.exists(path):
        return
    with open(path, "w") as marker:
        marker.write(str(os.getpid()))
    os._exit(17)


def _ship(conn, outcomes: list[dict], stats_delta: dict) -> None:
    """Send a batch result inline, or via shared memory when large."""
    conn.send((share_bytes(json.dumps(outcomes).encode()), stats_delta))


def _worker_main(conn, init: dict) -> None:
    """Body of one pool process: warm pipeline, batch loop.

    ``init`` carries everything the pipeline needs (the spawn start
    method pickles it into the fresh interpreter): the store path —
    never the store object, each process opens its own connection to
    the shared on-disk store — plus the pipeline knobs the service was
    configured with.
    """
    from repro.pipeline.pipeline import EstimationPipeline
    from repro.pipeline.store import ArtifactStore
    from repro.service.scheduler import execute_batch_jobs

    store = ArtifactStore(
        init["store_path"], max_bytes=init["store_budget"]
    )
    pipeline = EstimationPipeline(
        init["config"],
        backends=init["backends"],
        store=store,
        n_data_samples=init["n_data_samples"],
        window_workers=init["window_workers"],
        executor=init["executor"],
    )
    stats = kernel_stats()
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _kind, jobs, batch_info = message
            _crash_once_hook()
            before = stats.snapshot()
            outcomes = execute_batch_jobs(pipeline, jobs, batch_info)
            _ship(conn, outcomes, stats.delta(before).to_json())
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        store.close()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class _Worker:
    """Parent-side record of one pool process."""

    __slots__ = (
        "index", "process", "conn", "batches", "jobs",
        "busy_ms", "respawns", "started_at",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.batches = 0
        self.jobs = 0
        self.busy_ms = 0.0
        self.respawns = 0
        self.started_at = 0.0


class WorkerPool:
    """A fixed-size pool of persistent spawned job processes.

    Args:
        processes: Pool width (from a resolved :func:`plan_worker_pool`).
        store_path: The shared on-disk store directory; every worker
            opens its own handle (the store is concurrent-writer safe).
        config: :class:`~repro.pipeline.ir.ProcessorConfig` for every
            worker pipeline (pickled into the spawned interpreter).
        n_data_samples / backends / window_workers / executor /
        store_budget: Pipeline knobs, mirrored from the service.

    ``run_batch`` is thread-safe: the service's dispatch threads check
    workers out under a condition variable, so up to ``processes``
    batches execute truly in parallel and further dispatches queue for
    the next idle worker.
    """

    def __init__(
        self,
        processes: int,
        store_path,
        config,
        *,
        n_data_samples: int = 128,
        backends: dict | None = None,
        window_workers: int = 1,
        executor: str = "auto",
        store_budget: int | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self._init = {
            "store_path": str(store_path),
            "config": config,
            "n_data_samples": n_data_samples,
            "backends": backends,
            "window_workers": window_workers,
            "executor": executor,
            "store_budget": store_budget,
        }
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._workers = [_Worker(i) for i in range(processes)]
        self._available = list(range(processes))
        self._closed = False
        for worker in self._workers:
            self._spawn(worker)

    # -- process lifecycle --------------------------------------------- #

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # Not daemonic: a daemonic process cannot create children, which
        # would break the worker's own window-analysis fan-out.  Orphans
        # are impossible anyway — when the parent dies, the pipe closes
        # and the worker loop exits on EOFError.
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._init),
            name=f"repro-pool-{worker.index}",
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.started_at = time.monotonic()

    @staticmethod
    def _reap(worker: _Worker):
        """Collect a dead worker's exit code (``None`` if it lingers)."""
        worker.process.join(timeout=1.0)
        return worker.process.exitcode

    def _respawn(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        worker.respawns += 1
        self._spawn(worker)

    # -- dispatch ------------------------------------------------------ #

    def _checkout(self) -> _Worker:
        with self._idle:
            while not self._available:
                if self._closed:
                    raise RuntimeError("worker pool is closed")
                self._idle.wait()
            return self._workers[self._available.pop()]

    def _checkin(self, worker: _Worker) -> None:
        with self._idle:
            self._available.append(worker.index)
            self._idle.notify()

    def run_batch(self, jobs, batch_info: dict | None = None) -> list[dict]:
        """Execute one batch on the next idle worker.

        Blocks until a worker is free, then until the batch returns.
        Raises :class:`WorkerCrashed` (after respawning the worker in
        place) if the process dies mid-batch; the caller owns requeuing
        the batch's jobs.
        """
        worker = self._checkout()
        start = time.monotonic()
        try:
            try:
                worker.conn.send(("batch", list(jobs), batch_info))
                while not worker.conn.poll(0.05):
                    if not worker.process.is_alive():
                        raise WorkerCrashed(
                            worker.index, self._reap(worker)
                        )
                reply = worker.conn.recv()
            except (BrokenPipeError, ConnectionResetError, EOFError):
                raise WorkerCrashed(
                    worker.index, self._reap(worker)
                ) from None
            except WorkerCrashed:
                raise
            outcomes = self._adopt(reply)
            worker.batches += 1
            worker.jobs += len(jobs)
            return outcomes
        except WorkerCrashed:
            self._respawn(worker)
            raise
        finally:
            worker.busy_ms += 1000.0 * (time.monotonic() - start)
            self._checkin(worker)

    @staticmethod
    def _adopt(reply) -> list[dict]:
        """Unpack a worker reply; merge its kernel-stats delta."""
        payload, delta = reply
        outcomes = json.loads(adopt_bytes(payload))
        kernel_stats().merge(delta)
        return outcomes

    # -- telemetry / lifecycle ----------------------------------------- #

    def describe(self) -> dict:
        """Pool shape and per-worker utilization for ``/v1/healthz``."""
        now = time.monotonic()
        with self._lock:
            idle = set(self._available)
            workers = []
            for worker in self._workers:
                uptime_ms = 1000.0 * max(now - worker.started_at, 1e-9)
                workers.append({
                    "pid": worker.process.pid,
                    "alive": worker.process.is_alive(),
                    "busy": worker.index not in idle,
                    "batches": worker.batches,
                    "jobs": worker.jobs,
                    "respawns": worker.respawns,
                    "utilization": round(
                        min(worker.busy_ms / uptime_ms, 1.0), 4
                    ),
                })
        return {"processes": self.processes, "workers": workers}

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; terminates any that ignore the request."""
        with self._idle:
            if self._closed:
                return
            self._closed = True
            self._idle.notify_all()
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        for worker in self._workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=timeout)
            try:
                worker.conn.close()
            except Exception:
                pass
