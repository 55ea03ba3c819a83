"""Adaptive window-analysis executors: registry, cost model, fork safety.

The window-analysis fan-out (:class:`~repro.dta.windowpool.WindowAnalysisPool`)
used to be a fixed fork pool: ``workers > 1`` meant fork, full stop.  That
loses on two host shapes the serving layer actually runs on — a 1-CPU
container, where fork + pickling overhead swamps the win (0.62x wall vs
serial in ``BENCH_window_pool.json``), and a multi-threaded service
process, where forking is outright unsafe.  This module replaces the
fixed policy with named *executors* selected through a registry:

``local-serial``
    Always runs tasks in-process.  No shared state, safe from any thread.
``local-fork``
    The fork pool, taken on request — but it still refuses to fork when
    the platform has no fork start method or when other live non-daemon
    threads exist (forking a multi-threaded process duplicates held
    locks into the child), degrading to the serial path instead.
``auto`` (the default)
    A cost model decides.  Fan-out must *pay*: it needs >= 2 usable
    CPUs, enough tasks, fork safety, and — when a measured per-task
    cost is available from the process-wide ``pool_task_ms`` counter —
    a predicted parallel time beating serial by a real margin.

Every ``map`` resolves to an :class:`ExecutionPlan` first (which
executor actually runs, how many workers, the chunk size, and the
degrade reason if any); the most recent plan is kept per-thread for
telemetry (:func:`last_execution_plan`) and the benchmark's
``executor`` section.

Thread safety: the fork hand-off global is written only under
:data:`_FORK_LOCK`, held for the whole pooled map, so two concurrent
``map`` calls (e.g. from two service worker threads) can never swap
each other's ``(func, context)``; the serial path does not touch the
global at all.  New executors (multi-host, queue-backed) plug in with
:func:`register_executor` instead of a rewrite.

The module also owns the one worker->parent shared-memory hand-off
(:func:`share_bytes` / :func:`adopt_bytes`), used by the fork pool's
activity-trace deltas and the service's spawned job processes alike.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.kernels import kernel_stats

__all__ = [
    "ExecutionPlan",
    "PoolCostModel",
    "WindowExecutor",
    "SerialWindowExecutor",
    "ForkWindowExecutor",
    "AutoWindowExecutor",
    "register_executor",
    "get_executor",
    "available_executors",
    "effective_cpus",
    "fork_available",
    "fork_safe",
    "observed_task_ms",
    "last_execution_plan",
    "execute_plan",
    "in_pool_worker",
    "share_bytes",
    "adopt_bytes",
    "SHM_MIN_BYTES",
    "pool_cost_model",
    "calibrate_pool_costs",
    "measure_pool_costs",
]

# ---------------------------------------------------------------------- #
# Cost-model constants (milliseconds)
# ---------------------------------------------------------------------- #

#: Built-in fallback for the one-off cost of standing a fork pool up
#: (pool plumbing + first fork).  The ``auto`` executor prefers a
#: per-host *measured* value — see :func:`calibrate_pool_costs`.
POOL_STARTUP_MS = 25.0
#: Built-in fallback for the marginal cost per forked worker
#: (fork + warm-up + teardown).
WORKER_SPAWN_MS = 20.0
#: Environment overrides for the two costs above.  When either is set,
#: it wins over both the persisted calibration and the defaults —
#: reproducible tests pin the cost model this way.
POOL_STARTUP_ENV = "REPRO_POOL_STARTUP_MS"
WORKER_SPAWN_ENV = "REPRO_WORKER_SPAWN_MS"
#: Fewer tasks than this never fork: even free workers cannot amortize.
MIN_TASKS_TO_FORK = 4
#: Predicted serial/parallel ratio required before ``auto`` forks.
MIN_SPEEDUP_MARGIN = 1.2
#: Small tasks are batched until a chunk is worth one pipe round-trip.
TARGET_CHUNK_MS = 25.0
#: One-off cost of standing up a *spawned* (not forked) worker process —
#: a fresh interpreter plus the repro import graph.  Two orders of
#: magnitude above :data:`WORKER_SPAWN_MS`, which is why spawned workers
#: only make sense when they are persistent (the service worker pool
#: amortizes this over the process lifetime, not per map).
SPAWN_STARTUP_MS = 1500.0
#: Worker->parent payloads smaller than this stay on the result pipe;
#: pickling a few KiB is cheaper than standing a shared-memory segment
#: up.  Above it, the bytes cross through one
#: ``multiprocessing.shared_memory`` block instead.
SHM_MIN_BYTES = 1 << 16


def effective_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the platform offers the fork start method at all."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_safe() -> bool:
    """Whether forking right now is safe: no *other* live non-daemon thread.

    Forking a multi-threaded process copies only the calling thread; any
    lock another thread holds at fork time stays locked forever in the
    child.  The service's job-executor threads are exactly this shape,
    so a map running on one must never fork — it routes to the serial
    path instead (see :meth:`ForkWindowExecutor.plan`).
    """
    current = threading.current_thread()
    return not any(
        t.is_alive() and not t.daemon and t is not current
        for t in threading.enumerate()
    )


def observed_task_ms() -> float | None:
    """Measured mean per-task cost from the process-wide pool counters."""
    stats = kernel_stats()
    if stats.pool_tasks <= 0:
        return None
    return stats.pool_task_ms / stats.pool_tasks


# ---------------------------------------------------------------------- #
# Per-host pool-cost calibration
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class PoolCostModel:
    """The fork-pool overhead costs the ``auto`` executor plans with.

    Attributes:
        pool_startup_ms: One-off cost of standing the pool up.
        worker_spawn_ms: Marginal cost per forked worker.
        source: Where the numbers came from — ``"env"`` (the
            :data:`POOL_STARTUP_ENV` / :data:`WORKER_SPAWN_ENV`
            overrides), ``"store"`` (a persisted per-host calibration),
            ``"measured"`` (a fresh measurement on this host), or
            ``"default"`` (the built-in constants).
    """

    pool_startup_ms: float = POOL_STARTUP_MS
    worker_spawn_ms: float = WORKER_SPAWN_MS
    source: str = "default"

    def to_json(self) -> dict:
        return {
            "pool_startup_ms": self.pool_startup_ms,
            "worker_spawn_ms": self.worker_spawn_ms,
            "source": self.source,
        }


#: Store namespace + per-host key the calibration persists under.
_CALIBRATION_NAMESPACE = "calibration"

_COST_LOCK = threading.Lock()
_COST_MODEL: PoolCostModel | None = None


def _calibration_key() -> str:
    return f"pool-cost/{platform.node() or 'unknown-host'}"


def _env_cost_model() -> PoolCostModel | None:
    """The env-override cost model, or ``None`` when neither var is set."""
    startup = os.environ.get(POOL_STARTUP_ENV)
    spawn = os.environ.get(WORKER_SPAWN_ENV)
    if startup is None and spawn is None:
        return None

    def _parse(text: str | None, fallback: float) -> float:
        if text is None:
            return fallback
        try:
            return max(float(text), 0.0)
        except ValueError:
            return fallback

    return PoolCostModel(
        pool_startup_ms=_parse(startup, POOL_STARTUP_MS),
        worker_spawn_ms=_parse(spawn, WORKER_SPAWN_MS),
        source="env",
    )


def _noop_task(_index: int) -> None:
    return None


def _timed_pool_ms(workers: int) -> float:
    """Wall ms to stand up, exercise, and tear down a fork pool."""
    mp_context = multiprocessing.get_context("fork")
    start = time.perf_counter()
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=mp_context
    ) as pool:
        list(pool.map(_noop_task, range(workers)))
    return 1000.0 * (time.perf_counter() - start)


def measure_pool_costs() -> PoolCostModel:
    """Measure this host's fork-pool overheads.

    Times a 1-worker and a 3-worker pool over no-op tasks; the slope
    gives the marginal per-worker spawn cost and the intercept the
    one-off pool startup.  Falls back to the built-in defaults when
    forking is unavailable or currently unsafe.
    """
    if not fork_available() or not fork_safe():
        return PoolCostModel(source="default")
    try:
        t1 = _timed_pool_ms(1)
        t3 = _timed_pool_ms(3)
    except OSError:
        return PoolCostModel(source="default")
    spawn = max((t3 - t1) / 2.0, 1.0)
    startup = max(t1 - spawn, 1.0)
    return PoolCostModel(
        pool_startup_ms=round(startup, 3),
        worker_spawn_ms=round(spawn, 3),
        source="measured",
    )


def calibrate_pool_costs(store=None, force: bool = False) -> PoolCostModel:
    """Resolve (once per process) the per-host pool cost model.

    Precedence: the :data:`POOL_STARTUP_ENV` / :data:`WORKER_SPAWN_ENV`
    environment overrides (reproducible tests; never measured, never
    persisted) > a calibration previously persisted for this host in
    ``store`` (an :class:`~repro.pipeline.store.ArtifactStore`) > a
    fresh :func:`measure_pool_costs` measurement, persisted to ``store``
    when one is given > the built-in defaults.  ``force=True`` discards
    the process cache and any persisted entry and re-measures.
    """
    global _COST_MODEL
    env = _env_cost_model()
    if env is not None:
        return env
    with _COST_LOCK:
        if _COST_MODEL is not None and not force:
            return _COST_MODEL
        key = _calibration_key()
        if store is not None and not force:
            doc = store.get_entry(_CALIBRATION_NAMESPACE, key)
            if isinstance(doc, dict):
                try:
                    _COST_MODEL = PoolCostModel(
                        pool_startup_ms=float(doc["pool_startup_ms"]),
                        worker_spawn_ms=float(doc["worker_spawn_ms"]),
                        source="store",
                    )
                    return _COST_MODEL
                except (KeyError, TypeError, ValueError):
                    pass  # corrupt entry: fall through and re-measure
        measured = measure_pool_costs()
        if store is not None and measured.source == "measured":
            store.put_entry(
                _CALIBRATION_NAMESPACE, key, measured.to_json()
            )
        _COST_MODEL = measured
        return _COST_MODEL


def pool_cost_model() -> PoolCostModel:
    """The cost model ``auto`` currently plans with (no measurement).

    Env overrides win; otherwise the process's cached
    :func:`calibrate_pool_costs` result; otherwise the defaults.
    """
    env = _env_cost_model()
    if env is not None:
        return env
    with _COST_LOCK:
        if _COST_MODEL is not None:
            return _COST_MODEL
    return PoolCostModel()


# ---------------------------------------------------------------------- #
# The plan
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExecutionPlan:
    """How one ``map`` call will actually run.

    Attributes:
        requested: Executor name the caller asked for.
        executor: Executor that will actually run (``local-serial`` or
            ``local-fork``) — differs from ``requested`` when the request
            was degraded or ``auto`` resolved it.
        workers: Resolved worker count (1 on the serial path).
        chunk_size: Task indices dispatched per pool submission.
        n_tasks: Total task count of the map.
        reason: Why a parallel-capable request ended serial (cost model,
            CPU budget, fork safety); empty when the plan forked or the
            caller asked for serial.
    """

    requested: str
    executor: str
    workers: int
    chunk_size: int
    n_tasks: int
    reason: str = ""

    @property
    def parallel(self) -> bool:
        return self.executor == "local-fork" and self.workers > 1

    def to_json(self) -> dict:
        return {
            "requested": self.requested,
            "executor": self.executor,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
            "n_tasks": self.n_tasks,
            "reason": self.reason,
        }


_TLS = threading.local()


def last_execution_plan() -> ExecutionPlan | None:
    """The most recent :class:`ExecutionPlan` resolved on this thread."""
    return getattr(_TLS, "plan", None)


def _serial_plan(requested: str, n_tasks: int, reason: str = "") -> ExecutionPlan:
    return ExecutionPlan(
        requested=requested,
        executor="local-serial",
        workers=1,
        chunk_size=1,
        n_tasks=n_tasks,
        reason=reason,
    )


def _chunk_size(n_tasks: int, workers: int, task_ms: float | None) -> int:
    """Tasks per pool submission: balanced, but worth a pipe round-trip.

    Four chunks per worker keeps the LPT-style balance of the dynamic
    pool assignment; very small tasks are batched further until a chunk
    is expected to run ~:data:`TARGET_CHUNK_MS`.
    """
    per_worker = math.ceil(n_tasks / workers)
    chunk = max(1, math.ceil(n_tasks / (workers * 4)))
    if task_ms is not None and task_ms > 0:
        chunk = max(chunk, math.ceil(TARGET_CHUNK_MS / task_ms))
    return max(1, min(chunk, per_worker))


# ---------------------------------------------------------------------- #
# Fork hand-off (module state: written only under the lock)
# ---------------------------------------------------------------------- #

#: Serializes pooled maps process-wide: the hand-off global below is set
#: and the workers are forked while this lock is held, so concurrent
#: maps from different threads can never observe each other's state.
_FORK_LOCK = threading.Lock()

#: (task function, shared context) inherited by forked workers through
#: fork's copy-on-write memory — which is what lets ``context`` hold
#: arbitrarily heavy analyzer state without pickling it.
_WORKER_STATE: tuple | None = None


def in_pool_worker() -> bool:
    """True while a forked pool worker runs one of its map's tasks.

    Only then does a task's result cross a process boundary: a task of
    a nested serial map inside that worker returns in-process.  Used by
    :meth:`ActivityCache.export_shared_since` to decide whether a
    shared-memory hand-off to the parent is worth anything.
    """
    return getattr(_TLS, "forked_task", False)


def _run_chunk(indices: tuple[int, ...]):
    """Worker-side chunk runner: results + kernel-stats delta + task ms."""
    func, context = _WORKER_STATE
    _TLS.forked_task = True
    before = kernel_stats().snapshot()
    results = []
    task_ms = []
    for index in indices:
        start = time.perf_counter()
        results.append(func(context, index))
        task_ms.append(int(1000 * (time.perf_counter() - start)))
    return results, kernel_stats().delta(before).to_json(), task_ms


def _execute_serial(plan: ExecutionPlan, func, context, count_tasks) -> list:
    """Run the plan in-process.  Touches no shared module state."""
    stats = kernel_stats()
    stats.pool_maps_serial += 1
    if plan.requested != "local-serial" and plan.reason:
        stats.pool_maps_degraded += 1
    forked_task, _TLS.forked_task = in_pool_worker(), False
    results = []
    try:
        for index in range(plan.n_tasks):
            start = time.perf_counter()
            results.append(func(context, index))
            if count_tasks:
                stats.pool_tasks += 1
                stats.pool_task_ms += int(
                    1000 * (time.perf_counter() - start)
                )
    finally:
        _TLS.forked_task = forked_task
    return results


def _execute_fork(plan: ExecutionPlan, func, context, count_tasks) -> list:
    """Run the plan on a fork pool, chunked, results in task order."""
    global _WORKER_STATE
    chunks = [
        tuple(range(lo, min(lo + plan.chunk_size, plan.n_tasks)))
        for lo in range(0, plan.n_tasks, plan.chunk_size)
    ]
    with _FORK_LOCK:
        # The workers inherit the hand-off state at fork; the tracker
        # must already be running in the parent so worker-created
        # shared-memory segments outlive the workers (the parent adopts
        # and unlinks them after the pool is gone, see adopt_bytes).
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        _WORKER_STATE = (func, context)
        try:
            mp_context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=min(plan.workers, len(chunks)),
                mp_context=mp_context,
            ) as pool:
                raw = list(pool.map(_run_chunk, chunks))
        finally:
            _WORKER_STATE = None
    stats = kernel_stats()
    stats.pool_maps_forked += 1
    stats.pool_chunks += len(chunks)
    results = []
    for chunk_results, delta, task_ms in raw:
        stats.merge(delta)
        if count_tasks:
            stats.pool_tasks += len(chunk_results)
            stats.pool_task_ms += sum(task_ms)
        results.extend(chunk_results)
    return results


# ---------------------------------------------------------------------- #
# Shared-memory hand-off (worker -> parent bytes)
# ---------------------------------------------------------------------- #


def share_bytes(data: bytes, min_bytes: float = SHM_MIN_BYTES) -> dict:
    """The hand-off payload carrying ``data`` to another process.

    Below ``min_bytes`` (and on any shared-memory failure) the bytes
    travel inline in the payload; above it they are copied once into a
    ``multiprocessing.shared_memory`` block and only its name crosses
    the pipe.  The receiver must call :func:`adopt_bytes` exactly once,
    which unlinks the block.
    """
    if data and len(data) >= min_bytes:
        try:
            from multiprocessing import shared_memory

            block = shared_memory.SharedMemory(create=True, size=len(data))
        except Exception:
            block = None
        if block is not None:
            block.buf[: len(data)] = data
            block.close()
            return {"kind": "shm", "name": block.name, "bytes": len(data)}
    return {"kind": "inline", "data": data}


def adopt_bytes(payload: dict) -> bytes:
    """Exact inverse of :func:`share_bytes`.

    A shared-memory payload is consumed: its block is unlinked and its
    size is counted in the ``pool_shm_bytes`` kernel counter.
    """
    if payload["kind"] == "inline":
        return payload["data"]
    from multiprocessing import shared_memory

    nbytes = int(payload["bytes"])
    block = shared_memory.SharedMemory(name=payload["name"])
    try:
        data = bytes(block.buf[:nbytes])
    finally:
        block.close()
        block.unlink()
    kernel_stats().pool_shm_bytes += nbytes
    return data


def execute_plan(
    plan: ExecutionPlan, func, context, *, count_tasks: bool = True
) -> list:
    """Evaluate ``func(context, i)`` for ``i in range(n_tasks)`` per plan.

    Results come back in task order on either path, which is the
    contract callers rely on for byte-identical parallel output.
    ``count_tasks=False`` keeps the tasks out of ``pool_tasks`` /
    ``pool_task_ms``, the per-task cost the ``auto`` executor plans
    window maps with — for maps whose tasks are whole jobs.
    """
    _TLS.plan = plan
    if plan.parallel:
        return _execute_fork(plan, func, context, count_tasks)
    return _execute_serial(plan, func, context, count_tasks)


# ---------------------------------------------------------------------- #
# Executors
# ---------------------------------------------------------------------- #


class WindowExecutor:
    """One named way of running a window-analysis map."""

    name: str = ""

    def plan(
        self, n_tasks: int, workers: int, task_ms: float | None = None
    ) -> ExecutionPlan:
        raise NotImplementedError

    def map(self, func, context, n_tasks: int, workers: int) -> list:
        return execute_plan(self.plan(n_tasks, workers), func, context)


class SerialWindowExecutor(WindowExecutor):
    """Always in-process; safe from any thread, no shared state."""

    name = "local-serial"

    def plan(
        self, n_tasks: int, workers: int, task_ms: float | None = None
    ) -> ExecutionPlan:
        return _serial_plan(self.name, n_tasks)


class ForkWindowExecutor(WindowExecutor):
    """Fork on request — degrading to serial only when fork is unsafe.

    An explicit ``local-fork`` request trusts the caller's worker count
    (no CPU-budget or cost-model second-guessing: determinism tests use
    it to exercise the real fork path on any host), but it never forks
    a process it would corrupt.
    """

    name = "local-fork"

    def plan(
        self, n_tasks: int, workers: int, task_ms: float | None = None
    ) -> ExecutionPlan:
        if workers <= 1 or n_tasks <= 1:
            # Not a degrade: the request was never parallel-capable.
            return _serial_plan(self.name, n_tasks)
        if not fork_available():
            return _serial_plan(
                self.name, n_tasks, "platform has no fork start method"
            )
        if not fork_safe():
            return _serial_plan(
                self.name, n_tasks,
                "live non-daemon threads make forking unsafe",
            )
        workers = min(workers, n_tasks)
        if task_ms is None:
            task_ms = observed_task_ms()
        return ExecutionPlan(
            requested=self.name,
            executor="local-fork",
            workers=workers,
            chunk_size=_chunk_size(n_tasks, workers, task_ms),
            n_tasks=n_tasks,
        )


class AutoWindowExecutor(WindowExecutor):
    """Cost-model arbitration between the serial and fork executors.

    Fan-out happens only when it is predicted to pay: a usable CPU per
    extra worker, enough tasks to amortize the fork, fork safety, and —
    when a measured per-task cost exists — a modelled parallel time
    beating serial by :data:`MIN_SPEEDUP_MARGIN`.  Everything else runs
    in-process, so the pool can never lose to serial by construction.
    """

    name = "auto"

    def plan(
        self, n_tasks: int, workers: int, task_ms: float | None = None
    ) -> ExecutionPlan:
        if workers <= 1 or n_tasks <= 1:
            # Not a degrade: the request was never parallel-capable.
            return _serial_plan(self.name, n_tasks)
        if not fork_available():
            return _serial_plan(
                self.name, n_tasks, "platform has no fork start method"
            )
        if not fork_safe():
            return _serial_plan(
                self.name, n_tasks,
                "live non-daemon threads make forking unsafe",
            )
        cpus = effective_cpus()
        if cpus < 2:
            return _serial_plan(
                self.name, n_tasks, f"only {cpus} usable CPU"
            )
        if n_tasks < MIN_TASKS_TO_FORK:
            return _serial_plan(
                self.name, n_tasks,
                f"{n_tasks} tasks cannot amortize a fork",
            )
        workers = min(workers, n_tasks, cpus)
        if workers < 2:
            return _serial_plan(
                self.name, n_tasks, "CPU budget leaves a single worker"
            )
        if task_ms is None:
            task_ms = observed_task_ms()
        if task_ms is not None:
            costs = pool_cost_model()
            serial_ms = task_ms * n_tasks
            parallel_ms = (
                costs.pool_startup_ms
                + costs.worker_spawn_ms * workers
                + serial_ms / workers
            )
            if serial_ms < parallel_ms * MIN_SPEEDUP_MARGIN:
                return _serial_plan(
                    self.name,
                    n_tasks,
                    f"predicted fan-out cannot pay "
                    f"({serial_ms:.0f}ms serial vs {parallel_ms:.0f}ms "
                    f"forked x{workers})",
                )
        return ExecutionPlan(
            requested=self.name,
            executor="local-fork",
            workers=workers,
            chunk_size=_chunk_size(n_tasks, workers, task_ms),
            n_tasks=n_tasks,
        )


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

_EXECUTORS: dict[str, WindowExecutor] = {}


def register_executor(
    executor: WindowExecutor, replace: bool = False
) -> WindowExecutor:
    """Register an executor under its ``name`` (multi-host / pool hook).

    ``replace=True`` makes the registration idempotent for modules that
    register at import time.
    """
    if not executor.name:
        raise ValueError("executor must carry a non-empty name")
    if executor.name in _EXECUTORS and not replace:
        raise ValueError(
            f"executor {executor.name!r} is already registered"
        )
    _EXECUTORS[executor.name] = executor
    return executor


def get_executor(name: str) -> WindowExecutor:
    """The registered executor called ``name``."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor {name!r}; "
            f"available: {', '.join(_EXECUTORS)}"
        ) from None


def available_executors() -> list[str]:
    """Registered executor names, in registration order."""
    return list(_EXECUTORS)


register_executor(SerialWindowExecutor())
register_executor(ForkWindowExecutor())
register_executor(AutoWindowExecutor())
