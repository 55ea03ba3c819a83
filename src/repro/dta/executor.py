"""Process fan-out primitives: the engine's fork map and fork safety.

Window analysis runs in-process, one window after another; the only
fork map left is the batch engine's ``--workers N`` group map
(:class:`~repro.runner.engine.EstimationEngine`).  This module plans it
(:func:`plan_fork_map`) and runs it (:func:`execute_plan`):

* A map resolves to an :class:`ExecutionPlan` first — which path
  actually runs (``local-fork`` or ``local-serial``), how many workers,
  the chunk size, and the degrade reason if any.  A plan never forks a
  process it would corrupt: it runs serially when the platform has no
  fork start method or when other live non-daemon threads exist
  (forking a multi-threaded process duplicates held locks into the
  child).
* Results come back in task order on either path, and worker-side
  :class:`~repro.kernels.KernelStats` deltas are merged into the
  parent's counters, so a forked map is byte-identical to a serial one
  and its telemetry survives the fan-out.

Thread safety: the fork hand-off global is written only under
:data:`_FORK_LOCK`, held for the whole pooled map, so two concurrent
maps from different threads can never swap each other's
``(func, context)``; the serial path does not touch the global at all.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.kernels import kernel_stats

__all__ = [
    "ExecutionPlan",
    "effective_cpus",
    "fork_available",
    "fork_safe",
    "plan_fork_map",
    "execute_plan",
]


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
    path instead (see :func:`plan_fork_map`).
    """
    current = threading.current_thread()
    return not any(
        t.is_alive() and not t.daemon and t is not current
        for t in threading.enumerate()
    )


# ---------------------------------------------------------------------- #
# The plan
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExecutionPlan:
    """How one map call will actually run.

    Attributes:
        requested: Path the caller asked for.
        executor: Path that will actually run (``local-serial`` or
            ``local-fork``) — differs from ``requested`` when the
            request was degraded.
        workers: Resolved worker count (1 on the serial path).
        chunk_size: Task indices dispatched per pool submission.
        n_tasks: Total task count of the map.
        reason: Why a parallel-capable request ended serial (CPU budget,
            fork safety); empty when the plan forked or the request was
            never parallel-capable.
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


def _serial_plan(n_tasks: int, reason: str = "") -> ExecutionPlan:
    return ExecutionPlan(
        requested="local-fork",
        executor="local-serial",
        workers=1,
        chunk_size=1,
        n_tasks=n_tasks,
        reason=reason,
    )


def plan_fork_map(n_tasks: int, workers: int) -> ExecutionPlan:
    """The plan of a fork map of ``n_tasks`` over ``workers`` processes.

    An explicit worker count is trusted (no CPU-budget second-guessing:
    determinism tests use it to exercise the real fork path on any
    host), but the plan never forks a process it would corrupt.  Tasks
    are dispatched in chunks of ``ceil(n / (4 * workers))`` — four
    chunks per worker keep the dynamic pool assignment balanced — capped
    at one worker's share.
    """
    if workers <= 1 or n_tasks <= 1:
        # Not a degrade: the request was never parallel-capable.
        return _serial_plan(n_tasks)
    if not fork_available():
        return _serial_plan(n_tasks, "platform has no fork start method")
    if not fork_safe():
        return _serial_plan(
            n_tasks, "live non-daemon threads make forking unsafe"
        )
    workers = min(workers, n_tasks)
    chunk = math.ceil(n_tasks / (4 * workers))
    return ExecutionPlan(
        requested="local-fork",
        executor="local-fork",
        workers=workers,
        chunk_size=min(chunk, math.ceil(n_tasks / workers)),
        n_tasks=n_tasks,
    )


# ---------------------------------------------------------------------- #
# Fork hand-off (module state: written only under the lock)
# ---------------------------------------------------------------------- #

#: Serializes pooled maps process-wide: the hand-off global below is set
#: and the workers are forked while this lock is held, so concurrent
#: maps from different threads can never observe each other's state.
_FORK_LOCK = threading.Lock()

#: (task function, shared context) inherited by forked workers through
#: fork's copy-on-write memory — which is what lets ``context`` hold
#: arbitrarily heavy state without pickling it.
_WORKER_STATE: tuple | None = None


def _run_chunk(indices: tuple[int, ...]):
    """Worker-side chunk runner: results + kernel-stats delta."""
    func, context = _WORKER_STATE
    before = kernel_stats().snapshot()
    results = [func(context, index) for index in indices]
    return results, kernel_stats().delta(before).to_json()


def _execute_serial(plan: ExecutionPlan, func, context) -> list:
    """Run the plan in-process.  Touches no shared module state."""
    stats = kernel_stats()
    stats.pool_maps_serial += 1
    if plan.reason:
        stats.pool_maps_degraded += 1
    return [func(context, index) for index in range(plan.n_tasks)]


def _execute_fork(plan: ExecutionPlan, func, context) -> list:
    """Run the plan on a fork pool, chunked, results in task order."""
    global _WORKER_STATE
    chunks = [
        tuple(range(lo, min(lo + plan.chunk_size, plan.n_tasks)))
        for lo in range(0, plan.n_tasks, plan.chunk_size)
    ]
    with _FORK_LOCK:
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
    for chunk_results, delta in raw:
        stats.merge(delta)
        results.extend(chunk_results)
    return results


def execute_plan(plan: ExecutionPlan, func, context) -> list:
    """Evaluate ``func(context, i)`` for ``i in range(n_tasks)`` per plan.

    Results come back in task order on either path, which is the
    contract callers rely on for byte-identical parallel output.
    ``context`` reaches fork workers through fork inheritance (not
    pickling); task *results* must be picklable.
    """
    if plan.parallel:
        return _execute_fork(plan, func, context)
    return _execute_serial(plan, func, context)
