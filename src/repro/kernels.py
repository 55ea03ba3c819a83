"""Vectorized DTS kernel layer: counters.

The hot loops of a characterization run — gate-by-gate logic simulation,
per-AP recomputation of path moments, and pairwise covariance assembly
for every Clark reduction — are replaced by batched numpy kernels (see
``LevelizedSimulator``, ``StageDTSAnalyzer``, and
``ProcessVariationModel.path_cov_matrix``).  Each kernel has exactly one
implementation; the straight-line scalar code it replaced is kept, frozen,
in the test suite (``tests/_reference.py``) as the oracle the parity
tests and the ``benchmarks/test_kernels.py`` microbenchmark compare
against.

This module holds :class:`KernelStats` — cheap counters (simulated
cycle-gates, Clark reductions performed vs. memo hits, covariance cells
computed) threaded through :class:`~repro.runner.engine.RunSummary` and
the report ``timing`` section so the speedup is measured, not asserted.
The counters are a per-process global; every job runs in this process,
and each job's figures are the delta between two snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["KernelStats", "kernel_stats"]


@dataclass(slots=True)
class KernelStats:
    """Counters for the kernel layer's hot paths (one per process).

    Attributes:
        sim_calls: Number of :meth:`LevelizedSimulator.evaluate` calls.
        sim_cycle_gates: Combinational gate evaluations performed, summed
            as (cycles x combinational gates) per call.
        flushed_state_reuses: ``activity()`` calls that reused the cached
            zero-stimulus settled state instead of re-simulating it.
        combine_calls: Statistical (non-empty AP set, clock period)
            cells passed to ``StageDTSAnalyzer.combine_grid``.
        combine_memo_hits: Of those, how many were served from the memo
            (or met earlier in the same call).
        clark_reductions: Pairwise Clark reductions actually performed.
        cov_cells_computed: Pairwise path-covariance cells computed
            (blocked precompute plus lazy cross-endpoint fills).
        cov_cache_hits: Covariance cells served from the cache.
        activity_cache_hits: Window activity traces served from the
            content-addressed :class:`ActivityCache` instead of simulated.
        activity_cache_misses: Activity-cache lookups that fell through
            to the logic simulator.
        windows_reused: Of the activity-cache hits, how many were served
            from entries preloaded out of a persisted window artifact
            (the period-sweep reuse path).
        grid_points: Operating points evaluated through the batched
            grid path (one per point per grid pass).
        grid_reuse_hits: Per-point control artifacts the grid pass
            served instead of training them: store hits and duplicate
            operating points.
    """

    sim_calls: int = 0
    sim_cycle_gates: int = 0
    flushed_state_reuses: int = 0
    combine_calls: int = 0
    combine_memo_hits: int = 0
    clark_reductions: int = 0
    cov_cells_computed: int = 0
    cov_cache_hits: int = 0
    activity_cache_hits: int = 0
    activity_cache_misses: int = 0
    windows_reused: int = 0
    grid_points: int = 0
    grid_reuse_hits: int = 0

    def snapshot(self) -> "KernelStats":
        """An independent copy of the current counter values."""
        return KernelStats(**self.to_json())

    def delta(self, since: "KernelStats") -> "KernelStats":
        """Counters accumulated after the ``since`` snapshot was taken."""
        return KernelStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "KernelStats | dict | None") -> "KernelStats":
        """Add another stats object (or its JSON form) into this one."""
        if other is None:
            return self
        doc = other if isinstance(other, dict) else other.to_json()
        for name, value in doc.items():
            setattr(self, name, getattr(self, name) + int(value))
        return self

    def to_json(self) -> dict:
        return {f.name: int(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def aggregate(cls, docs) -> "KernelStats":
        """Sum a sequence of stats documents (``None`` entries skipped)."""
        total = cls()
        for doc in docs:
            total.merge(doc)
        return total


_STATS = KernelStats()


def kernel_stats() -> KernelStats:
    """The process-wide kernel counters (mutated in place by the kernels)."""
    return _STATS
