"""The batch estimation engine.

An :class:`EstimationEngine` executes a batch of
:class:`~repro.core.request.EstimationRequest` jobs — (workload ×
operating point) pairs — in this process.  It groups the requests by
:func:`~repro.pipeline.grid.grid_key` and runs each group, in order, as
one grid pass of the staged
:class:`~repro.pipeline.pipeline.EstimationPipeline`, backed by the
content-addressed :class:`~repro.pipeline.store.ArtifactStore`; the
engine's job is batching and telemetry aggregation.  The base
processor and its period-independent engines are built once per
processor and shared by every group.

Design points:

* **Determinism** — every job carries an explicit or identity-derived
  seed and results are returned in request order.
* **Graceful degradation** — a job that raises is captured as a failed
  :class:`JobResult` with its traceback instead of killing the batch;
  a failed group is retried one request at a time.
* **Telemetry** — each result records train/estimate wall time, the
  simulated instruction count, cache hit/miss, per-stage events and the
  job's kernel counters; :class:`RunSummary` aggregates them.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

from repro.core.processor import ProcessorModel
from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport
from repro.kernels import KernelStats
from repro.pipeline import stages
from repro.pipeline.ir import CORRECTION_SCHEMES, ProcessorConfig
from repro.pipeline.store import ArtifactStore

__all__ = [
    "ProcessorConfig",
    "CORRECTION_SCHEMES",
    "JobResult",
    "RunSummary",
    "EstimationEngine",
]


@dataclass(slots=True)
class JobResult:
    """Outcome + telemetry of one estimation job."""

    request: EstimationRequest
    status: str  # "ok" | "error"
    report: ErrorRateReport | None = None
    error: str | None = None
    cache_hit: bool = False
    train_seconds: float = 0.0
    estimate_seconds: float = 0.0
    instructions: int = 0
    seed: int = 0
    speculation: float = 0.0
    working_frequency_mhz: float | None = None
    net_performance_percent: float | None = None
    #: Kernel-layer counters for this job (see :class:`KernelStats`).
    kernel_stats: dict | None = None
    #: Per-stage pipeline events (``StageEvent.to_json`` documents).
    stages: list[dict] | None = None
    #: Whether this job shared its grid pass with other requests.
    grid: bool = False
    #: Grid reuse: this point's training / evaluation functional
    #: simulation was shared with another point instead of re-run.
    train_sim_skipped: bool = False
    eval_sim_skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        doc = {
            "workload": self.request.workload_name,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "train_seconds": round(self.train_seconds, 3),
            "estimate_seconds": round(self.estimate_seconds, 3),
            "instructions": self.instructions,
            "seed": self.seed,
            "speculation": self.speculation,
            "working_frequency_mhz": self.working_frequency_mhz,
            "net_performance_percent": self.net_performance_percent,
            "kernel_stats": self.kernel_stats,
        }
        if self.grid:
            doc["grid"] = True
            doc["train_sim_skipped"] = self.train_sim_skipped
            doc["eval_sim_skipped"] = self.eval_sim_skipped
        if self.stages is not None:
            doc["stages"] = self.stages
        if self.report is not None:
            doc["report"] = self.report.to_json()
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass(slots=True)
class RunSummary:
    """Aggregate outcome of one engine batch."""

    results: list[JobResult]
    wall_seconds: float
    cache_dir: str | None = None
    #: ``None`` when caching is disabled; otherwise whether the shared
    #: datapath model came from the cache.
    datapath_cache_hit: bool | None = None
    #: Groups of two or more requests that shared one grid pass.
    grid_batches: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> list[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    @property
    def training_runs(self) -> int:
        """Jobs that actually executed a control training phase."""
        return sum(1 for r in self.results if r.ok and not r.cache_hit)

    @property
    def total_instructions(self) -> int:
        return sum(r.instructions for r in self.results)

    def reports(self) -> list[ErrorRateReport]:
        """Successful reports in request order."""
        return [r.report for r in self.results if r.ok]

    def kernel_totals(self) -> dict:
        """Kernel-layer counters summed over every job in the batch."""
        return KernelStats.aggregate(
            r.kernel_stats for r in self.results
        ).to_json()

    def to_json(self) -> dict:
        return {
            "schema": "repro.run-summary/1",
            "jobs": len(self.results),
            "succeeded": len(self.succeeded),
            "failed": len(self.failed),
            "cache_hits": self.cache_hits,
            "training_runs": self.training_runs,
            "datapath_cache_hit": self.datapath_cache_hit,
            "total_instructions": self.total_instructions,
            "wall_seconds": round(self.wall_seconds, 3),
            "cache_dir": self.cache_dir,
            "grid_batches": self.grid_batches,
            "kernels": self.kernel_totals(),
            "results": [r.to_json() for r in self.results],
        }

    def describe(self) -> str:
        """One-line telemetry summary for CLI output."""
        grid = (
            f", {self.grid_batches} grid batches" if self.grid_batches else ""
        )
        return (
            f"{len(self.results)} jobs, {len(self.succeeded)} ok, "
            f"{len(self.failed)} failed, {self.cache_hits} cache hits, "
            f"{self.training_runs} training runs{grid}, "
            f"{self.total_instructions:,} instructions, "
            f"{self.wall_seconds:.1f}s wall"
        )


def _job_result(request: EstimationRequest, result) -> JobResult:
    """The job outcome of one successful
    :class:`~repro.pipeline.pipeline.PipelineResult`."""
    processor = result.processor
    report = result.report
    return JobResult(
        request=request,
        status="ok",
        report=report,
        cache_hit=result.cache_hit,
        train_seconds=result.train_seconds,
        estimate_seconds=result.estimate_seconds,
        instructions=report.total_instructions,
        seed=result.seed,
        speculation=processor.speculation,
        working_frequency_mhz=processor.working_frequency_mhz,
        net_performance_percent=processor.performance.improvement_percent(
            report.error_rate_mean / 100.0
        ),
        kernel_stats=report.kernel_stats,
        stages=[event.to_json() for event in result.events],
    )


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class EstimationEngine:
    """Batch executor for estimation requests.

    Args:
        config: Processor recipe shared by every job (default: the
            paper's Section 6.1 configuration).
        cache_dir: Artifact-store directory, or ``None`` to disable
            caching.
        n_data_samples: Data-variation sample count per estimator.
    """

    def __init__(
        self,
        config: ProcessorConfig | None = None,
        *,
        cache_dir=None,
        n_data_samples: int = 128,
    ) -> None:
        self.config = config or ProcessorConfig()
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.n_data_samples = n_data_samples

    # ------------------------------------------------------------------ #

    @property
    def base_processor(self) -> ProcessorModel:
        """The built (and registry-shared) base processor."""
        return stages.base_processor(self.config)

    def _prepare(self) -> bool | None:
        """Train or load the shared datapath model before any group runs.

        Returns the datapath store-hit flag (``None`` when caching is
        off).
        """
        base = self.base_processor
        if self.cache_dir is None:
            return stages.ensure_datapath(base)
        return stages.ensure_datapath(
            base,
            stages.datapath_key(self.config),
            ArtifactStore(self.cache_dir),
        )

    def _run_group(self, requests: list[EstimationRequest]) -> list[JobResult]:
        """Run one request group as one grid pass; one result per request.

        Never raises: a failed pass over several requests is retried one
        request at a time, so one bad request cannot fail its neighbours,
        and a failed single request becomes an error result.
        """
        from repro.pipeline.pipeline import EstimationPipeline

        try:
            store = ArtifactStore(self.cache_dir) if self.cache_dir else None
            outcome = EstimationPipeline(
                self.config, store=store, n_data_samples=self.n_data_samples
            ).execute_grid(requests)
        except Exception:
            if len(requests) > 1:
                return [
                    job
                    for request in requests
                    for job in self._run_group([request])
                ]
            return [
                JobResult(
                    request=requests[0],
                    status="error",
                    error=traceback.format_exc(),
                )
            ]
        jobs = [
            _job_result(request, result)
            for request, result in zip(requests, outcome.results)
        ]
        if len(jobs) > 1:
            first_cold = next(
                (k for k, r in enumerate(outcome.results) if not r.cache_hit),
                None,
            )
            for k, (job, result) in enumerate(zip(jobs, outcome.results)):
                job.grid = True
                job.eval_sim_skipped = k > 0
                job.train_sim_skipped = result.cache_hit or k != first_cold
        return jobs

    def run(self, requests) -> RunSummary:
        """Execute all requests; results come back in request order.

        Requests are grouped by :func:`~repro.pipeline.grid.grid_key`
        and every group — singletons included — runs in this process,
        in order, as one grid pass
        (:meth:`~repro.pipeline.pipeline.EstimationPipeline.execute_grid`):
        a group of requests that differ only in operating point shares
        one training and one evaluation simulation.
        """
        from repro.pipeline.grid import grid_key

        requests = list(requests)
        start = time.perf_counter()
        datapath_hit = self._prepare()
        by_key: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            by_key.setdefault(grid_key(request), []).append(i)
        results: list = [None] * len(requests)
        grid_batches = 0
        for indices in by_key.values():
            jobs = self._run_group([requests[i] for i in indices])
            grid_batches += jobs[0].grid
            for i, job in zip(indices, jobs):
                results[i] = job
        return RunSummary(
            results=results,
            wall_seconds=time.perf_counter() - start,
            cache_dir=self.cache_dir,
            datapath_cache_hit=datapath_hit,
            grid_batches=grid_batches,
        )
