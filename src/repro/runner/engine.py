"""The parallel batch estimation engine.

An :class:`EstimationEngine` executes a batch of
:class:`~repro.core.request.EstimationRequest` jobs — (workload ×
operating point) pairs — fanned out through the fork map of
:mod:`repro.dta.executor` (:func:`~repro.dta.executor.plan_fork_map`).
Per-job work runs through the staged
:class:`~repro.pipeline.pipeline.EstimationPipeline` backed by the
content-addressed :class:`~repro.pipeline.store.ArtifactStore`; the
engine's job is batching, process fan-out, and telemetry aggregation.
Everything shared is either derived once in the parent before forking
(the base processor, its SSTA baseline period, the period-independent
datapath model — all inherited by the workers through fork's
copy-on-write memory) or read from the store.

Design points:

* **Determinism** — every job carries an explicit or identity-derived
  seed, results are returned in request order, and reports cross the
  process boundary as their versioned JSON documents, so a parallel run
  is byte-identical to a serial one.
* **Graceful degradation** — a job that raises is captured as a failed
  :class:`JobResult` with its traceback instead of killing the batch;
  the fan-out resolves to an :class:`~repro.dta.executor.ExecutionPlan`
  that runs in-process when ``max_workers <= 1``, when there is a
  single request group, or when forking is unavailable or unsafe (the
  plan records why).
* **Telemetry** — each result records train/estimate wall time, the
  simulated instruction count, cache hit/miss, per-stage events, and the
  worker PID; :class:`RunSummary` aggregates them.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass

from repro.core.processor import ProcessorModel
from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport
from repro.dta.executor import ExecutionPlan, execute_plan, plan_fork_map
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
    worker: int = 0
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
            "worker": self.worker,
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
    max_workers: int
    #: How the request groups fanned out (and why not, if they did not).
    plan: ExecutionPlan
    cache_dir: str | None = None
    #: ``None`` when caching is disabled; otherwise whether the shared
    #: datapath model came from the cache.
    datapath_cache_hit: bool | None = None
    #: Groups of two or more requests that shared one grid pass.
    grid_batches: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def parallel(self) -> bool:
        return self.plan.parallel

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
            "max_workers": self.max_workers,
            "parallel": self.parallel,
            "plan": self.plan.to_json(),
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
            f"{self.wall_seconds:.1f}s wall "
            f"({'parallel x' + str(self.plan.workers) if self.parallel else 'in-process'})"
        )


# --------------------------------------------------------------------- #
# Worker-side execution
# --------------------------------------------------------------------- #


def _job_pipeline(config: ProcessorConfig, payload: dict):
    """The per-job staged pipeline for one picklable payload."""
    from repro.pipeline.pipeline import EstimationPipeline

    cache_dir = payload.get("cache_dir")
    return EstimationPipeline(
        config,
        store=ArtifactStore(cache_dir) if cache_dir else None,
        n_data_samples=payload["n_data_samples"],
    )


def _doc_from_result(result) -> dict:
    """The picklable job document for one successful PipelineResult."""
    processor = result.processor
    report = result.report
    out = {
        "worker": os.getpid(),
        "status": "ok",
        "cache_hit": result.cache_hit,
    }
    if result.windows_preloaded is not None:
        out["windows_preloaded"] = result.windows_preloaded
    out["train_seconds"] = result.train_seconds
    out["estimate_seconds"] = result.estimate_seconds
    out["stages"] = [event.to_json() for event in result.events]
    out["report"] = report.to_json()
    out["instructions"] = report.total_instructions
    out["kernel_stats"] = report.kernel_stats
    out["seed"] = result.seed
    out["speculation"] = processor.speculation
    out["working_frequency_mhz"] = processor.working_frequency_mhz
    out["net_performance_percent"] = (
        processor.performance.improvement_percent(
            report.error_rate_mean / 100.0
        )
    )
    return out


def _execute_group(payload: dict) -> list[dict]:
    """Run one request group as one grid pass; one document per request.

    Never raises: a failed pass over several requests is retried one
    request at a time, so one bad request cannot fail its neighbours,
    and a failed single request becomes an error document.  Executed
    either in a pool worker or in-process; the return value is plain
    picklable data (reports travel as their JSON documents).
    """
    requests: list[EstimationRequest] = payload["requests"]
    try:
        outcome = _job_pipeline(payload["config"], payload).execute_grid(
            requests
        )
    except Exception:
        if len(requests) > 1:
            return [
                doc
                for request in requests
                for doc in _execute_group({**payload, "requests": [request]})
            ]
        return [
            {
                "worker": os.getpid(),
                "status": "error",
                "cache_hit": False,
                "error": traceback.format_exc(),
            }
        ]
    docs = [_doc_from_result(result) for result in outcome.results]
    if len(docs) > 1:
        first_cold = next(
            (k for k, r in enumerate(outcome.results) if not r.cache_hit),
            None,
        )
        for k, (doc, result) in enumerate(zip(docs, outcome.results)):
            doc["grid"] = True
            doc["eval_sim_skipped"] = k > 0
            doc["train_sim_skipped"] = result.cache_hit or k != first_cold
    return docs


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #


class EstimationEngine:
    """Batch executor for estimation requests.

    Args:
        config: Processor recipe shared by every job (default: the
            paper's Section 6.1 configuration).
        max_workers: Process-pool width; ``1`` executes in-process.
        cache_dir: Artifact-store directory, or ``None`` to disable
            caching.
        n_data_samples: Data-variation sample count per estimator.
    """

    def __init__(
        self,
        config: ProcessorConfig | None = None,
        *,
        max_workers: int = 1,
        cache_dir=None,
        n_data_samples: int = 128,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.config = config or ProcessorConfig()
        self.max_workers = max_workers
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.n_data_samples = n_data_samples

    # ------------------------------------------------------------------ #

    @property
    def base_processor(self) -> ProcessorModel:
        """The built (and registry-shared) base processor."""
        return stages.base_processor(self.config)

    def _prepare(self) -> bool | None:
        """Warm parent-side shared state before any fork.

        Builds the base processor, its baseline period (the SSTA solve),
        and the datapath model — loading the latter from the store when
        possible — so pool workers inherit them copy-on-write instead of
        re-deriving them per process.  Returns the datapath store-hit
        flag (``None`` when caching is off).
        """
        base = self.base_processor
        _ = base.clock_period  # triggers the SSTA baseline solve
        _ = base.control_analyzer
        if self.cache_dir is None:
            return stages.ensure_datapath(base)
        return stages.ensure_datapath(
            base,
            stages.datapath_key(self.config),
            ArtifactStore(self.cache_dir),
        )

    def run(self, requests) -> RunSummary:
        """Execute all requests; results come back in request order.

        Requests are grouped by :func:`~repro.pipeline.grid.grid_key`
        and every group — singletons included — runs as one grid pass
        (:meth:`~repro.pipeline.pipeline.EstimationPipeline.execute_grid`):
        a group of requests that differ only in operating point shares
        one training and one evaluation simulation.  With
        ``max_workers > 1`` the groups fan out across a fork pool
        (:func:`~repro.dta.executor.plan_fork_map`).
        """
        from repro.pipeline.grid import grid_key

        requests = list(requests)
        start = time.perf_counter()
        datapath_hit = self._prepare()
        by_key: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            by_key.setdefault(grid_key(request), []).append(i)
        groups = list(by_key.values())
        plan = plan_fork_map(len(groups), self.max_workers)
        payloads = [
            {
                "requests": [requests[i] for i in indices],
                "config": self.config,
                "cache_dir": self.cache_dir,
                "n_data_samples": self.n_data_samples,
            }
            for indices in groups
        ]
        group_docs = execute_plan(
            plan,
            lambda context, i: _execute_group(context[i]),
            payloads,
        )
        raw: list = [None] * len(requests)
        for indices, docs in zip(groups, group_docs):
            for i, doc in zip(indices, docs):
                raw[i] = doc
        return RunSummary(
            results=[
                self._result_from(request, doc)
                for request, doc in zip(requests, raw)
            ],
            wall_seconds=time.perf_counter() - start,
            max_workers=self.max_workers,
            plan=plan,
            cache_dir=self.cache_dir,
            datapath_cache_hit=datapath_hit,
            grid_batches=sum(
                1 for docs in group_docs if docs[0].get("grid")
            ),
        )

    @staticmethod
    def _result_from(request: EstimationRequest, doc: dict) -> JobResult:
        report = None
        if doc.get("report") is not None:
            report = ErrorRateReport.from_json(doc["report"])
        return JobResult(
            request=request,
            status=doc["status"],
            report=report,
            error=doc.get("error"),
            cache_hit=doc.get("cache_hit", False),
            train_seconds=doc.get("train_seconds", 0.0),
            estimate_seconds=doc.get("estimate_seconds", 0.0),
            instructions=doc.get("instructions", 0),
            worker=doc.get("worker", 0),
            seed=doc.get("seed", 0),
            speculation=doc.get("speculation", 0.0),
            working_frequency_mhz=doc.get("working_frequency_mhz"),
            net_performance_percent=doc.get("net_performance_percent"),
            kernel_stats=doc.get("kernel_stats"),
            stages=doc.get("stages"),
            grid=doc.get("grid", False),
            train_sim_skipped=doc.get("train_sim_skipped", False),
            eval_sim_skipped=doc.get("eval_sim_skipped", False),
        )
