"""The estimation flow: every estimate is one operating-point grid pass.

A frequency sweep asks the same question — "what is this program's
error-rate distribution?" — at many operating points of one processor
configuration.  Run point-by-point, almost everything is recomputed N
times even though only the clock period changed: the training and
evaluation functional simulations, window scheduling/encoding/logic
simulation, and the activation bookkeeping of Algorithm 1 are all
period-independent.  :func:`execute_grid` runs each of those once and
fans out only the genuinely period-dependent tail:

* one training functional run + one window characterization sweep
  (:func:`~repro.pipeline.stages.train_grid`), with the
  DTS evaluation batched along the period axis down to the Clark
  reductions (:func:`repro.sta.ssta.statistical_min_grid`);
* one evaluation functional run
  (:func:`repro.core.collect.collect_evaluation`)
  feeding every point's error model;
* per point: on-demand characterization, the tail of the
  data-variation error model, and the statistical estimate.  The error
  model's datapath half (resampled executions and their predicted
  arrivals) is period-independent: it is computed once per (seed,
  sample count) and shared by every point with that key, in this pass
  and later ones.

The family pipeline keeps each program's period-independent pass
inputs (:class:`~repro.pipeline.stages.PassInputs`: the two functional
runs, every characterization window's activity, entry specs and
first-activated AP picks, and the last datapath half) across passes,
keyed by the request minus its operating point
(:meth:`~repro.pipeline.pipeline.EstimationPipeline.pass_inputs`), so a
later pass over the same program at new points runs only the
period-dependent tail: the risky-endpoint masks, the picks assembly and
the Clark minima, and the error model's control gather and
probabilities.

A single request is the one-point grid: ``EstimationPipeline.execute``
and ``EstimationPipeline.run`` both delegate here, so the store-aware
orchestration (netlist, datapath, windows, control) exists once.  Every
per-point control artifact is persisted under a key that depends only
on its own operating point, so grid and single-point runs serve each
other from the store.  :func:`grid_key` is the one rule for which
requests may share a pass; the batch engine and the service's
micro-batcher group with it too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.collect import collect_evaluation
from repro.kernels import kernel_stats
from repro.pipeline import stages
from repro.pipeline.ir import ControlInputIR, TrainingSpec
from repro.pipeline.store import stable_digest

__all__ = [
    "GridRequest",
    "GridResult",
    "execute_grid",
    "grid_key",
]


def grid_key(request) -> tuple:
    """The one rule for which requests may share a grid pass.

    Requests share a pass iff their keys are equal: the request identity
    minus the operating point, plus the explicit sampling ``seed``, plus
    the workload object's identity when the workload is not a name (a
    bring-your-own program only groups with itself — same name does not
    mean same program).
    """
    key = GridRequest.base_identity(request) + (("seed", request.seed),)
    if not isinstance(request.workload, str):
        key += (("workload_object", id(request.workload)),)
    return key


@dataclass(frozen=True)
class GridRequest:
    """Typed IR for one batched period sweep.

    The identity splits one list of
    :class:`~repro.core.request.EstimationRequest` jobs into the shared
    ``base`` (everything the points have in common: workload, dataset
    pair, budgets, reservoir) and the ``speculations`` axis.  Requests
    whose :func:`grid_key` differs are *not* a grid — :meth:`build`
    rejects them.
    """

    SCHEMA = "repro.grid-request/1"

    base: tuple
    speculations: tuple

    @classmethod
    def base_identity(cls, request) -> tuple:
        """The request's identity minus the operating point."""
        doc = request.identity_doc()
        doc.pop("speculation", None)
        return tuple(sorted(doc.items()))

    @classmethod
    def build(cls, requests) -> "GridRequest":
        if not requests:
            raise ValueError("a grid needs at least one request")
        families = {r.core_family for r in requests}
        if len(families) > 1:
            raise ValueError(
                "grid requests must share one core family; got "
                f"{', '.join(sorted(families))}"
            )
        key = grid_key(requests[0])
        for request in requests[1:]:
            if grid_key(request) != key:
                raise ValueError(
                    "grid requests must be identical up to speculation; "
                    f"{request.describe()!r} diverges from "
                    f"{requests[0].describe()!r}"
                )
        return cls(
            base=cls.base_identity(requests[0]),
            speculations=tuple(r.speculation for r in requests),
        )

    def to_doc(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "base": {k: v for k, v in self.base},
            "speculations": list(self.speculations),
        }

    @property
    def content_hash(self) -> str:
        return stable_digest(self.to_doc())


@dataclass(slots=True)
class GridResult:
    """Outcome of one batched grid pass.

    ``results`` holds one
    :class:`~repro.pipeline.pipeline.PipelineResult` per request, in
    request order.  The telemetry counts what the batching avoided:
    ``train_sims_skipped`` and ``eval_sims_skipped`` are the points
    that needed a functional run minus the runs made, so a pass whose
    runs were kept from an earlier pass skips all of them.
    """

    SCHEMA = "repro.grid-result/1"

    request: GridRequest
    results: list = field(default_factory=list)
    train_sims_skipped: int = 0
    eval_sims_skipped: int = 0
    control_cache_hits: int = 0
    kernel_delta: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "request": self.request.to_doc(),
            "reports": [r.report.to_json() for r in self.results],
            "telemetry": self.telemetry(),
        }

    def telemetry(self) -> dict:
        return {
            "points": len(self.results),
            "train_sims_skipped": self.train_sims_skipped,
            "eval_sims_skipped": self.eval_sims_skipped,
            "control_cache_hits": self.control_cache_hits,
            "grid_points": self.kernel_delta.get("grid_points", 0),
            "grid_reuse_hits": self.kernel_delta.get("grid_reuse_hits", 0),
        }




def execute_grid(
    pipeline, requests, *, use_store: bool = True, artifacts=None
) -> GridResult:
    """Run requests sharing one :func:`grid_key` as one grid pass.

    Args:
        pipeline: The base
            :class:`~repro.pipeline.pipeline.EstimationPipeline`; the
            requests run on its sibling for their core family, and every
            point on a derived sibling sharing its store, activity
            cache, and analyzer.
        requests: :class:`~repro.core.request.EstimationRequest` jobs
            with one :func:`grid_key` (a single request is the one-point
            grid).
        use_store: Fetch from and write to the pipeline's
            :class:`~repro.pipeline.store.ArtifactStore` (when it has
            one); ``False`` is the store-less flow.
        artifacts: Pre-trained
            :class:`~repro.pipeline.ir.TrainingArtifacts` for a
            one-request grid; training is skipped and the ``dta`` stage
            reports ``provided``.

    Returns:
        A :class:`GridResult` with one
        :class:`~repro.pipeline.pipeline.PipelineResult` per request.
    """
    from repro.pipeline.pipeline import PipelineResult, StageEvent

    requests = list(requests)
    grid_request = GridRequest.build(requests)
    if artifacts is not None and len(requests) != 1:
        raise ValueError("pre-trained artifacts need a one-request grid")
    pipeline = pipeline.pipeline_for_family(requests[0].core_family)
    stats = kernel_stats()
    kernels_before = stats.snapshot()
    first = requests[0]
    workload = first.resolve_workload()
    program, train_setup, train_budget = workload.run_spec(
        first.train_scale, seed=first.train_seed
    )
    train_instructions = first.train_instructions or train_budget
    spec = TrainingSpec(
        scale=first.train_scale,
        seed=first.train_seed,
        instructions=train_instructions,
    )
    store = (
        pipeline.store
        if use_store and pipeline.config is not None
        else None
    )
    n = len(requests)
    pipes = [pipeline.pipeline_for(r.speculation) for r in requests]
    events: list[list[StageEvent]] = [[] for _ in requests]
    datapath_key = (
        stages.datapath_key(pipeline.config) if store is not None else None
    )
    # Pre-trained artifacts bring their own cfg and control model, so
    # they neither read nor fill the program's kept inputs.
    inputs = (
        pipeline.pass_inputs(first)
        if artifacts is None
        else stages.PassInputs()
    )

    # --- netlist + datapath (per point; the store key is period- ------ #
    # independent, so every point past the first is a hit) ------------- #
    for i, pipe in enumerate(pipes):
        t0 = time.perf_counter()
        provided = pipe._processor is not None
        processor = pipe.processor
        events[i].append(
            StageEvent(
                "netlist",
                stages.PLAN["netlist"],
                "provided" if provided else "computed",
                time.perf_counter() - t0,
            )
        )
        t0 = time.perf_counter()
        hit = stages.ensure_datapath(processor, datapath_key, store)
        events[i].append(
            StageEvent(
                "datapath",
                stages.PLAN["datapath"],
                "hit" if hit else "computed",
                time.perf_counter() - t0,
            )
        )

    # --- windows (period-independent: fetch + preload once) ----------- #
    windows_preloaded = None
    windows_key = None
    if store is not None:
        t0 = time.perf_counter()
        base_ir = ControlInputIR.build(
            program, pipeline.config, spec,
            clock_period=pipes[0].processor.clock_period,
        )
        windows_key = store.compose_key(
            "dta",
            stages.PLAN["dta"],
            base_ir.period_independent().content_hash,
        )
        if stages.windows_loaded(
            pipes[0].processor, pipes[0].activity_cache, windows_key
        ) and store.unchanged("windows", windows_key):
            # An earlier job loaded this entry and its file is as it was
            # then: confirm it, no decode.  A file rewritten since (by
            # another pipeline or process) is read and preloaded below.
            found = store.has_entry("windows", windows_key)
            added = 0
        else:
            windows_doc = store.get_entry("windows", windows_key)
            found = windows_doc is not None
            if found:
                added = pipes[0].preload_windows(windows_doc, windows_key)
        if found:
            windows_preloaded = added
            seconds = time.perf_counter() - t0
            for ev in events:
                ev.append(
                    StageEvent("windows", stages.PLAN["dta"], "hit", seconds)
                )

    # --- control artifacts: provided / store-served points + one ------ #
    # batched train over the rest ------------------------------------- #
    trained: list = [artifacts] + [None] * (n - 1)
    status = ["provided" if artifacts is not None else "computed"] * n
    control_keys: list = [None] * n
    train_seconds = [0.0] * n
    if store is not None and artifacts is None:
        for i, pipe in enumerate(pipes):
            t0 = time.perf_counter()
            control_ir = ControlInputIR.build(
                program, pipeline.config, spec,
                clock_period=pipe.processor.clock_period,
            )
            control_keys[i] = store.compose_key(
                "dta", stages.PLAN["dta"], control_ir.content_hash
            )
            doc = store.get_entry("control", control_keys[i])
            if doc is not None:
                trained[i] = pipe.artifacts_from_doc(program, doc)
                status[i] = "hit"
                stats.grid_reuse_hits += 1
            train_seconds[i] = time.perf_counter() - t0
    # Identical operating points are identical computations: train
    # one representative per distinct point and share its artifact
    # with the duplicates (repeated sweep points, or several
    # coalesced jobs asking for the same point).
    leader_of: dict = {}
    train_idx: list[int] = []
    duplicates: list[tuple[int, int]] = []
    for i in range(n):
        if trained[i] is not None:
            continue
        point = control_keys[i] if store is not None else (
            requests[i].speculation
        )
        if point in leader_of:
            duplicates.append((i, leader_of[point]))
        else:
            leader_of[point] = i
            train_idx.append(i)
    train_runs = int(bool(train_idx) and inputs.training is None)
    if train_idx:
        t0 = time.perf_counter()
        batch = stages.train_grid(
            [pipes[i].processor for i in train_idx],
            program,
            pipeline.activity_cache,
            setup=train_setup,
            max_instructions=train_instructions,
            inputs=inputs,
        )
        batch_seconds = time.perf_counter() - t0
        for i, artifact in zip(train_idx, batch):
            trained[i] = artifact
            train_seconds[i] += batch_seconds
            if store is not None:
                store.put_entry(
                    "control", control_keys[i], artifact.to_doc()
                )
        for i, leader in duplicates:
            trained[i] = trained[leader]
            train_seconds[i] += batch_seconds
            stats.grid_reuse_hits += 1
    for i in range(n):
        events[i].append(
            StageEvent("dta", stages.PLAN["dta"], status[i], train_seconds[i])
        )

    # --- one shared evaluation run (none when kept) ------------------- #
    eval_runs = int(inputs.evaluation is None)
    if eval_runs:
        _, eval_setup, eval_budget = workload.run_spec(
            first.eval_scale, seed=first.eval_seed
        )
        inputs.evaluation = collect_evaluation(
            program,
            trained[0].cfg,
            setup=eval_setup,
            max_instructions=first.max_instructions or eval_budget,
            reservoir_size=first.reservoir_size,
        )
    profile, samples = inputs.evaluation

    # --- per-point period-dependent tail ------------------------------ #
    # The error model's datapath half depends on the seed and sample
    # count, not the period: it is kept in the inputs' slot, which the
    # first point with another seed (or sample count) replaces.
    results: list[PipelineResult] = []
    for i, (request, pipe) in enumerate(zip(requests, pipes)):
        seed = request.resolved_seed()
        t1 = time.perf_counter()
        report = pipe.estimate_collected(
            program, trained[i], profile, samples, seed=seed, inputs=inputs,
        )
        stats.grid_points += 1
        estimate_seconds = time.perf_counter() - t1
        events[i].append(
            StageEvent(
                "estimate",
                stages.PLAN["estimate"],
                "computed",
                estimate_seconds,
            )
        )
        results.append(
            PipelineResult(
                report=report,
                events=events[i],
                cache_hit=status[i] == "hit",
                windows_preloaded=windows_preloaded,
                seed=seed,
                train_seconds=train_seconds[i],
                estimate_seconds=estimate_seconds,
                processor=pipe.processor,
            )
        )
    if store is not None and pipeline.activity_cache.dirty:
        store.put_entry("windows", windows_key, pipes[0].window_doc())
        pipeline.activity_cache.mark_persisted()
        for ev in events:
            ev.append(StageEvent("windows", stages.PLAN["dta"], "computed"))

    return GridResult(
        request=grid_request,
        results=results,
        train_sims_skipped=len(train_idx) + len(duplicates) - train_runs,
        eval_sims_skipped=n - eval_runs,
        control_cache_hits=sum(r.cache_hit for r in results),
        kernel_delta=stats.delta(kernels_before).to_json(),
    )
