"""The staged estimation pipeline: composition root of the flow.

:class:`EstimationPipeline` wires the stage functions
(:mod:`repro.pipeline.stages`) into the paper's two-phase flow —
training (control characterization + datapath fit) and simulation
(profile, error model, marginal solve, statistical estimate) — with
every stage boundary crossing a typed IR document
(:mod:`repro.pipeline.ir`) and every persistable artifact living in one
content-addressed :class:`~repro.pipeline.store.ArtifactStore`.

Three persisted artifact streams feed the store, one namespace each:

* ``control`` — the characterized control timing model, keyed on the
  full :class:`~repro.pipeline.ir.ControlInputIR` (period-dependent);
* ``windows`` — period-independent activity traces + path moments,
  keyed on the same IR minus the clock period (frequency-sweep reuse);
* ``datapath`` — the shared datapath timing model, keyed on the
  processor's :class:`~repro.pipeline.ir.DatapathInputIR`.

Store keys additionally fold in the stage name and the stage's fixed
implementation name (:data:`~repro.pipeline.stages.STAGES`).  Every
request runs through one flow, the grid evaluator
(:func:`repro.pipeline.grid.execute_grid`): :meth:`execute` is its
one-point case and :meth:`run` its store-less form.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.core.collect import collect_evaluation
from repro.dta.windowpool import ActivityCache
from repro.kernels import kernel_stats
from repro.pipeline import stages
from repro.pipeline.grid import GridRequest, execute_grid
from repro.pipeline.ir import ProcessorConfig, TrainingArtifacts
from repro.pipeline.store import ArtifactStore

__all__ = ["EstimationPipeline", "PipelineResult", "StageEvent"]

_UNSET = object()


@dataclass(frozen=True)
class StageEvent:
    """One stage execution record: where its output came from."""

    stage: str
    backend: str
    status: str  # "hit" | "computed" | "provided"
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "backend": self.backend,
            "status": self.status,
            "seconds": round(self.seconds, 3),
        }


@dataclass(slots=True)
class PipelineResult:
    """Outcome of one request (one point of a grid pass)."""

    report: object
    events: list[StageEvent] = field(default_factory=list)
    cache_hit: bool = False
    windows_preloaded: int | None = None
    seed: int = 0
    train_seconds: float = 0.0
    estimate_seconds: float = 0.0
    processor: object = None

    def event(self, stage: str) -> StageEvent | None:
        """The last recorded event for ``stage`` (None if absent)."""
        found = None
        for event in self.events:
            if event.stage == stage:
                found = event
        return found


class EstimationPipeline:
    """The paper's framework as an explicit staged pipeline.

    Args:
        processor: Either a built
            :class:`~repro.core.processor.ProcessorModel`, a picklable
            :class:`~repro.pipeline.ir.ProcessorConfig` recipe, or
            ``None`` (the paper's default configuration).  Only the
            recipe form can key the artifact store — a pre-built
            processor runs storeless.
        store: The :class:`~repro.pipeline.store.ArtifactStore` to
            persist stage outputs in; defaults to a process-local
            in-memory store when a config is given, and ``None``
            (storeless) otherwise.  Pass ``None`` explicitly to disable.
        n_data_samples: Data-variation sample count used to represent
            the probability random variables.
        activity_cache: Content-addressed window activity cache shared
            by training, on-demand characterization, and breakdowns (a
            fresh one is built when omitted).
    """

    def __init__(
        self,
        processor=None,
        *,
        store=_UNSET,
        n_data_samples: int = 128,
        activity_cache: ActivityCache | None = None,
    ) -> None:
        if n_data_samples < 2:
            raise ValueError("n_data_samples must be >= 2")
        if processor is None:
            processor = ProcessorConfig()
        if isinstance(processor, ProcessorConfig):
            self.config: ProcessorConfig | None = processor
            self._processor = None
        else:
            self.config = None
            self._processor = processor
        if store is _UNSET:
            store = ArtifactStore() if self.config is not None else None
        self.store: ArtifactStore | None = store
        self.n_data_samples = n_data_samples
        self.activity_cache = (
            activity_cache if activity_cache is not None else ActivityCache()
        )
        self._derived: dict[float, EstimationPipeline] = {}
        self._family_siblings: dict[str, EstimationPipeline] = {}
        self._pass_inputs: tuple[tuple, stages.PassInputs] | None = None

    # ------------------------------------------------------------------ #
    # Processor access
    # ------------------------------------------------------------------ #

    @property
    def processor(self):
        """The processor under analysis (built on first use)."""
        if self._processor is None:
            self._processor = stages.base_processor(self.config)
        return self._processor

    def processor_for(self, speculation):
        """The processor at ``speculation`` (derived, shared engines)."""
        return self.pipeline_for(speculation).processor

    @property
    def core_family_name(self) -> str:
        """The registered core-family name this pipeline targets."""
        if self.config is not None:
            return self.config.core_family
        return self.processor.core_family.name

    def pipeline_for_family(self, core_family: str) -> "EstimationPipeline":
        """This pipeline re-targeted at another registered core family.

        Shares the artifact store and the activity cache — both are
        content-addressed, and every family-tagged IR hashes differently,
        so entries can never collide across families — plus
        ``n_data_samples``.  Requires the recipe
        (:class:`ProcessorConfig`) form: a pre-built processor cannot be
        re-targeted.
        """
        if core_family == self.core_family_name:
            return self
        if core_family not in self._family_siblings:
            if self.config is None:
                raise ValueError(
                    f"this pipeline wraps a pre-built "
                    f"{self.core_family_name!r} processor and cannot run "
                    f"{core_family!r} requests; construct it from a "
                    f"ProcessorConfig to enable family dispatch"
                )
            self._family_siblings[core_family] = EstimationPipeline(
                dataclasses.replace(self.config, core_family=core_family),
                store=self.store,
                n_data_samples=self.n_data_samples,
                activity_cache=self.activity_cache,
            )
        return self._family_siblings[core_family]

    def pipeline_for(self, speculation) -> "EstimationPipeline":
        """This pipeline at a derived operating point.

        The point's processor is derived from :attr:`processor`, whose
        period-independent engines it uses; the pipeline shares the
        activity cache (stimulus digests are period-independent) and the
        artifact store.  This is the one per-point cache: deriving is
        cheap, but a point keeps its pipeline and processor identity.
        """
        if (
            speculation is None
            or speculation == self.processor.speculation
        ):
            return self
        if speculation not in self._derived:
            self._derived[speculation] = EstimationPipeline(
                self.processor.derive(speculation=speculation),
                store=self.store,
                n_data_samples=self.n_data_samples,
                activity_cache=self.activity_cache,
            )
        return self._derived[speculation]

    def pass_inputs(self, request) -> stages.PassInputs:
        """The period-independent pass inputs of ``request``'s program.

        Keyed by :meth:`GridRequest.base_identity` (the request minus
        its operating point).  The pipeline keeps one entry and replaces
        it when the key changes, so a later pass over the same program
        at new operating points runs no functional simulation and builds
        no window.  A workload object gets fresh inputs every time: its
        dataset is not content-addressed, and an object's ``id`` can be
        reused.  The entry belongs to this pipeline and takes no lock; a
        pipeline is driven by one thread at a time.
        """
        if not isinstance(request.workload, str):
            return stages.PassInputs()
        key = GridRequest.base_identity(request)
        if self._pass_inputs is None or self._pass_inputs[0] != key:
            self._pass_inputs = (key, stages.PassInputs())
        return self._pass_inputs[1]

    # ------------------------------------------------------------------ #
    # Characterizer / window-artifact plumbing (shim + benchmark surface)
    # ------------------------------------------------------------------ #

    def build_characterizer(self, program):
        """A characterizer wired to this pipeline's activity cache."""
        return stages.build_characterizer(
            self.processor, program, self.activity_cache
        )

    def window_doc(self) -> dict:
        """Persistable period-independent window artifacts."""
        return stages.window_doc(self.processor, self.activity_cache)

    def preload_windows(self, doc: dict, key: str) -> int:
        """Load a :meth:`window_doc` document stored under ``key``;
        returns entries added."""
        return stages.preload_windows(
            self.processor, self.activity_cache, doc, key
        )

    def artifacts_from_doc(self, program, doc: dict) -> TrainingArtifacts:
        """Rebuild :class:`TrainingArtifacts` from a persisted document."""
        return stages.artifacts_from_doc(
            self.processor, program, self.activity_cache, doc
        )

    def load_artifacts(self, program, path) -> TrainingArtifacts:
        """Reload artifacts persisted by :meth:`TrainingArtifacts.save`."""
        import json

        with open(path) as handle:
            doc = json.load(handle)
        return self.artifacts_from_doc(program, doc)

    # ------------------------------------------------------------------ #
    # Phase 1: training
    # ------------------------------------------------------------------ #

    def train(
        self,
        program,
        setup=None,
        max_instructions: int = 2_000_000,
    ) -> TrainingArtifacts:
        """Characterize the program's control network on a training run."""
        return stages.train_grid(
            [self.processor],
            program,
            self.activity_cache,
            setup=setup,
            max_instructions=max_instructions,
        )[0]

    # ------------------------------------------------------------------ #
    # Phase 2: simulation + estimation
    # ------------------------------------------------------------------ #

    def estimate(
        self,
        program,
        artifacts: TrainingArtifacts,
        setup=None,
        max_instructions: int = 5_000_000,
        reservoir_size: int = 160,
        seed: int = 0,
    ):
        """Estimate the program's error-rate distribution on a dataset."""
        start = time.perf_counter()
        kernels_before = kernel_stats().snapshot()
        profile, samples = collect_evaluation(
            program,
            artifacts.cfg,
            setup=setup,
            max_instructions=max_instructions,
            reservoir_size=reservoir_size,
        )
        return self._finish_estimate(
            program, artifacts, profile, samples,
            seed=seed, start=start, kernels_before=kernels_before,
        )

    def _finish_estimate(
        self,
        program,
        artifacts: TrainingArtifacts,
        profile,
        samples,
        *,
        seed: int,
        start: float,
        kernels_before,
        inputs: stages.PassInputs | None = None,
    ):
        """Estimation downstream of the evaluation run (per point)."""
        from repro.core.results import ErrorRateReport

        cfg = artifacts.cfg
        stages.characterize_missing(
            artifacts, samples,
            None if inputs is None else inputs.evaluation_windows,
        )
        conditionals = stages.block_conditionals(
            self.processor,
            program,
            cfg,
            artifacts.control_model,
            samples,
            profile,
            n_data_samples=self.n_data_samples,
            seed=seed,
            inputs=inputs,
        )
        lam, mixture, stein, chen = stages.error_distribution(
            cfg, profile, conditionals
        )
        elapsed = time.perf_counter() - start
        kernels = (
            kernel_stats()
            .delta(kernels_before)
            .merge(artifacts.kernel_stats)
            .to_json()
        )
        return ErrorRateReport(
            program=program.name,
            total_instructions=profile.total_instructions,
            static_instructions=len(program),
            basic_blocks=len(cfg),
            characterized_pairs=len(artifacts.control_model),
            lam=lam,
            mixture=mixture,
            stein=stein,
            chen_stein=chen,
            training_seconds=artifacts.training_seconds,
            simulation_seconds=elapsed,
            kernel_stats=kernels,
            training_kernel_stats=artifacts.kernel_stats,
        )

    def estimate_collected(
        self,
        program,
        artifacts: TrainingArtifacts,
        profile,
        samples,
        seed: int = 0,
        inputs: stages.PassInputs | None = None,
    ):
        """Estimate from an already-collected evaluation run.

        The grid evaluator's per-point entry: the shared
        :func:`~repro.core.collect.collect_evaluation` output feeds every operating point,
        and each point runs only the period-dependent tail (on-demand
        characterization, error model, statistical estimate).
        ``inputs`` are the program's pass inputs holding these
        ``samples``: on-demand characterization keeps its windows in
        their ``evaluation_windows``, and the error model its datapath
        half, shared by every point with the same seed, in their
        ``datapath_half`` slot.
        """
        return self._finish_estimate(
            program, artifacts, profile, samples,
            seed=seed,
            start=time.perf_counter(),
            kernels_before=kernel_stats().snapshot(),
            inputs=inputs,
        )

    # ------------------------------------------------------------------ #
    # Request execution (store-aware)
    # ------------------------------------------------------------------ #

    def run(self, request, artifacts: TrainingArtifacts | None = None):
        """Execute one :class:`~repro.core.request.EstimationRequest`.

        The store-less form of :meth:`execute`: trains on the request's
        training dataset (unless pre-trained ``artifacts`` are supplied)
        and estimates on the evaluation dataset, returning only the
        :class:`~repro.core.results.ErrorRateReport`.
        """
        return execute_grid(
            self, [request], use_store=False, artifacts=artifacts
        ).results[0].report

    def execute(self, request) -> PipelineResult:
        """Run one request through the store-aware flow (a one-point grid).

        Every persistable stage output (datapath model, control model,
        window artifacts) is fetched from / written to the
        :class:`ArtifactStore`, and the result carries one
        :class:`StageEvent` per stage saying whether its output was a
        store ``hit`` or freshly ``computed``.
        """
        return self.execute_grid([request]).results[0]

    def execute_grid(self, requests) -> "object":
        """Run requests sharing one grid key through one grid pass.

        ``requests`` must be identical up to ``speculation`` (see
        :func:`~repro.pipeline.grid.grid_key`); the grid evaluator shares
        every period-independent computation across them and returns a
        :class:`~repro.pipeline.grid.GridResult` with one
        :class:`PipelineResult` per request.
        """
        return execute_grid(self, requests)

    # ------------------------------------------------------------------ #
    # Validation + diagnostics
    # ------------------------------------------------------------------ #

    def validator(self, **kwargs):
        """The ground-truth validator for this pipeline's processor.

        Shares the activity cache with the estimation flow unless an
        explicit one is passed.
        """
        from repro.core.montecarlo import MonteCarloValidator

        kwargs.setdefault("activity_cache", self.activity_cache)
        return MonteCarloValidator(self.processor, **kwargs)

    def instruction_breakdown(
        self,
        program,
        artifacts: TrainingArtifacts,
        setup=None,
        max_instructions: int = 1_000_000,
        seed: int = 0,
    ) -> list[dict]:
        """Per-static-instruction contribution to the expected error count.

        Returns one row per executed instruction, sorted by decreasing
        contribution to lambda: ``{"block", "position", "index",
        "instruction", "executions", "mean_probability",
        "expected_errors", "share"}`` — the view an architect uses to
        locate *where* a kernel is vulnerable.
        """
        from repro.cfg.marginal import MarginalSolver

        cfg = artifacts.cfg
        profile, samples = collect_evaluation(
            program, cfg, setup=setup, max_instructions=max_instructions
        )
        stages.characterize_missing(artifacts, samples)
        conditionals = stages.block_conditionals(
            self.processor,
            program,
            cfg,
            artifacts.control_model,
            samples,
            None,
            n_data_samples=self.n_data_samples,
            seed=seed,
        )
        marginals, _ = MarginalSolver(cfg, profile).solve(conditionals)
        rows: list[dict] = []
        lam_total = 0.0
        for bid, probs in marginals.items():
            executions = int(profile.block_counts[bid])
            block = cfg.block(bid)
            for k in range(probs.shape[0]):
                p_mean = float(probs[k].mean())
                contribution = executions * p_mean
                lam_total += contribution
                rows.append(
                    {
                        "block": bid,
                        "position": k,
                        "index": block.start + k,
                        "instruction": str(program[block.start + k]),
                        "executions": executions,
                        "mean_probability": p_mean,
                        "expected_errors": contribution,
                    }
                )
        for row in rows:
            row["share"] = (
                row["expected_errors"] / lam_total if lam_total > 0 else 0.0
            )
        rows.sort(key=lambda r: -r["expected_errors"])
        return rows

    def describe(self) -> dict:
        """The stage graph + store state (``pipeline inspect``)."""
        from repro.core.family import available_core_families

        return {
            "schema": "repro.pipeline/1",
            "plan": dict(stages.PLAN),
            "core_family": self.core_family_name,
            "core_families": list(available_core_families()),
            "stages": stages.describe(),
            "store": self.store.describe() if self.store is not None else None,
        }
