"""The staged estimation pipeline: composition root of the flow.

:class:`EstimationPipeline` wires the registered stage backends
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

Store keys additionally fold in the stage name and the selected
backend's ``cache_id``, so a reference run can never serve a kernels
run (or vice versa).  Every request runs through one flow, the grid
evaluator (:func:`repro.pipeline.grid.execute_grid`): :meth:`execute`
is its one-point case and :meth:`run` its store-less form.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from repro.core.collect import SimulationCollector
from repro.cpu.interpreter import FunctionalSimulator
from repro.cpu.state import MachineState
from repro.dta.windowpool import ActivityCache
from repro.kernels import kernel_stats
from repro.pipeline.ir import ProcessorConfig, TrainingArtifacts
from repro.pipeline.registry import REGISTRY, use_backends
from repro.pipeline.store import ArtifactStore

# Importing the stage module is what populates REGISTRY.
from repro.pipeline import stages as _stages  # noqa: F401
from repro.pipeline.grid import execute_grid

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
        backends: Stage -> backend-name overrides (e.g. ``{"dta":
            "reference"}``); unset stages use registry defaults.
        store: The :class:`~repro.pipeline.store.ArtifactStore` to
            persist stage outputs in; defaults to a process-local
            in-memory store when a config is given, and ``None``
            (storeless) otherwise.  Pass ``None`` explicitly to disable.
        n_data_samples: Data-variation sample count used to represent
            the probability random variables.
        window_workers: Fork-pool width for the intra-job window
            fan-out (the ``dta.reference`` backend always runs serial).
        executor: Window-analysis executor name (``"auto"``,
            ``"local-serial"``, ``"local-fork"``; see
            :mod:`repro.dta.executor`).  Serial-pinned ``dta`` backends
            ignore it.
        activity_cache: Content-addressed window activity cache shared
            by training, on-demand characterization, and breakdowns (a
            fresh one is built when omitted).
    """

    def __init__(
        self,
        processor=None,
        *,
        backends: dict[str, str] | None = None,
        store=_UNSET,
        n_data_samples: int = 128,
        window_workers: int = 1,
        executor: str = "auto",
        activity_cache: ActivityCache | None = None,
    ) -> None:
        from repro.dta.executor import get_executor

        if n_data_samples < 2:
            raise ValueError("n_data_samples must be >= 2")
        if window_workers < 1:
            raise ValueError("window_workers must be >= 1")
        get_executor(executor)  # fail fast on unknown names
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
        self.window_workers = window_workers
        self.executor = executor
        self.activity_cache = (
            activity_cache if activity_cache is not None else ActivityCache()
        )
        self.plan = REGISTRY.resolve(backends)
        self._netlist = REGISTRY.create("netlist", self.plan["netlist"])
        self._datapath = REGISTRY.create("datapath", self.plan["datapath"])
        self._dta = REGISTRY.create(
            "dta",
            self.plan["dta"],
            window_workers=window_workers,
            executor=executor,
        )
        self._errormodel = REGISTRY.create("errormodel", self.plan["errormodel"])
        self._estimate = REGISTRY.create("estimate", self.plan["estimate"])
        self._derived: dict[float, EstimationPipeline] = {}
        self._derived_models: dict[float, object] = {}
        self._family_siblings: dict[str, EstimationPipeline] = {}

    # ------------------------------------------------------------------ #
    # Processor access
    # ------------------------------------------------------------------ #

    @property
    def processor(self):
        """The processor under analysis (built on first use)."""
        if self._processor is None:
            self._processor = self._netlist.build(self.config)
        return self._processor

    def processor_for(self, speculation):
        """The processor at ``speculation`` (derived, shared engines)."""
        if (
            speculation is None
            or speculation == self.processor.speculation
        ):
            return self.processor
        if self.config is not None:
            return self._netlist.derive(self.config, speculation)
        if speculation not in self._derived_models:
            self._derived_models[speculation] = self.processor.derive(
                speculation=speculation
            )
        return self._derived_models[speculation]

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
        so entries can never collide across families — plus the backend
        plan and execution knobs.  Requires the recipe
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
                backends=self.plan,
                store=self.store,
                n_data_samples=self.n_data_samples,
                window_workers=self.window_workers,
                executor=self.executor,
                activity_cache=self.activity_cache,
            )
        return self._family_siblings[core_family]

    def pipeline_for(self, speculation) -> "EstimationPipeline":
        """This pipeline at a derived operating point.

        Shares the activity cache (stimulus digests are
        period-independent), the artifact store, and the backend plan.
        """
        if (
            speculation is None
            or speculation == self.processor.speculation
        ):
            return self
        if speculation not in self._derived:
            self._derived[speculation] = EstimationPipeline(
                self.processor_for(speculation),
                backends=self.plan,
                store=self.store,
                n_data_samples=self.n_data_samples,
                window_workers=self.window_workers,
                executor=self.executor,
                activity_cache=self.activity_cache,
            )
        return self._derived[speculation]

    # ------------------------------------------------------------------ #
    # Characterizer / window-artifact plumbing (shim + benchmark surface)
    # ------------------------------------------------------------------ #

    def build_characterizer(self, program):
        """A characterizer wired to this pipeline's cache and pool width."""
        with use_backends(**self.plan):
            with self._dta.activation():
                return self._dta.build_characterizer(
                    self.processor, program, self.activity_cache
                )

    def window_doc(self) -> dict:
        """Persistable period-independent window artifacts."""
        return self._dta.window_doc(self.processor, self.activity_cache)

    def preload_windows(self, doc: dict) -> int:
        """Load a :meth:`window_doc` document; returns entries added."""
        return self._dta.preload_windows(
            self.processor, self.activity_cache, doc
        )

    def artifacts_from_doc(self, program, doc: dict) -> TrainingArtifacts:
        """Rebuild :class:`TrainingArtifacts` from a persisted document."""
        with use_backends(**self.plan):
            return self._dta.artifacts_from_doc(
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
        with use_backends(**self.plan):
            return self._dta.train(
                self.processor,
                program,
                self.activity_cache,
                setup=setup,
                max_instructions=max_instructions,
            )

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
        profile, samples = self.collect_evaluation(
            program,
            artifacts.cfg,
            setup=setup,
            max_instructions=max_instructions,
            reservoir_size=reservoir_size,
        )
        with use_backends(**self.plan):
            with self._dta.activation():
                return self._finish_estimate(
                    program, artifacts, profile, samples,
                    seed=seed, start=start, kernels_before=kernels_before,
                )

    @staticmethod
    def collect_evaluation(
        program,
        cfg,
        *,
        setup,
        max_instructions: int,
        reservoir_size: int,
    ):
        """The evaluation-dataset functional run: profile + samples.

        Period-independent (the interpreter knows nothing about timing)
        and deterministic (fixed-seed reservoir), so one collection can
        feed the estimation of every operating point of a grid.
        """
        simulator = FunctionalSimulator(program)
        state = MachineState()
        if setup is not None:
            setup(state)
        collector = SimulationCollector(cfg, reservoir_size=reservoir_size)
        simulator.run(
            state, max_instructions=max_instructions,
            listener=collector.listener,
        )
        return collector.profile(), collector.samples()

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
    ):
        """Estimation downstream of the evaluation run (per point)."""
        from repro.core.results import ErrorRateReport

        cfg = artifacts.cfg
        self._dta.characterize_missing(artifacts, samples)
        conditionals = self._errormodel.conditionals(
            self.processor,
            program,
            cfg,
            artifacts.control_model,
            samples,
            profile,
            n_data_samples=self.n_data_samples,
            seed=seed,
        )
        lam, mixture, stein, chen = self._estimate.distribution(
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
    ):
        """Estimate from an already-collected evaluation run.

        The grid evaluator's per-point entry: the shared
        :meth:`collect_evaluation` output feeds every operating point,
        and each point runs only the period-dependent tail (on-demand
        characterization, error model, statistical estimate).
        """
        with use_backends(**self.plan):
            with self._dta.activation():
                return self._finish_estimate(
                    program, artifacts, profile, samples,
                    seed=seed,
                    start=time.perf_counter(),
                    kernels_before=kernel_stats().snapshot(),
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
        kwargs.setdefault("activity_cache", self.activity_cache)
        backend = REGISTRY.create("validate", self.plan["validate"])
        return backend.validator(self.processor, **kwargs)

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

        with use_backends(**self.plan):
            with self._dta.activation():
                cfg = artifacts.cfg
                simulator = FunctionalSimulator(program)
                state = MachineState()
                if setup is not None:
                    setup(state)
                collector = SimulationCollector(cfg)
                simulator.run(
                    state, max_instructions=max_instructions,
                    listener=collector.listener,
                )
                profile = collector.profile()
                samples = collector.samples()
                self._dta.characterize_missing(artifacts, samples)
                conditionals = self._errormodel.conditionals(
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
        """The resolved stage graph + store state (``pipeline inspect``)."""
        from repro.core.family import available_core_families

        return {
            "schema": "repro.pipeline/1",
            "plan": dict(self.plan),
            "core_family": self.core_family_name,
            "core_families": list(available_core_families()),
            "stages": REGISTRY.describe(),
            "store": self.store.describe() if self.store is not None else None,
        }
