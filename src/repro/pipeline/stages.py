"""Stage backends: the registered implementations of each pipeline stage.

Each stage of the estimation flow has one or more backends registered
into :data:`repro.pipeline.registry.REGISTRY`:

====================  ==========================  ===========================
stage                 backends                    contract
====================  ==========================  ===========================
``netlist``           ``generator``               ProcessorConfig -> ProcessorModel
``datapath``          ``trainer``                 processor -> DatapathTimingModel (period-independent)
``dta``               ``kernels``                 training samples -> ControlTimingModel + window artifacts
``statmin``           ``clark`` / ``montecarlo``  slack Gaussians + covariance -> min Gaussian
``errormodel``        ``joint``                   operand samples -> per-block conditional probabilities
``estimate``          ``analytic``                marginals + profile -> lambda / mixture / bounds
``validate``          ``montecarlo``              processor + program -> per-chip measured rates
====================  ==========================  ===========================

``dta.kernels`` analyzes its windows in-process, one after another.
``statmin`` backends are consulted *inside* Algorithm 1's ``combine``
via :func:`~repro.pipeline.registry.active_backend` — the registry
stays out of that hot loop.
"""

from __future__ import annotations

import time

from repro.pipeline.ir import (
    ControlArtifactIR,
    DatapathArtifactIR,
    TrainingArtifacts,
    WindowArtifactIR,
)
from repro.pipeline.registry import REGISTRY

__all__ = [
    "base_processor",
    "processor_for",
    "GeneratorNetlistBackend",
    "DatapathTrainerBackend",
    "KernelsDTABackend",
    "ClarkStatMinBackend",
    "MonteCarloStatMinBackend",
    "JointErrorModelBackend",
    "AnalyticEstimateBackend",
    "MonteCarloValidateBackend",
]


# --------------------------------------------------------------------- #
# Per-process processor registry (shared with fork-pool workers)
# --------------------------------------------------------------------- #

#: Per-process registry of built processors.  Under the fork start
#: method the parent's warmed entries (base processor, SSTA baseline,
#: datapath model) are inherited by every worker for free.
_PROCESSORS: dict[str, object] = {}
_DERIVED: dict[tuple[str, float], object] = {}


def base_processor(config):
    """The built (and registry-shared) processor for ``config``."""
    key = config.digest()
    if key not in _PROCESSORS:
        _PROCESSORS[key] = config.build()
    return _PROCESSORS[key]


def processor_for(config, speculation):
    """``config``'s processor at ``speculation`` (derived, shared engines)."""
    base = base_processor(config)
    if speculation is None or speculation == base.speculation:
        return base
    key = (config.digest(), speculation)
    if key not in _DERIVED:
        _DERIVED[key] = base.derive(speculation=speculation)
    return _DERIVED[key]


# --------------------------------------------------------------------- #
# netlist
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "netlist",
    "generator",
    description="Parameterized netlist generator + SSTA-derived operating point",
    default=True,
)
class GeneratorNetlistBackend:
    """Builds (and memoizes per process) the processor model."""

    def build(self, config):
        return base_processor(config)

    def derive(self, config, speculation):
        return processor_for(config, speculation)


# --------------------------------------------------------------------- #
# datapath
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "datapath",
    "trainer",
    description="Operand-dependent datapath timing model fit (period-independent)",
    default=True,
)
class DatapathTrainerBackend:
    """Trains or restores the shared datapath timing model."""

    def ensure(self, processor, key=None, store=None, namespace="datapath"):
        """Attach the datapath model, via the store when available.

        Returns ``True`` on a store hit, ``False`` on train+put, and
        ``None`` when running storeless (model trained or already
        cached on the processor).
        """
        if store is None or key is None:
            _ = processor.datapath_model
            return None
        from repro.dta.datapath import DatapathTimingModel

        doc = store.get_entry(namespace, key)
        if doc is not None:
            artifact = DatapathArtifactIR.from_doc(doc)
            processor.datapath_model = DatapathTimingModel.from_json(
                artifact.doc["model"]
            )
            return True
        store.put_entry(
            namespace,
            key,
            {
                "schema": DatapathArtifactIR.SCHEMA,
                "model": processor.datapath_model.to_json(),
            },
        )
        return False


# --------------------------------------------------------------------- #
# dta (control characterization)
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "dta",
    "kernels",
    description="Vectorized DTS kernels; in-process window loop",
    default=True,
)
class KernelsDTABackend:
    """Control characterization on the vectorized kernels, one window
    after another in sorted (block, edge) order."""

    def build_characterizer(self, processor, program, activity_cache):
        from repro.dta.characterize import ControlCharacterizer

        return ControlCharacterizer(
            processor.pipeline,
            processor.control_analyzer,
            program,
            processor.scheme,
            processor.clock_period,
            activity_cache=activity_cache,
            scheduler=processor.make_scheduler(program),
        )

    @staticmethod
    def collect_training_samples(
        program, setup=None, max_instructions: int = 2_000_000
    ):
        """The period-independent half of training: one functional run.

        Returns ``(cfg, samples, instructions)`` — the program's CFG,
        the captured (block, edge) execution windows, and the simulated
        instruction count.
        """
        from repro.cfg.cfg import build_cfg
        from repro.cpu.interpreter import FunctionalSimulator
        from repro.cpu.state import MachineState
        from repro.dta.characterize import ControlSampleCollector

        cfg = build_cfg(program)
        simulator = FunctionalSimulator(program)
        state = MachineState()
        if setup is not None:
            setup(state)
        collector = ControlSampleCollector(cfg)
        result = simulator.run(
            state, max_instructions=max_instructions,
            listener=collector.listener,
        )
        return cfg, collector.samples, result.instructions

    def train(
        self,
        processor,
        program,
        activity_cache,
        setup=None,
        max_instructions: int = 2_000_000,
    ) -> TrainingArtifacts:
        """Characterize the program's control network on a training run."""
        return self.train_grid(
            [processor], program, activity_cache, setup, max_instructions
        )[0]

    def train_grid(
        self,
        processors,
        program,
        activity_cache,
        setup=None,
        max_instructions: int = 2_000_000,
    ) -> list[TrainingArtifacts]:
        """Train at many operating points from one shared functional run.

        ``processors`` are the same configuration at different
        speculative clock periods (derived off one base, so they share
        the control analyzer's path registry).  The training functional
        simulation runs once and every window is scheduled, encoded, and
        logic-simulated once; only the DTS evaluation fans out over the
        period axis (:func:`~repro.dta.characterize.characterize_grid`).
        Returns per-point :class:`TrainingArtifacts` whose control
        models are byte-identical to one-point calls (:meth:`train`).
        """
        from repro.dta.characterize import characterize_grid
        from repro.kernels import kernel_stats

        start = time.perf_counter()
        kernels_before = kernel_stats().snapshot()
        cfg, samples, instructions = self.collect_training_samples(
            program, setup, max_instructions
        )
        characterizers = [
            self.build_characterizer(p, program, activity_cache)
            for p in processors
        ]
        models = characterize_grid(characterizers, samples)
        _ = processors[0].datapath_model
        elapsed = time.perf_counter() - start
        # The batched pass cannot attribute counters per point; charge
        # the whole training delta to the first artifact so aggregates
        # stay truthful (the rest carry none, like store-loaded ones).
        kernels = kernel_stats().delta(kernels_before).to_json()
        return [
            TrainingArtifacts(
                cfg=cfg,
                control_model=model,
                characterizer=characterizer,
                training_seconds=elapsed,
                training_instructions=instructions,
                clock_period=processor.clock_period,
                kernel_stats=kernels if i == 0 else None,
            )
            for i, (processor, characterizer, model) in enumerate(
                zip(processors, characterizers, models)
            )
        ]

    def artifacts_from_doc(
        self, processor, program, activity_cache, doc: dict
    ) -> TrainingArtifacts:
        """Rebuild :class:`TrainingArtifacts` from a persisted document."""
        from repro.cfg.cfg import build_cfg
        from repro.dta.characterize import ControlTimingModel

        artifact = ControlArtifactIR.from_doc(doc)
        stored_period = artifact.doc.get("clock_period")
        if stored_period is None:
            raise ValueError(
                "artifacts document does not record a clock period; "
                "re-train and re-save with this version"
            )
        period = processor.clock_period
        if abs(float(stored_period) - period) > 1e-6 * period:
            raise ValueError(
                f"artifacts were trained at clock period "
                f"{float(stored_period):.3f} ps but this processor runs "
                f"at {period:.3f} ps; re-train for this operating point"
            )
        cfg = build_cfg(program)
        characterizer = self.build_characterizer(
            processor, program, activity_cache
        )
        return TrainingArtifacts(
            cfg=cfg,
            control_model=ControlTimingModel.from_json(
                artifact.doc["control_model"]
            ),
            characterizer=characterizer,
            training_seconds=float(artifact.doc["training_seconds"]),
            training_instructions=int(artifact.doc["training_instructions"]),
            clock_period=float(stored_period),
        )

    def characterize_missing(self, artifacts, samples) -> None:
        """On-demand characterization for blocks/edges unseen in training.

        Blocks reached only by the evaluation dataset get characterized
        from the simulation-phase window (with the single pre-entry
        record as the pipeline-sharing tail); missing pairs are batched
        through the same window-analysis loop as training, in sorted key
        order.
        """
        model = artifacts.control_model
        tasks = []
        for bid, block_samples in sorted(samples.items()):
            preds_needed = {s.pred for s in block_samples}
            for pred in sorted(preds_needed):
                try:
                    model.get(bid, pred, 0)
                    continue
                except KeyError:
                    pass
                example = next(
                    s for s in block_samples if s.pred == pred
                )
                tail = [example.entry_prev] if example.entry_prev else []
                tasks.append((bid, pred, tail, example.records))
        if tasks:
            artifacts.characterizer.characterize_many(tasks, model)

    def window_doc(self, processor, activity_cache) -> dict:
        """Persistable period-independent window artifacts."""
        return {
            "schema": WindowArtifactIR.SCHEMA,
            "activity": activity_cache.to_doc(),
            "path_registry": (
                processor.control_analyzer.stage_analyzer.registry_doc()
            ),
        }

    def preload_windows(self, processor, activity_cache, doc: dict) -> int:
        """Load a :meth:`window_doc` document; returns entries added."""
        artifact = WindowArtifactIR.from_doc(doc)
        added = activity_cache.preload(artifact.doc["activity"])
        registry = artifact.doc.get("path_registry")
        if registry is not None:
            processor.control_analyzer.stage_analyzer.preload_registry(
                registry
            )
        return added


# --------------------------------------------------------------------- #
# statmin (statistical minimum reduction inside Algorithm 1)
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "statmin",
    "clark",
    description="Pairwise Clark moment-matching reduction",
    default=True,
)
class ClarkStatMinBackend:
    method = "clark"


@REGISTRY.register(
    "statmin",
    "montecarlo",
    description="Fixed-seed correlated-sampling reduction (cross-check)",
)
class MonteCarloStatMinBackend:
    method = "montecarlo"


# --------------------------------------------------------------------- #
# errormodel
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "errormodel",
    "joint",
    description="Joint control+datapath instruction error model (Sec. 5)",
    default=True,
)
class JointErrorModelBackend:
    """Per-block conditional error probabilities from operand samples."""

    def conditionals(
        self, processor, program, cfg, control_model, samples, profile,
        n_data_samples: int, seed: int,
    ) -> dict:
        import numpy as np

        from repro.cfg.marginal import BlockProbabilities
        from repro.core.errormodel import InstructionErrorModel

        error_model = InstructionErrorModel(
            processor, program, cfg, control_model
        )
        conditionals = error_model.all_block_probabilities(
            samples, n_samples=n_data_samples, seed=seed
        )
        if profile is not None:
            # A block whose only execution was cut off by the instruction
            # budget has no complete sample; treat it as error-free (its
            # weight is at most one truncated execution).
            for bid in profile.executed_blocks():
                if bid not in conditionals:
                    n_i = cfg.block(bid).size
                    conditionals[bid] = BlockProbabilities(
                        pc=np.zeros((n_i, n_data_samples)),
                        pe=np.zeros((n_i, n_data_samples)),
                    )
        return conditionals


# --------------------------------------------------------------------- #
# estimate
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "estimate",
    "analytic",
    description="CFG marginal solve + Stein/Chen-Stein bounded mixture (Sec. 6)",
    default=True,
)
class AnalyticEstimateBackend:
    """Marginals + profile -> (lambda, mixture, Stein, Chen–Stein)."""

    def distribution(self, cfg, profile, conditionals):
        from repro.cfg.marginal import MarginalSolver
        from repro.sta.gaussian import Gaussian
        from repro.stats.chen_stein import chen_stein_bound
        from repro.stats.mixture import PoissonGaussianMixture
        from repro.stats.stein import stein_normal_bound

        solver = MarginalSolver(cfg, profile)
        marginals, p_in = solver.solve(conditionals)
        executions = {
            bid: int(profile.block_counts[bid])
            for bid in profile.executed_blocks()
        }
        stein = stein_normal_bound(marginals, executions)
        chen = chen_stein_bound(
            marginals,
            {bid: bp.pe for bid, bp in conditionals.items()},
            p_in,
            executions,
        )
        lam = Gaussian(stein.mean, stein.variance)
        mixture = PoissonGaussianMixture(lam)
        return lam, mixture, stein, chen


# --------------------------------------------------------------------- #
# validate
# --------------------------------------------------------------------- #


@REGISTRY.register(
    "validate",
    "montecarlo",
    description="Brute-force per-chip gate-level measurement (Sec. 7)",
    default=True,
)
class MonteCarloValidateBackend:
    """Constructs the ground-truth validator for a processor."""

    def validator(self, processor, **kwargs):
        from repro.core.montecarlo import MonteCarloValidator

        return MonteCarloValidator(processor, **kwargs)
