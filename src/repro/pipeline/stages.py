"""The pipeline's stages: one implementation each, called directly.

:data:`STAGES` names every stage's implementation:

====================  ==============  ===========================
stage                 implementation  contract
====================  ==============  ===========================
``netlist``           ``generator``   ProcessorConfig -> ProcessorModel
``datapath``          ``trainer``     processor -> DatapathTimingModel (period-independent)
``dta``               ``kernels``     training samples -> ControlTimingModel + window artifacts
``statmin``           ``clark``       slack Gaussians + covariance -> min Gaussian
``errormodel``        ``joint``       operand samples -> per-block conditional probabilities
``estimate``          ``analytic``    marginals + profile -> lambda / mixture / bounds
``validate``          ``montecarlo``  processor + program -> per-chip measured rates
====================  ==============  ===========================

The names are fixed strings: they are folded into the artifact-store
keys and written into every
:class:`~repro.pipeline.pipeline.StageEvent`, so they stay as they are
to keep existing stores and job results stable.  ``dta`` analyzes its
windows in-process, one after another; ``statmin`` is Algorithm 1's
pairwise Clark reduction
(:meth:`repro.dta.algorithm1.StageDTSAnalyzer.combine_grid`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.pipeline.ir import (
    ControlArtifactIR,
    DatapathArtifactIR,
    DatapathInputIR,
    TrainingArtifacts,
    WindowArtifactIR,
)
from repro.pipeline.store import ArtifactStore

__all__ = [
    "STAGES",
    "PLAN",
    "describe",
    "PassInputs",
    "base_processor",
    "datapath_key",
    "ensure_datapath",
    "build_characterizer",
    "collect_training_samples",
    "train_grid",
    "artifacts_from_doc",
    "characterize_missing",
    "window_doc",
    "preload_windows",
    "block_conditionals",
    "error_distribution",
]

#: Stage -> (implementation name, one-line description).
STAGES: dict[str, tuple[str, str]] = {
    "netlist": (
        "generator",
        "Parameterized netlist generator + SSTA-derived operating point",
    ),
    "datapath": (
        "trainer",
        "Operand-dependent datapath timing model fit (period-independent)",
    ),
    "dta": ("kernels", "Vectorized DTS kernels; in-process window loop"),
    "statmin": ("clark", "Pairwise Clark moment-matching reduction"),
    "errormodel": (
        "joint",
        "Joint control+datapath instruction error model (Sec. 5)",
    ),
    "estimate": (
        "analytic",
        "CFG marginal solve + Stein/Chen-Stein bounded mixture (Sec. 6)",
    ),
    "validate": (
        "montecarlo",
        "Brute-force per-chip gate-level measurement (Sec. 7)",
    ),
}

#: Stage -> implementation name.
PLAN: dict[str, str] = {stage: name for stage, (name, _) in STAGES.items()}


def describe() -> list[dict]:
    """One document per stage (the ``pipeline inspect`` payload)."""
    return [
        {
            "stage": stage,
            "default": name,
            "backends": [{"name": name, "description": description}],
        }
        for stage, (name, description) in STAGES.items()
    ]


@dataclass(slots=True)
class PassInputs:
    """A program's period-independent grid-pass inputs.

    Filled lazily by the stages that compute them.  The runs and the
    window maps are fill-once: a run, once set, is never replaced, and
    the window maps only gain entries, each final when added (a window's
    picks memo only gains entries too).  A pass that finds one set skips
    the work behind it.  ``datapath_half`` is a replaceable one-entry
    slot next to them, read and written by :func:`block_conditionals`.

    Attributes:
        training: The training run ``(cfg, samples, instructions)`` of
            :func:`collect_training_samples`.
        evaluation: The evaluation run ``(profile, samples)`` of
            :func:`repro.core.collect.collect_evaluation`.
        training_windows: ``(bid, pred) -> edge inputs`` (activity
            traces, entry specs and first-activated picks memos of the
            normal and corrected windows, see
            :meth:`~repro.dta.characterize.ControlCharacterizer.edge_inputs`)
            of the training samples.
        evaluation_windows: The same for the evaluation samples'
            on-demand characterization (:func:`characterize_missing`).
        datapath_half: The last error-model datapath half
            (:class:`~repro.core.errormodel.DatapathArrivals`) built
            from the evaluation samples, replaced when the seed, the
            sample count or the datapath model changes.
    """

    training: tuple | None = None
    evaluation: tuple | None = None
    training_windows: dict = field(default_factory=dict)
    evaluation_windows: dict = field(default_factory=dict)
    datapath_half: object | None = None


# --------------------------------------------------------------------- #
# netlist: per-process processor registry
# --------------------------------------------------------------------- #

#: Per-process registry of built processors: every engine, pipeline and
#: service thread in the process shares one base processor per config
#: (with its SSTA baseline and datapath model).
_PROCESSORS: dict[str, object] = {}


def base_processor(config):
    """The built (and registry-shared) processor for ``config``.

    Every operating point of ``config`` is derived from this one
    processor, so they all share its period-independent engines.
    Threads racing on a new config keep the first processor stored.
    """
    key = config.digest()
    processor = _PROCESSORS.get(key)
    if processor is None:
        processor = _PROCESSORS.setdefault(key, config.build())
    return processor


# --------------------------------------------------------------------- #
# datapath
# --------------------------------------------------------------------- #


def datapath_key(config) -> str:
    """The store key of ``config``'s datapath model (period-independent)."""
    return ArtifactStore.compose_key(
        "datapath",
        PLAN["datapath"],
        DatapathInputIR.build(config).content_hash,
    )


def ensure_datapath(processor, key=None, store=None):
    """Attach the shared datapath model, via the store when available.

    The model lives on the processor's base, so a model loaded from the
    store is decoded once per base; later calls only check that the
    store still holds a valid entry (:meth:`ArtifactStore.has_entry`),
    and put the base's model again when it does not.  Returns ``True``
    on a store hit, ``False`` on train (or reuse) + put, and ``None``
    when running storeless (model trained or already cached on the
    base).
    """
    if store is None or key is None:
        _ = processor.datapath_model
        return None
    from repro.dta.datapath import DatapathTimingModel

    if processor.has_engine("datapath_model"):
        if store.has_entry("datapath", key):
            return True
    else:
        doc = store.get_entry("datapath", key)
        if doc is not None:
            artifact = DatapathArtifactIR.from_doc(doc)
            processor.base.datapath_model = DatapathTimingModel.from_json(
                artifact.doc["model"]
            )
            return True
    store.put_entry(
        "datapath",
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


def build_characterizer(processor, program, activity_cache):
    """A control characterizer analyzing windows in sorted order."""
    from repro.dta.characterize import ControlCharacterizer

    return ControlCharacterizer(
        processor.pipeline,
        processor.control_analyzer,
        program,
        processor.scheme,
        processor.clock_period,
        activity_cache=activity_cache,
        scheduler=processor.make_scheduler(program),
        simulator=processor.logic_simulator,
        encoder=processor.stimulus_encoder,
    )


def collect_training_samples(
    program, setup=None, max_instructions: int = 2_000_000
):
    """The period-independent half of training: one functional run.

    Returns ``(cfg, samples, instructions)`` — the program's CFG, the
    captured (block, edge) execution windows, and the simulated
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


def train_grid(
    processors,
    program,
    activity_cache,
    setup=None,
    max_instructions: int = 2_000_000,
    inputs: PassInputs | None = None,
) -> list[TrainingArtifacts]:
    """Train at many operating points from one shared functional run.

    ``processors`` are the same configuration at different speculative
    clock periods (derived off one base, so they share the control
    analyzer's path registry).  The training functional simulation runs
    once and every window is scheduled, encoded, and logic-simulated
    once; only the DTS evaluation fans out over the period axis
    (:func:`~repro.dta.characterize.characterize_grid`).  ``inputs``
    carries the training run and window inputs of an earlier call for
    the same program and training spec: what it holds is not recomputed,
    and what is computed is added to it.  Returns per-point
    :class:`TrainingArtifacts` whose control models are byte-identical
    to one-point calls.
    """
    from repro.dta.characterize import characterize_grid
    from repro.kernels import kernel_stats

    start = time.perf_counter()
    kernels_before = kernel_stats().snapshot()
    if inputs is None:
        inputs = PassInputs()
    if inputs.training is None:
        inputs.training = collect_training_samples(
            program, setup, max_instructions
        )
    cfg, samples, instructions = inputs.training
    characterizers = [
        build_characterizer(p, program, activity_cache) for p in processors
    ]
    models = characterize_grid(
        characterizers, samples, inputs.training_windows
    )
    _ = processors[0].datapath_model
    elapsed = time.perf_counter() - start
    # The batched pass cannot attribute counters per point; charge the
    # whole training delta to the first artifact so aggregates stay
    # truthful (the rest carry none, like store-loaded ones).
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
    processor, program, activity_cache, doc: dict
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
    return TrainingArtifacts(
        cfg=build_cfg(program),
        control_model=ControlTimingModel.from_json(
            artifact.doc["control_model"]
        ),
        characterizer=build_characterizer(processor, program, activity_cache),
        training_seconds=float(artifact.doc["training_seconds"]),
        training_instructions=int(artifact.doc["training_instructions"]),
        clock_period=float(stored_period),
    )


def characterize_missing(artifacts, samples, windows=None) -> None:
    """On-demand characterization for blocks/edges unseen in training.

    Blocks reached only by the evaluation dataset get characterized from
    the simulation-phase window (with the single pre-entry record as the
    pipeline-sharing tail); missing pairs are batched through the same
    window-analysis loop as training, in sorted key order.  ``windows``
    is an edge-input map built from these same ``samples``
    (:attr:`PassInputs.evaluation_windows`).
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
            example = next(s for s in block_samples if s.pred == pred)
            tail = [example.entry_prev] if example.entry_prev else []
            tasks.append((bid, pred, tail, example.records))
    if tasks:
        artifacts.characterizer.characterize_many(tasks, model, windows)


def window_doc(processor, activity_cache) -> dict:
    """Persistable period-independent window artifacts."""
    return {
        "schema": WindowArtifactIR.SCHEMA,
        "activity": activity_cache.to_doc(),
        "path_registry": (
            processor.control_analyzer.stage_analyzer.registry_doc()
        ),
    }


def preload_windows(processor, activity_cache, doc: dict, key: str) -> int:
    """Load a :func:`window_doc` document; returns entries added.

    ``key`` is the document's store key: the shared control analyzer
    loads the path registry of each key once.
    """
    artifact = WindowArtifactIR.from_doc(doc)
    added = activity_cache.preload(artifact.doc["activity"], key)
    registry = artifact.doc.get("path_registry")
    if registry is not None:
        processor.control_analyzer.stage_analyzer.preload_registry(
            registry, key
        )
    return added


def windows_loaded(processor, activity_cache, key: str) -> bool:
    """Whether the :func:`window_doc` document stored under ``key`` is
    already in memory: preloaded into the activity cache and into the
    shared control analyzer's path registry."""
    return activity_cache.loaded(key) and (
        processor.control_analyzer.stage_analyzer.registry_loaded(key)
    )


# --------------------------------------------------------------------- #
# errormodel
# --------------------------------------------------------------------- #


def block_conditionals(
    processor, program, cfg, control_model, samples, profile,
    n_data_samples: int, seed: int, inputs: PassInputs | None = None,
) -> dict:
    """Per-block conditional error probabilities from operand samples.

    ``inputs`` are the program's pass inputs: their ``datapath_half``
    slot serves every point with its seed and sample count (see
    :meth:`~repro.core.errormodel.InstructionErrorModel.all_block_probabilities`).
    """
    import numpy as np

    from repro.cfg.marginal import BlockProbabilities
    from repro.core.errormodel import InstructionErrorModel

    error_model = InstructionErrorModel(processor, program, cfg, control_model)
    conditionals = error_model.all_block_probabilities(
        samples, n_samples=n_data_samples, seed=seed,
        half=None if inputs is None else inputs.datapath_half,
    )
    if inputs is not None:
        inputs.datapath_half = error_model.datapath_half
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


def error_distribution(cfg, profile, conditionals):
    """Marginals + profile -> (lambda, mixture, Stein, Chen–Stein)."""
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
