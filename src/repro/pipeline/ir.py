"""Typed inter-stage IR: the contracts stages exchange.

Every document that crosses a stage boundary has a frozen dataclass
form here with three guarantees:

* **stable content hash** — :attr:`content_hash` digests the canonical
  document, so two IR values with the same hash are interchangeable as
  stage inputs (this is what the :class:`~repro.pipeline.store.ArtifactStore`
  keys on);
* **``to_doc`` / ``from_doc``** — a lossless JSON document round-trip,
  schema-tagged for the persisted artifact IRs;
* **period awareness** — the control input IR carries the clock period
  explicitly; dropping it (``clock_period=None``) yields the
  period-independent identity used for frequency-sweep reuse.

The module also owns :class:`ProcessorConfig` (moved from
``repro.runner.engine``, which re-exports it): the picklable processor
recipe is the netlist stage's input IR, not an engine detail.

Nothing here imports ``repro.core`` or ``repro.runner`` at module level
— the IR sits below both, so stage implementations and the runner can
depend on it without cycles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.cpu.correction import (
    CorrectionScheme,
    NoCorrection,
    PipelineFlush,
    ReplayHalfFrequency,
)
from repro.netlist.generator import PipelineConfig
from repro.pipeline.store import stable_digest
from repro.variation.process import VariationConfig

__all__ = [
    "CORRECTION_SCHEMES",
    "DEFAULT_FAMILY",
    "ProcessorConfig",
    "ProgramIR",
    "TrainingSpec",
    "ControlInputIR",
    "DatapathInputIR",
    "ControlArtifactIR",
    "WindowArtifactIR",
    "DatapathArtifactIR",
    "TrainingArtifacts",
    "program_fingerprint",
]

#: Correction schemes constructible by name (for picklable configs).
CORRECTION_SCHEMES: dict[str, type[CorrectionScheme]] = {
    ReplayHalfFrequency.name: ReplayHalfFrequency,
    PipelineFlush.name: PipelineFlush,
    NoCorrection.name: NoCorrection,
}

#: The default core family name.  Kept as a literal (mirroring
#: ``repro.core.family.DEFAULT_FAMILY``) because the IR sits below
#: ``repro.core`` and must not import it at module level; family
#: validation happens lazily in ``ProcessorConfig.__post_init__``.
DEFAULT_FAMILY = "inorder6"


def program_fingerprint(program) -> str:
    """Content hash of a program: its name plus full disassembly.

    The listing covers every instruction field and label, so two
    programs with the same fingerprint characterize identically.
    """
    blob = f"{program.name}\n{program.listing()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _config_doc(config) -> dict:
    """A dataclass config as a plain sortable dict."""
    return dataclasses.asdict(config)


# --------------------------------------------------------------------- #
# Netlist stage input: the processor recipe
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProcessorConfig:
    """A picklable recipe for building a ``ProcessorModel``.

    The input IR of the netlist stage; engines and pipelines hold this
    (not the multi-megabyte processor object) and look the processor up
    in the per-process registry.  The same fields feed every
    artifact-store key.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    variation: VariationConfig = field(default_factory=VariationConfig)
    scheme: str = ReplayHalfFrequency.name
    speculation: float = 1.15
    yield_quantile: float = 0.9987
    droop_guardband: float = 1.04
    paths_per_endpoint: int = 12
    core_family: str = DEFAULT_FAMILY

    def __post_init__(self) -> None:
        if self.scheme not in CORRECTION_SCHEMES:
            raise ValueError(
                f"unknown correction scheme {self.scheme!r}; "
                f"known: {sorted(CORRECTION_SCHEMES)}"
            )
        # Lazy import: the registry lives above the IR (repro.core), so
        # validating here must not create a module-level cycle.
        from repro.core.family import get_core_family

        get_core_family(self.core_family)

    def build(self):
        from repro.core.family import get_core_family
        from repro.core.processor import ProcessorModel

        family = get_core_family(self.core_family)
        return ProcessorModel(
            pipeline=family.build_netlist(self.pipeline),
            variation_config=self.variation,
            scheme=CORRECTION_SCHEMES[self.scheme](),
            speculation=self.speculation,
            yield_quantile=self.yield_quantile,
            droop_guardband=self.droop_guardband,
            paths_per_endpoint=self.paths_per_endpoint,
            core_family=family,
        )

    def to_doc(self) -> dict:
        doc = {
            "pipeline": _config_doc(self.pipeline),
            "variation": _config_doc(self.variation),
            "scheme": self.scheme,
            "speculation": repr(self.speculation),
            "yield_quantile": repr(self.yield_quantile),
            "droop_guardband": repr(self.droop_guardband),
            "paths_per_endpoint": self.paths_per_endpoint,
        }
        # Omit-on-default keeps every pre-family digest (and therefore
        # every persisted store key and resolved seed) byte-identical.
        if self.core_family != DEFAULT_FAMILY:
            doc["core_family"] = self.core_family
        return doc

    def digest(self) -> str:
        """Identity of this configuration (worker-side registry key)."""
        return stable_digest(self.to_doc())

    @property
    def content_hash(self) -> str:
        return self.digest()


# --------------------------------------------------------------------- #
# Shared input IRs
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProgramIR:
    """A program's identity as a stage input: name + content fingerprint."""

    name: str
    fingerprint: str

    @classmethod
    def from_program(cls, program) -> "ProgramIR":
        return cls(name=program.name, fingerprint=program_fingerprint(program))

    def to_doc(self) -> dict:
        return {"name": self.name, "fingerprint": self.fingerprint}

    @classmethod
    def from_doc(cls, doc: dict) -> "ProgramIR":
        return cls(name=doc["name"], fingerprint=doc["fingerprint"])

    @property
    def content_hash(self) -> str:
        return self.fingerprint


@dataclass(frozen=True)
class TrainingSpec:
    """What the training execution ran: dataset scale, seed, and budget."""

    scale: str = "small"
    seed: int | None = None
    instructions: int = 2_000_000

    def to_doc(self) -> dict:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "instructions": self.instructions,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TrainingSpec":
        return cls(
            scale=doc["scale"],
            seed=doc["seed"],
            instructions=int(doc["instructions"]),
        )

    @property
    def content_hash(self) -> str:
        return stable_digest(self.to_doc())


@dataclass(frozen=True)
class ControlInputIR:
    """Input contract of the control-DTA stage.

    ``clock_period=None`` is the *period-independent* identity — the
    same characterization inputs minus the operating point — used to key
    the window-artifact stream that a frequency sweep reuses.
    """

    program: ProgramIR
    pipeline: dict
    variation: dict
    scheme: str
    paths_per_endpoint: int
    spec: TrainingSpec
    clock_period: float | None = None
    core_family: str = DEFAULT_FAMILY

    @classmethod
    def build(
        cls,
        program,
        config: ProcessorConfig,
        spec: TrainingSpec,
        clock_period: float | None = None,
    ) -> "ControlInputIR":
        return cls(
            program=ProgramIR.from_program(program),
            pipeline=_config_doc(config.pipeline),
            variation=_config_doc(config.variation),
            scheme=config.scheme,
            paths_per_endpoint=config.paths_per_endpoint,
            spec=spec,
            clock_period=clock_period,
            core_family=config.core_family,
        )

    def period_independent(self) -> "ControlInputIR":
        """This input with the operating point dropped."""
        return dataclasses.replace(self, clock_period=None)

    def to_doc(self) -> dict:
        doc = {
            "kind": "control/1" if self.clock_period is not None else "windows/1",
            "program": self.program.fingerprint,
            "pipeline": self.pipeline,
            "variation": self.variation,
            "scheme": self.scheme,
            "paths_per_endpoint": self.paths_per_endpoint,
            "train_scale": self.spec.scale,
            "train_seed": self.spec.seed,
            "train_instructions": self.spec.instructions,
        }
        if self.clock_period is not None:
            # repr() keeps full float precision; a different period is a
            # different (and incompatible) characterization.
            doc["clock_period"] = repr(float(self.clock_period))
        # Omit-on-default: in-order keys stay byte-identical to the
        # pre-family store; other families can never collide with them.
        if self.core_family != DEFAULT_FAMILY:
            doc["core_family"] = self.core_family
        return doc

    @property
    def content_hash(self) -> str:
        return stable_digest(self.to_doc())


@dataclass(frozen=True)
class DatapathInputIR:
    """Input contract of the datapath-training stage (period-independent)."""

    pipeline: dict
    variation: dict
    paths_per_endpoint: int
    core_family: str = DEFAULT_FAMILY

    @classmethod
    def build(cls, config: ProcessorConfig) -> "DatapathInputIR":
        return cls(
            pipeline=_config_doc(config.pipeline),
            variation=_config_doc(config.variation),
            paths_per_endpoint=config.paths_per_endpoint,
            core_family=config.core_family,
        )

    def to_doc(self) -> dict:
        doc = {
            "kind": "datapath/1",
            "pipeline": self.pipeline,
            "variation": self.variation,
            "paths_per_endpoint": self.paths_per_endpoint,
        }
        if self.core_family != DEFAULT_FAMILY:
            doc["core_family"] = self.core_family
        return doc

    @property
    def content_hash(self) -> str:
        return stable_digest(self.to_doc())


# --------------------------------------------------------------------- #
# Output artifact IRs
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ArtifactIR:
    """A schema-tagged stage output document.

    Subclasses pin :attr:`SCHEMA`; :meth:`from_doc` refuses documents
    carrying any other tag, so a mis-filed store entry fails loudly at
    the stage boundary instead of corrupting downstream math.
    """

    doc: dict

    SCHEMA = ""

    def __post_init__(self) -> None:
        if self.doc.get("schema") != self.SCHEMA:
            raise ValueError(
                f"unsupported artifact schema {self.doc.get('schema')!r}; "
                f"expected {self.SCHEMA!r}"
            )

    def to_doc(self) -> dict:
        return self.doc

    @classmethod
    def from_doc(cls, doc: dict) -> "_ArtifactIR":
        return cls(doc=doc)

    @property
    def content_hash(self) -> str:
        return stable_digest(self.doc)


class ControlArtifactIR(_ArtifactIR):
    """Persisted output of the control-DTA stage (period-dependent)."""

    SCHEMA = "repro.training-artifacts/1"


class WindowArtifactIR(_ArtifactIR):
    """Persisted period-independent window artifacts of the DTA stage."""

    SCHEMA = "repro.window-artifacts/1"


class DatapathArtifactIR(_ArtifactIR):
    """Persisted output of the datapath-training stage."""

    SCHEMA = "repro.datapath-model/1"


# --------------------------------------------------------------------- #
# In-memory training output (CFG + model + characterizer)
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class TrainingArtifacts:
    """Everything the training phase produces for one program.

    The in-memory output of the DTA stage: its persistable projection is
    :meth:`to_doc` (a :class:`ControlArtifactIR` document — the CFG and
    characterizer are deterministic functions of the program and
    processor, so only the characterized timing is stored).

    ``clock_period`` records the speculative clock period (ps) the
    control model was characterized at; loading refuses artifacts trained
    at a different period, since the characterized slack distributions
    are meaningless off-period.
    """

    cfg: object
    control_model: object
    characterizer: object
    training_seconds: float
    training_instructions: int
    clock_period: float | None = None
    #: Kernel-layer counters accumulated during training (transient
    #: telemetry — not persisted; ``None`` for loaded artifacts).
    kernel_stats: dict | None = None

    def to_doc(self) -> dict:
        """The persistable document behind :meth:`save`."""
        return {
            "schema": ControlArtifactIR.SCHEMA,
            "control_model": self.control_model.to_json(),
            "training_seconds": self.training_seconds,
            "training_instructions": self.training_instructions,
            "clock_period": self.clock_period,
        }

    def ir(self) -> ControlArtifactIR:
        """The typed persisted form of these artifacts."""
        return ControlArtifactIR(self.to_doc())

    def save(self, path) -> None:
        """Persist the trained control model (JSON).

        Reload with ``EstimationPipeline.load_artifacts``.
        """
        with open(path, "w") as handle:
            json.dump(self.to_doc(), handle)


def timestamp() -> float:
    """Wall-clock seconds (kept here so stages share one clock source)."""
    return time.perf_counter()
