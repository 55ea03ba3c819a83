"""The staged estimation pipeline.

Public surface:

* :class:`ArtifactStore` / :func:`stable_digest` — the unified
  content-addressed artifact store;
* the typed inter-stage IR (:mod:`repro.pipeline.ir`);
* :class:`EstimationPipeline` — the composition root.

Attributes resolve lazily (PEP 562): importing ``repro.pipeline`` for
the store or the IR alone must not drag in the numpy-heavy stage
implementations behind :class:`EstimationPipeline`.
"""

from __future__ import annotations

_STORE_EXPORTS = {"ArtifactStore", "stable_digest"}
_IR_EXPORTS = {
    "CORRECTION_SCHEMES",
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
}
_PIPELINE_EXPORTS = {"EstimationPipeline", "PipelineResult", "StageEvent"}

__all__ = sorted(_STORE_EXPORTS | _IR_EXPORTS | _PIPELINE_EXPORTS)


def __getattr__(name: str):
    if name in _STORE_EXPORTS:
        from repro.pipeline import store as module
    elif name in _IR_EXPORTS:
        from repro.pipeline import ir as module
    elif name in _PIPELINE_EXPORTS:
        from repro.pipeline import pipeline as module
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
