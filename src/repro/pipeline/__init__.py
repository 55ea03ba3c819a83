"""The staged estimation pipeline.

Public surface:

* :data:`REGISTRY`, :func:`active_backend`, :func:`use_backends` — the
  backend registry and process-wide selection;
* :class:`ArtifactStore` / :func:`stable_digest` — the unified
  content-addressed artifact store;
* the typed inter-stage IR (:mod:`repro.pipeline.ir`);
* :class:`EstimationPipeline` — the composition root.

Attributes resolve lazily (PEP 562): importing ``repro.pipeline`` for
:func:`active_backend` from a low-level module (e.g. the SSTA layer)
must not drag in numpy-heavy stage implementations.
"""

from __future__ import annotations

_REGISTRY_EXPORTS = {
    "REGISTRY",
    "BackendInfo",
    "BackendRegistry",
    "active_backend",
    "use_backends",
}
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

__all__ = sorted(
    _REGISTRY_EXPORTS | _STORE_EXPORTS | _IR_EXPORTS | _PIPELINE_EXPORTS
)


def __getattr__(name: str):
    if name in _REGISTRY_EXPORTS:
        from repro.pipeline import registry as module
    elif name in _STORE_EXPORTS:
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
