"""The backend registry: stage implementations selected by name.

Every stage of the estimation pipeline (netlist build, datapath
training, control DTA, statistical minimum, error model, estimation,
validation) is implemented by one or more *backends* registered here
under ``(stage, name)``.  Callers select implementations by name —
``{"dta": "kernels", "statmin": "clark"}`` — instead of threading
``if`` ladders through the flow, and new backends plug in with a
decorator instead of another branch:

>>> @REGISTRY.register("dta", "fancy", description="...")
... class FancyDTABackend: ...

This module is intentionally dependency-free (no numpy, no repro
imports) so that low-level modules — ``repro.sta.ssta``,
``repro.dta.algorithm1`` — can consult the *active* backend selection
(:func:`active_backend` / :func:`use_backends`) without import cycles.
Backend classes themselves are registered by :mod:`repro.pipeline.stages`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "BackendInfo",
    "BackendRegistry",
    "REGISTRY",
    "active_backend",
    "use_backends",
]


@dataclass(frozen=True)
class BackendInfo:
    """One registered stage implementation.

    Attributes:
        stage: Stage name (``"dta"``, ``"statmin"``, ...).
        name: Backend name within the stage (``"kernels"``, ...).
        factory: Callable building the backend instance.
        description: One-line human description for ``pipeline inspect``.
        default: Whether this backend is the stage's default.
    """

    stage: str
    name: str
    factory: object
    description: str = ""
    default: bool = False


class BackendRegistry:
    """Registry of stage backends, keyed ``(stage, backend name)``."""

    def __init__(self) -> None:
        #: stage -> backend name -> info, in registration order.
        self._stages: dict[str, dict[str, BackendInfo]] = {}
        self._defaults: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        stage: str,
        name: str,
        *,
        description: str = "",
        default: bool = False,
    ):
        """Class/function decorator registering a backend factory."""

        def decorate(factory):
            backends = self._stages.setdefault(stage, {})
            if name in backends:
                raise ValueError(
                    f"backend {stage}.{name} is already registered"
                )
            backends[name] = BackendInfo(
                stage=stage,
                name=name,
                factory=factory,
                description=description,
                default=default,
            )
            if default:
                if stage in self._defaults:
                    raise ValueError(
                        f"stage {stage!r} already has a default backend "
                        f"({self._defaults[stage]!r})"
                    )
                self._defaults[stage] = name
            return factory

        return decorate

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def stages(self) -> list[str]:
        """Registered stage names, in registration order."""
        return list(self._stages)

    def backends(self, stage: str) -> list[str]:
        """Backend names available for ``stage``, in registration order."""
        return list(self._require_stage(stage))

    def default(self, stage: str) -> str:
        """The stage's default backend name."""
        self._require_stage(stage)
        try:
            return self._defaults[stage]
        except KeyError:
            raise KeyError(f"stage {stage!r} has no default backend") from None

    def get(self, stage: str, name: str | None = None) -> BackendInfo:
        """The :class:`BackendInfo` for ``stage.name`` (default if None)."""
        backends = self._require_stage(stage)
        if name is None:
            name = self.default(stage)
        try:
            return backends[name]
        except KeyError:
            raise KeyError(
                f"unknown backend {stage}.{name}; "
                f"available: {', '.join(backends)}"
            ) from None

    def create(self, stage: str, name: str | None = None, **kwargs):
        """Instantiate the backend ``stage.name`` (default if None)."""
        return self.get(stage, name).factory(**kwargs)

    def resolve(self, overrides: dict[str, str] | None = None) -> dict[str, str]:
        """A full stage -> backend-name plan: defaults plus ``overrides``."""
        plan = {stage: self.default(stage) for stage in self._stages}
        for stage, name in (overrides or {}).items():
            self.get(stage, name)  # validates both names
            plan[stage] = name
        return plan

    def describe(self) -> list[dict]:
        """One document per stage (the ``pipeline inspect`` payload)."""
        return [
            {
                "stage": stage,
                "default": self._defaults.get(stage),
                "backends": [
                    {
                        "name": info.name,
                        "description": info.description,
                    }
                    for info in backends.values()
                ],
            }
            for stage, backends in self._stages.items()
        ]

    def _require_stage(self, stage: str) -> dict[str, BackendInfo]:
        try:
            return self._stages[stage]
        except KeyError:
            raise KeyError(
                f"unknown stage {stage!r}; "
                f"registered: {', '.join(self._stages) or '(none)'}"
            ) from None


#: The process-wide registry every stage module registers into.
REGISTRY = BackendRegistry()


# --------------------------------------------------------------------- #
# Active selection (consulted from low-level modules)
# --------------------------------------------------------------------- #

#: Stage -> backend-name overrides active in this process.  Set by
#: :func:`use_backends` around pipeline stage execution; fork-pool
#: workers inherit the parent's selection.
_ACTIVE: dict[str, str] = {}


def active_backend(stage: str, default: str) -> str:
    """The backend name currently active for ``stage``.

    A plain dict lookup with no registry involvement, so hot loops
    (e.g. every ``combine`` call of Algorithm 1) can dispatch on it.
    """
    return _ACTIVE.get(stage, default)


@contextmanager
def use_backends(**selection: str):
    """Activate a stage -> backend selection for the enclosed block.

    >>> with use_backends(statmin="montecarlo"):
    ...     ...  # Algorithm 1 reduces AP sets by Monte Carlo sampling
    """
    previous = dict(_ACTIVE)
    _ACTIVE.update({k: v for k, v in selection.items() if v is not None})
    try:
        yield dict(_ACTIVE)
    finally:
        _ACTIVE.clear()
        _ACTIVE.update(previous)
