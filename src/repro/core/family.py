"""Core-family registry: pluggable pipeline organizations.

The paper's estimation flow — per-stage DTS characterization, AP
selection, statistical minimum, error rate — is core-agnostic: nothing
in Algorithms 1/2 or the limit-theorem estimate cares *which* pipeline
produced the per-cycle stage activity.  What is core-specific is bundled
here into a frozen :class:`CoreFamily` descriptor owning

* the **pipeline structure** (stage mnemonics and depth) and the
  **execution semantics** (the scheduler mapping instruction windows
  onto per-cycle stage occupancy — ``repro.cpu.pipeline`` for the
  in-order core, ``repro.cpu.ooo`` for the Tomasulo core);
* the **netlist generation hook** (the per-stage builder composition in
  ``repro.netlist.generator`` / ``repro.netlist.ooo``);
* the **error-model semantics** (how a correction scheme's replay/flush
  penalty composes with family-specific recovery — an out-of-order core
  pays extra reorder-buffer drain on every correction event, the same
  machinery that recovers branch mispredictions);
* the **performance accounting** (the ``repro.perf`` model built from
  the composed penalty).

Families register by name: out-of-tree cores plug in with :func:`register_core_family` instead of edits to
``repro.netlist`` or ``repro.core.errormodel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.perf.model import TSPerformanceModel

__all__ = [
    "DEFAULT_FAMILY",
    "CoreFamily",
    "register_core_family",
    "get_core_family",
    "available_core_families",
    "resolve_core_family",
]

#: The family every pre-schema-4 document and request implies.
DEFAULT_FAMILY = "inorder6"


@dataclass(frozen=True)
class CoreFamily:
    """One pipeline organization the estimation flow can target.

    Attributes:
        name: Registry name (``"inorder6"``, ``"ooo-tomasulo"``).
        description: One-line human description (``pipeline inspect``).
        stage_names: Stage mnemonics, in pipeline order; their count is
            the family's pipeline depth.
        build_netlist: ``(PipelineConfig | None) -> PipelineNetlist`` —
            the family's netlist generator (per-stage builder selection
            lives behind this hook, not in module-level constants).
        make_scheduler: ``(program, pipeline) -> scheduler`` building
            the family's occupancy scheduler.  The returned object must
            provide ``schedule(window)`` (per-cycle
            :class:`~repro.logicsim.stimulus.PipelineCycle` list) and
            ``entries(window, slot_indices)`` (one analyzer entry per
            slot: an entry cycle, or explicit ``(stage, cycle)`` pairs).
        recovery_cycles: Family-specific cycles added to every corrected
            error on top of the scheme's replay/flush penalty (e.g.
            reorder-buffer drain + reservation-station flush for the
            speculative out-of-order core).  Ignored for schemes that do
            not correct (``NoCorrection``).
        performance_factory: Callable building the perf/overhead model
            from ``(speculation=..., penalty_cycles=...)``; defaults to
            :class:`~repro.perf.model.TSPerformanceModel`.
    """

    name: str
    description: str
    stage_names: tuple[str, ...]
    build_netlist: Callable
    make_scheduler: Callable
    recovery_cycles: float = 0.0
    performance_factory: Callable = TSPerformanceModel

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("core family needs a non-empty name")
        if not self.stage_names:
            raise ValueError(
                f"core family {self.name!r} needs at least one stage"
            )
        if self.recovery_cycles < 0:
            raise ValueError("recovery_cycles must be non-negative")

    @property
    def num_stages(self) -> int:
        """The family's pipeline depth."""
        return len(self.stage_names)

    # ------------------------------------------------------------------ #
    # Error-model semantics (family-composed correction penalties)
    # ------------------------------------------------------------------ #

    def correction_penalty(
        self, scheme, num_stages: int | None = None
    ) -> float:
        """Cycles lost per corrected error on this family.

        The scheme's replay/flush penalty composes with the family's
        recovery cost: an in-order core restarts by refilling the
        pipeline (the scheme's own accounting), while a speculative
        out-of-order core additionally drains its reorder buffer and
        reservation stations — the same recovery path its branch
        mispredictions take.  Schemes that do not correct
        (``guarantees_correctness() is False``) charge no recovery.
        """
        depth = self.num_stages if num_stages is None else num_stages
        penalty = scheme.penalty_cycles(depth)
        if self.recovery_cycles and scheme.guarantees_correctness():
            penalty += self.recovery_cycles
        return penalty

    def make_performance(
        self, speculation: float, scheme, num_stages: int | None = None
    ):
        """The family's perf model at one operating point."""
        return self.performance_factory(
            speculation=speculation,
            penalty_cycles=self.correction_penalty(scheme, num_stages),
        )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

_FAMILIES: dict[str, CoreFamily] = {}


def register_core_family(family: CoreFamily) -> CoreFamily:
    """Register a :class:`CoreFamily` under its name.

    Out-of-tree families call this directly — no edits to
    ``repro.netlist`` or ``repro.core.errormodel`` required.
    """
    if family.name in _FAMILIES:
        raise ValueError(
            f"core family {family.name!r} is already registered"
        )
    _FAMILIES[family.name] = family
    return family


def get_core_family(name: str) -> CoreFamily:
    """The registered family for ``name``; raises naming the options."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown core family {name!r}; "
            f"registered: {', '.join(_FAMILIES) or '(none)'}"
        ) from None


def available_core_families() -> list[str]:
    """Registered family names, in registration order."""
    return list(_FAMILIES)


def resolve_core_family(family) -> CoreFamily:
    """Normalize ``None`` / name / descriptor into a :class:`CoreFamily`."""
    if family is None:
        return get_core_family(DEFAULT_FAMILY)
    if isinstance(family, CoreFamily):
        return family
    return get_core_family(family)


# --------------------------------------------------------------------- #
# Built-in families
# --------------------------------------------------------------------- #


def _inorder_scheduler(program, pipeline):
    from repro.cpu.pipeline import PipelineScheduler

    return PipelineScheduler(program, num_stages=pipeline.num_stages)


def _register_builtin_families() -> None:
    from repro.cpu.ooo.scheduler import make_ooo_scheduler
    from repro.netlist.generator import STAGE_NAMES, generate_pipeline
    from repro.netlist.ooo import OOO_STAGE_NAMES, generate_ooo_pipeline

    register_core_family(
        CoreFamily(
            name=DEFAULT_FAMILY,
            description=(
                "6-stage in-order integer pipeline "
                "(LEON3 stand-in, the paper's Section 6.1 core)"
            ),
            stage_names=STAGE_NAMES,
            build_netlist=generate_pipeline,
            make_scheduler=_inorder_scheduler,
        )
    )
    register_core_family(
        CoreFamily(
            name="ooo-tomasulo",
            description=(
                "speculative out-of-order Tomasulo core: reservation "
                "stations, reorder buffer, 2-bit branch prediction with "
                "misprediction recovery"
            ),
            stage_names=OOO_STAGE_NAMES,
            build_netlist=generate_ooo_pipeline,
            make_scheduler=make_ooo_scheduler,
            # Correction events flush speculative state through the same
            # path as a branch misprediction: reorder-buffer drain plus
            # reservation-station/rename-map repair.
            recovery_cycles=4.0,
        )
    )


_register_builtin_families()
