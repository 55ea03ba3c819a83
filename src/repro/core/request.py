"""The unified estimation-request API.

One :class:`EstimationRequest` names everything a train+estimate run
depends on — the workload, the training/evaluation dataset pair, the
operating point, the execution budgets, and the sampling parameters — so
callers (CLI, batch engine, examples, benchmarks) stop hand-threading
``workload.setup(workload.dataset(...))`` / ``workload.budget(...)``
triples through copy-pasted boilerplate.  The request is immutable,
picklable (when the workload is referenced by name), and has a stable
identity document that the artifact cache and the per-job seed derivation
both key on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro._util import check_in, check_nonnegative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

__all__ = ["EstimationRequest"]


@dataclass(frozen=True)
class EstimationRequest:
    """One (workload, dataset pair, operating point) estimation job.

    Attributes:
        workload: Benchmark name (picklable, resolved through the workload
            registry) or a :class:`~repro.workloads.base.Workload` object
            for bring-your-own programs.
        train_scale: Dataset scale for the training phase.
        eval_scale: Dataset scale for the simulation/estimation phase.
        train_seed: Training dataset seed (``None`` = the scale's
            canonical seed).
        eval_seed: Evaluation dataset seed (``None`` = canonical).
        speculation: Working-frequency ratio for this job, or ``None`` to
            use the executing processor's configured operating point.
        max_instructions: Evaluation-run budget override (``None`` = the
            workload's ``eval_scale`` budget).
        train_instructions: Training-run budget override (``None`` = the
            workload's ``train_scale`` budget).
        seed: Data-variation sampling seed; ``None`` derives a
            deterministic per-job seed from the request identity.
        reservoir_size: Per-block operand reservoir size for the
            simulation collector.
        core_family: Registered core-family name the job runs on
            (``"inorder6"`` by default).
    """

    workload: "str | Workload"
    train_scale: str = "small"
    eval_scale: str = "large"
    train_seed: int | None = None
    eval_seed: int | None = None
    speculation: float | None = None
    max_instructions: int | None = None
    train_instructions: int | None = None
    seed: int | None = None
    reservoir_size: int = 160
    core_family: str = "inorder6"

    def __post_init__(self) -> None:
        from repro.core.family import get_core_family
        from repro.workloads.base import SCALES

        check_in("train_scale", self.train_scale, set(SCALES))
        check_in("eval_scale", self.eval_scale, set(SCALES))
        check_positive("reservoir_size", self.reservoir_size)
        if self.speculation is not None:
            check_positive("speculation", self.speculation)
            if not math.isfinite(self.speculation):
                raise ValueError(
                    f"speculation must be finite, got {self.speculation!r}"
                )
        for name in ("max_instructions", "train_instructions"):
            if getattr(self, name) is not None:
                check_positive(name, getattr(self, name))
        for name in ("seed", "train_seed", "eval_seed"):
            if getattr(self, name) is not None:
                check_nonnegative(name, getattr(self, name))
        get_core_family(self.core_family)

    # ------------------------------------------------------------------ #

    @property
    def workload_name(self) -> str:
        """The benchmark name, whether given by name or by object."""
        if isinstance(self.workload, str):
            return self.workload
        return self.workload.name

    def resolve_workload(self) -> "Workload":
        """The workload object (loaded from the registry when named)."""
        if isinstance(self.workload, str):
            from repro.workloads import load_workload

            return load_workload(self.workload)
        return self.workload

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    def identity_doc(self) -> dict:
        """The request's run-defining fields as a canonical document.

        Used for the deterministic per-job seed and as part of the
        artifact-cache key material.
        """
        doc = {
            "workload": self.workload_name,
            "train_scale": self.train_scale,
            "eval_scale": self.eval_scale,
            "train_seed": self.train_seed,
            "eval_seed": self.eval_seed,
            "speculation": self.speculation,
            "max_instructions": self.max_instructions,
            "train_instructions": self.train_instructions,
            "reservoir_size": self.reservoir_size,
        }
        # Omitted at the default so pre-family requests keep the same
        # identity (and therefore the same derived per-job seed).
        if self.core_family != "inorder6":
            doc["core_family"] = self.core_family
        return doc

    def resolved_seed(self) -> int:
        """The sampling seed: explicit, or derived from the identity."""
        if self.seed is not None:
            return self.seed
        blob = json.dumps(self.identity_doc(), sort_keys=True).encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")

    def describe(self) -> str:
        """Short human-readable job label for telemetry and logs."""
        spec = (
            "" if self.speculation is None
            else f" @ {self.speculation:.2f}x"
        )
        return f"{self.workload_name}{spec}"
