"""Operating-point selection (the authors' companion problem, ref. [3]).

Given a program's error-rate-vs-frequency behaviour, pick the speculation
ratio that maximizes net performance (or minimizes energy under a
performance constraint when speculation is spent on voltage scaling
instead).  The optimizer wraps the full estimation framework, evaluates a
handful of speculation points, and refines the best bracket with golden-
section search over an interpolated error-rate curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro._util import check_positive
from repro.perf.model import TSPerformanceModel

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle with
    # repro.core, which itself imports repro.perf)
    from repro.core.processor import ProcessorModel

__all__ = ["OperatingPoint", "OperatingPointOptimizer"]


@dataclass(slots=True)
class OperatingPoint:
    """One evaluated operating point.

    Attributes:
        speculation: Frequency ratio over the guardbanded baseline.
        frequency_mhz: Working frequency.
        error_rate_percent: Estimated mean error rate.
        improvement_percent: Net performance vs the baseline.
    """

    speculation: float
    frequency_mhz: float
    error_rate_percent: float
    improvement_percent: float


class OperatingPointOptimizer:
    """Finds a program's best speculation ratio.

    Args:
        base: Base processor configuration; the pipeline, library,
            variation model, trained datapath model, and analyzers are
            shared across all evaluated points (they are frequency-
            independent).
        points: Initial speculation grid.
    """

    def __init__(
        self,
        base: "ProcessorModel",
        points: tuple[float, ...] = (1.0, 1.05, 1.1, 1.15, 1.2, 1.25, 1.3),
    ) -> None:
        if len(points) < 2:
            raise ValueError("need at least two sweep points")
        self.base = base
        self.points = tuple(sorted(points))

    def _processor(self, speculation: float) -> "ProcessorModel":
        check_positive("speculation", speculation)
        # Warm the frequency-independent engines on the base so every
        # derived point inherits them instead of rebuilding its own.
        _ = self.base.clock_period
        _ = self.base.control_analyzer
        _ = self.base.datapath_model
        return self.base.derive(speculation=speculation)

    def evaluate(
        self,
        speculation: float,
        program,
        train_setup=None,
        eval_setup=None,
        max_instructions: int = 300_000,
    ) -> OperatingPoint:
        """Run the framework at one speculation ratio."""
        from repro.pipeline.pipeline import EstimationPipeline

        proc = self._processor(speculation)
        pipeline = EstimationPipeline(proc)
        artifacts = pipeline.train(program, setup=train_setup)
        report = pipeline.estimate(
            program, artifacts, setup=eval_setup,
            max_instructions=max_instructions,
        )
        er = report.error_rate_mean
        return OperatingPoint(
            speculation=speculation,
            frequency_mhz=proc.working_frequency_mhz,
            error_rate_percent=er,
            improvement_percent=proc.performance.improvement_percent(
                er / 100.0
            ),
        )

    def sweep(
        self, program, train_setup=None, eval_setup=None,
        max_instructions: int = 300_000,
    ) -> list[OperatingPoint]:
        """Evaluate every grid point."""
        return [
            self.evaluate(
                s, program, train_setup, eval_setup, max_instructions
            )
            for s in self.points
        ]

    def optimize(
        self, program, train_setup=None, eval_setup=None,
        max_instructions: int = 300_000,
    ) -> tuple[OperatingPoint, list[OperatingPoint]]:
        """Pick the best operating point.

        Evaluates the grid, then refines around the best grid point with
        a log-linear interpolation of the error-rate curve (error rates
        grow roughly exponentially as the clock eats into the slack
        distribution, so log-ER is near-linear in speculation).

        Returns ``(best, evaluated_points)``.
        """
        evaluated = self.sweep(
            program, train_setup, eval_setup, max_instructions
        )
        best_idx = int(
            np.argmax([p.improvement_percent for p in evaluated])
        )
        lo = max(0, best_idx - 1)
        hi = min(len(evaluated) - 1, best_idx + 1)
        if hi - lo < 2:
            return evaluated[best_idx], evaluated
        # Interpolate log-ER over [lo, hi] and maximize the closed-form
        # performance model on the interpolant.
        s = np.array([p.speculation for p in evaluated[lo : hi + 1]])
        er = np.array(
            [
                max(p.error_rate_percent, 1e-6) / 100.0
                for p in evaluated[lo : hi + 1]
            ]
        )
        coef = np.polyfit(s, np.log(er), deg=min(2, len(s) - 1))
        grid = np.linspace(s[0], s[-1], 201)
        er_grid = np.exp(np.polyval(coef, grid))
        penalty = self.base.penalty_cycles
        perf = np.array(
            [
                TSPerformanceModel(g, penalty).improvement_percent(e)
                for g, e in zip(grid, er_grid)
            ]
        )
        g_best = float(grid[int(np.argmax(perf))])
        refined = self.evaluate(
            g_best, program, train_setup, eval_setup, max_instructions
        )
        candidates = evaluated + [refined]
        best = max(candidates, key=lambda p: p.improvement_percent)
        return best, candidates
