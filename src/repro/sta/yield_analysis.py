"""Timing-yield analysis on top of SSTA.

Two classic statistical-STA products the operating-point story rests on:

* the **timing-yield curve** — the probability that a manufactured chip
  meets a given clock period (its quantiles define the guardbanded
  sign-off frequency of Section 6.1); and
* **criticality probabilities** — for each capture endpoint, the
  probability that it is the chip's frequency-limiting endpoint (which
  paths deserve design attention).

Both are computed two ways: analytically from the Clark-based statistical
max, and empirically from sampled chips, so each validates the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive
from repro.sta.ssta import StatisticalTimingAnalysis

__all__ = ["YieldAnalysis", "YieldCurve"]


@dataclass(slots=True)
class YieldCurve:
    """Timing yield as a function of clock period.

    Attributes:
        periods: Clock periods (ps), ascending.
        yield_fraction: P(chip meets timing at that period).
    """

    periods: np.ndarray
    yield_fraction: np.ndarray

    def yield_at(self, period: float) -> float:
        """Interpolated yield at ``period``."""
        return float(
            np.interp(period, self.periods, self.yield_fraction)
        )

    def period_for_yield(self, target: float) -> float:
        """Smallest period achieving at least ``target`` yield."""
        if not 0.0 < target < 1.0:
            raise ValueError("target yield must be in (0, 1)")
        idx = np.searchsorted(self.yield_fraction, target)
        if idx >= len(self.periods):
            raise ValueError(f"target yield {target} not reached on grid")
        return float(self.periods[idx])


class YieldAnalysis:
    """Yield curves and endpoint criticality from an SSTA engine.

    Args:
        ssta: The statistical timing engine (supplies the netlist,
            library, and variation model).
        paths_per_endpoint: Path depth used for the per-endpoint worst
            arrival approximation.
    """

    def __init__(
        self,
        ssta: StatisticalTimingAnalysis,
        paths_per_endpoint: int = 4,
    ) -> None:
        check_positive("paths_per_endpoint", paths_per_endpoint)
        self.ssta = ssta
        self.paths_per_endpoint = paths_per_endpoint

    # ------------------------------------------------------------------ #
    # Analytic
    # ------------------------------------------------------------------ #

    def analytic_curve(self, n_points: int = 60) -> YieldCurve:
        """Yield curve from the Clark statistical-max period distribution."""
        dist = self.ssta.clock_period_distribution(self.paths_per_endpoint)
        lo = dist.mean - 4.0 * dist.std
        hi = dist.mean + 5.0 * dist.std
        periods = np.linspace(lo, hi, n_points)
        return YieldCurve(
            periods=periods,
            yield_fraction=np.array([dist.cdf(t) for t in periods]),
        )

    # ------------------------------------------------------------------ #
    # Monte Carlo
    # ------------------------------------------------------------------ #

    def _endpoint_paths(self):
        endpoints, paths = [], []
        for e in self.ssta.netlist.endpoint_ids(captures=True):
            ps = self.ssta.enumerator.critical_paths(
                e, k=self.paths_per_endpoint
            )
            if ps:
                endpoints.append(e)
                paths.append(ps)
        return endpoints, paths

    def sampled_worst_arrivals(
        self, n_chips: int, seed_or_rng=None
    ) -> tuple[list[int], np.ndarray]:
        """Per-chip worst arrival per endpoint.

        Returns ``(endpoint_ids, arrivals)`` with arrivals of shape
        ``(n_chips, n_endpoints)``.
        """
        rng = as_rng(seed_or_rng)
        chips = self.ssta.variation.sample_chips(n_chips, rng)
        endpoints, paths = self._endpoint_paths()
        arrivals = np.empty((n_chips, len(endpoints)))
        for j, ps in enumerate(paths):
            per_path = np.stack(
                [chips[:, list(p.gates)].sum(axis=1) for p in ps]
            )
            arrivals[:, j] = per_path.max(axis=0)
        return endpoints, arrivals

    def monte_carlo_curve(
        self, n_chips: int = 300, n_points: int = 60, seed_or_rng=None
    ) -> YieldCurve:
        """Empirical yield curve from sampled chips."""
        _, arrivals = self.sampled_worst_arrivals(n_chips, seed_or_rng)
        worst = arrivals.max(axis=1) + self.ssta.library.setup_time
        periods = np.linspace(
            worst.min() * 0.98, worst.max() * 1.02, n_points
        )
        fractions = np.array(
            [(worst <= t).mean() for t in periods]
        )
        return YieldCurve(periods=periods, yield_fraction=fractions)

    def criticality_probabilities(
        self, n_chips: int = 300, seed_or_rng=None
    ) -> dict[str, float]:
        """P(endpoint is the chip's frequency limiter), by endpoint name.

        Only endpoints that are critical on at least one sampled chip
        appear; values sum to 1.
        """
        endpoints, arrivals = self.sampled_worst_arrivals(
            n_chips, seed_or_rng
        )
        winners = arrivals.argmax(axis=1)
        counts = np.bincount(winners, minlength=len(endpoints))
        out = {}
        for j, e in enumerate(endpoints):
            if counts[j]:
                name = self.ssta.netlist.gate(e).name
                out[name] = counts[j] / len(winners)
        return out
