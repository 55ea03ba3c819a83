"""The Poisson–Gaussian mixture of Equation 14.

The estimated error-count CDF is a Poisson CDF averaged over the Gaussian
approximation of the parameter lambda:

    N_E(k) = integral  e^{-lam} sum_{i<=k} lam^i / i!  dF_lambda(lam)

evaluated with Gauss–Hermite quadrature over the Gaussian (truncated at
zero — a negative lambda realization means a deterministic zero count).

The lower/upper bound curves of Section 6.4 combine the two approximation
errors: the Kolmogorov bound on lambda's normal approximation shifts
lambda's CDF vertically (before the mixture), and the Chen–Stein bound on
the Poisson approximation shifts the mixture CDF vertically, with clipping
to keep valid probabilities.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtri, pdtr, xlogy

from repro._util import check_nonnegative
from repro.sta.gaussian import Gaussian

__all__ = ["PoissonGaussianMixture"]


# ``scipy.stats.poisson.cdf`` / ``.pmf`` evaluated with the formulas and
# out-of-support rules scipy applies, but without importing
# ``scipy.stats`` (over a second of every estimate's start-up).


def _poisson_cdf(k, mu) -> np.ndarray:
    """``scipy.stats.poisson.cdf(k, mu)`` for broadcastable arrays."""
    k, mu = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(mu))
    out = np.zeros(k.shape)
    out[k == np.inf] = 1.0
    good = (mu >= 0) & (k >= 0) & np.isfinite(k)
    if good.any():
        out[good] = np.clip(pdtr(np.floor(k[good]), mu[good]), 0, 1)
    out[~(mu >= 0) | np.isnan(k)] = np.nan
    return out


def _poisson_pmf(k, mu) -> np.ndarray:
    """``scipy.stats.poisson.pmf(k, mu)`` for broadcastable arrays."""
    k, mu = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(mu))
    out = np.zeros(k.shape)
    good = (mu >= 0) & (k >= 0) & (np.floor(k) == k)
    if good.any():
        kg, mg = k[good], mu[good]
        log_pmf = xlogy(kg, mg) - gammaln(kg + 1) - mg
        out[good] = np.clip(np.exp(log_pmf), 0, 1)
    out[~(mu >= 0) | np.isnan(k)] = np.nan
    return out


@lru_cache(maxsize=8)
def _hermite_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss–Hermite nodes and normalized weights.

    Computed once per node count (``hermegauss`` costs milliseconds);
    the arrays are read-only because every mixture shares them.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(points)
    weights = weights / weights.sum()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class PoissonGaussianMixture:
    """The error-count distribution ``N_E`` of Eq. 14.

    Args:
        lam: Gaussian approximation of the Poisson parameter (``lambda``).
        quadrature_points: Gauss–Hermite node count.
    """

    def __init__(self, lam: Gaussian, quadrature_points: int = 96) -> None:
        if quadrature_points < 2:
            raise ValueError("quadrature_points must be >= 2")
        self.lam = lam
        nodes, self._weights = _hermite_rule(quadrature_points)
        # lambda realizations at the probabilists' Hermite nodes.
        self._lam_nodes = lam.mean + lam.std * nodes

    # ------------------------------------------------------------------ #

    @property
    def quadrature_points(self) -> int:
        """Gauss–Hermite node count this mixture was built with."""
        return len(self._lam_nodes)

    @property
    def mean(self) -> float:
        """``E[N_E] = E[lambda]`` (law of total expectation)."""
        return self.lam.mean

    @property
    def variance(self) -> float:
        """``Var[N_E] = E[lambda] + Var[lambda]`` (law of total variance).

        Uses the zero-truncated lambda consistently with :meth:`cdf`.
        """
        lam = np.maximum(self._lam_nodes, 0.0)
        mean = float((self._weights * lam).sum())
        second = float((self._weights * (lam + lam**2)).sum())
        return second - mean**2

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def cdf(self, k) -> np.ndarray | float:
        """``P(N_E <= k)`` for scalar or array ``k`` (Eq. 14)."""
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        lam = np.maximum(self._lam_nodes, 0.0)
        vals = _poisson_cdf(k_arr[:, None], lam[None, :])
        out = vals @ self._weights
        return out if np.ndim(k) else float(out[0])

    def pmf(self, k) -> np.ndarray | float:
        """``P(N_E = k)`` for scalar or array ``k``."""
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        lam = np.maximum(self._lam_nodes, 0.0)
        vals = _poisson_pmf(k_arr[:, None], lam[None, :])
        out = vals @ self._weights
        return out if np.ndim(k) else float(out[0])

    def ppf(self, q: float, k_hint: int | None = None) -> int:
        """Smallest ``k`` with ``cdf(k) >= q`` (bisection on the count)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        hi = max(
            8,
            int(self.mean + 10.0 * max(self.std, 1.0))
            if k_hint is None
            else k_hint,
        )
        while self.cdf(hi) < q:
            hi *= 2
        lo = 0
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------ #
    # Bound curves (Section 6.4)
    # ------------------------------------------------------------------ #

    def cdf_with_lambda_shift(self, k, epsilon: float) -> np.ndarray | float:
        """Eq. 14 with lambda's CDF shifted vertically by ``epsilon``.

        A positive shift makes lambda stochastically *smaller* (its CDF is
        raised), increasing the mixture CDF; a negative shift lowers it.
        Implemented by inverse-transform: quadrature in the uniform domain
        with the quantile argument shifted and clipped.
        """
        n = len(self._lam_nodes)
        u = (np.arange(n) + 0.5) / n
        u_shifted = np.clip(u - epsilon, 1e-12, 1.0 - 1e-12)
        if self.lam.var == 0.0:
            lam = np.full(n, self.lam.mean)
        else:
            # ``Gaussian.ppf`` over every node in one call: same
            # per-element float operations.
            lam = ndtri(u_shifted) * self.lam.std + self.lam.mean
        lam = np.maximum(lam, 0.0)
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        vals = _poisson_cdf(k_arr[:, None], lam[None, :]).mean(axis=1)
        return vals if np.ndim(k) else float(vals[0])

    def bound_cdfs(
        self, k, epsilon_lambda: float, epsilon_poisson: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bound CDF curves at counts ``k``.

        Args:
            k: Count grid.
            epsilon_lambda: Kolmogorov bound on lambda's normal
                approximation (Eq. 13).
            epsilon_poisson: Kolmogorov bound on the Poisson approximation
                (Eq. 9).

        Returns:
            ``(lower, upper)`` arrays, clipped to [0, 1] and monotone.
        """
        check_nonnegative("epsilon_lambda", epsilon_lambda)
        check_nonnegative("epsilon_poisson", epsilon_poisson)
        k_arr = np.atleast_1d(np.asarray(k, dtype=float))
        upper = (
            np.asarray(self.cdf_with_lambda_shift(k_arr, +epsilon_lambda))
            + epsilon_poisson
        )
        lower = (
            np.asarray(self.cdf_with_lambda_shift(k_arr, -epsilon_lambda))
            - epsilon_poisson
        )
        upper = np.maximum.accumulate(np.clip(upper, 0.0, 1.0))
        lower = np.maximum.accumulate(np.clip(lower, 0.0, 1.0))
        return lower, upper
