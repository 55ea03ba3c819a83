"""Limit-theorem machinery for program error counts (Section 5).

The program error count ``N_E`` is a weighted sum of dependent Bernoulli
indicators.  This package provides:

* the exact Poisson binomial distribution (small-n ground truth),
* the Poisson approximation with Chen–Stein error bounds (Theorem 5.1,
  Eqs. 7–10),
* the normal approximation of the Poisson parameter λ with Stein's-method
  error bounds (Theorem 5.2, Eqs. 11–13),
* the Poisson–Gaussian mixture CDF of Eq. 14 with lower/upper bound curves
  (Section 6.4), and
* a dependent-indicator Monte Carlo simulator used to validate the
  approximations.
"""

from repro.stats.poisson_binomial import poisson_binomial_pmf, poisson_binomial_cdf
from repro.stats.chen_stein import ChenSteinBound, chen_stein_bound
from repro.stats.stein import SteinNormalBound, stein_normal_bound
from repro.stats.mixture import PoissonGaussianMixture
from repro.stats.validation import IndicatorChainSimulator

__all__ = [
    "poisson_binomial_pmf",
    "poisson_binomial_cdf",
    "ChenSteinBound",
    "chen_stein_bound",
    "SteinNormalBound",
    "stein_normal_bound",
    "PoissonGaussianMixture",
    "IndicatorChainSimulator",
]
