"""Stein's-method bound on the normal approximation of lambda.

Theorem 5.2 (Stein [22], in the dependency-neighborhood form of Ross's
survey) bounds the distance between ``W = sum_i X_i`` and a normal of the
same mean and variance.  With the standardized summands
``X'_i = (X_i - E X_i) / sigma`` and neighborhood size ``D``:

    b1 = D^2 / sigma^3 * sum_i E|X_i - mu_i|^3
    b2 = sqrt(28) D^{3/2} / (sqrt(pi) sigma^2) * sqrt(sum_i E (X_i-mu_i)^4)

bound the *Wasserstein* distance of the standardized sum.  The paper's
Eq. 13 converts to the Kolmogorov metric as ``(2/pi)^{1/4} (b1 + b2)``
(printed as ``(z/pi)^{1/4}``), which is what Table 2 reports and what
``d_kolmogorov`` evaluates; the strictly rigorous smoothing conversion
carries a square root — ``(2/pi)^{1/4} sqrt(b1 + b2)`` — and is exposed as
``d_kolmogorov_conservative``.

Here the summands are ``X_ik = e_i * p_ik`` — the weighted instruction
error probabilities over data variation — with ``D = 2`` (adjacent
instructions are dependent through shared gates and spatially correlated
process variation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = ["SteinNormalBound", "stein_normal_bound"]


@dataclass(frozen=True, slots=True)
class SteinNormalBound:
    """Normal-approximation error bound for lambda.

    Attributes:
        mean: Mean of lambda.
        variance: Variance of lambda (from the joint samples, dependence
            included).
        b1: First Stein term (Eq. 11).
        b2: Second Stein term (Eq. 12).
        d_wasserstein: Wasserstein bound ``b1 + b2`` (standardized scale).
        d_kolmogorov: The paper's Eq. 13 bound ``(2/pi)^(1/4) (b1+b2)``.
        d_kolmogorov_conservative: ``(2/pi)^(1/4) sqrt(b1+b2)`` — the
            rigorous smoothing conversion.
        d_kolmogorov_empirical: Directly measured Kolmogorov distance
            between lambda's sample ECDF and the fitted normal.  The paper
            could not Monte-Carlo this (its baseline simulator was too
            slow); at reproduction scale we can, and it stays meaningful
            when the small-program Stein bound saturates.
    """

    mean: float
    variance: float
    b1: float
    b2: float
    d_wasserstein: float
    d_kolmogorov: float
    d_kolmogorov_conservative: float
    d_kolmogorov_empirical: float


def stein_normal_bound(
    marginals: dict[int, np.ndarray],
    executions: dict[int, int],
    neighborhood_size: int = 2,
) -> SteinNormalBound:
    """Evaluate Equations 11–13 from per-block marginal samples.

    Args:
        marginals: Block id -> ``(n_i, S)`` marginal probability samples
            (rows aligned so that sample ``s`` is one coherent data draw).
        executions: Block id -> execution count ``e_i`` (the weight on each
            instruction's indicator, and the repetition count of the
            summand).
        neighborhood_size: ``D`` in the theorem (2 for the paper's
            adjacent-instruction dependence).
    """
    if not marginals:
        raise ValueError("no blocks to bound")
    lam_samples = None
    sum_abs3 = 0.0
    sum_4 = 0.0
    for bid, p in marginals.items():
        e_i = int(executions.get(bid, 0))
        if e_i == 0:
            continue
        contrib = e_i * p.sum(axis=0)
        lam_samples = contrib if lam_samples is None else lam_samples + contrib
        # Each static instruction contributes one summand X_ik = e_i * p_ik
        # (its e_i dynamic copies share the same probability variable), so
        # the centered moments scale with e_i^3 and e_i^4.
        centered = e_i * (p - p.mean(axis=1, keepdims=True))
        sum_abs3 += float((np.abs(centered) ** 3).mean(axis=1).sum())
        sum_4 += float((centered**4).mean(axis=1).sum())
    if lam_samples is None:
        raise ValueError("all blocks have zero executions")
    mean = float(lam_samples.mean())
    variance = float(lam_samples.var())
    if variance <= 0:
        return SteinNormalBound(mean, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    sigma = np.sqrt(variance)
    # Empirical Kolmogorov distance of the lambda samples vs the fit
    # (``scipy.stats.norm.cdf(xs, loc=mean, scale=sigma)``'s formula).
    xs = np.sort(lam_samples)
    n = len(xs)
    cdf = ndtr((xs - mean) / sigma)
    steps = np.arange(1, n + 1) / n
    d_emp = float(
        max(np.abs(steps - cdf).max(), np.abs(steps - 1.0 / n - cdf).max())
    )
    d = float(neighborhood_size)
    b1 = d**2 / sigma**3 * sum_abs3
    b2 = (
        np.sqrt(28.0) * d**1.5 / (np.sqrt(np.pi) * sigma**2) * np.sqrt(sum_4)
    )
    dw = b1 + b2
    factor = (2.0 / np.pi) ** 0.25
    return SteinNormalBound(
        mean=mean,
        variance=variance,
        b1=float(b1),
        b2=float(b2),
        d_wasserstein=float(dw),
        d_kolmogorov=float(min(1.0, factor * dw)),
        d_kolmogorov_conservative=float(min(1.0, factor * np.sqrt(dw))),
        d_kolmogorov_empirical=d_emp,
    )
