"""Clark's moment-matching for the max/min of correlated Gaussians.

C. E. Clark's 1961 formulas give the first two moments of ``max(X, Y)`` for
jointly Gaussian ``(X, Y)`` and — crucially for chained reductions — the
covariance of the max with any third Gaussian.  The paper's Algorithm 1 uses
a greedy sequence of pairwise *minimum* operations [21] to combine activated
path slacks; minima are computed as ``-max(-X, -Y)``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.sta.gaussian import Gaussian

__all__ = [
    "clark_max",
    "clark_min",
    "clark_max_coefficients",
    "clark_max_coefficients_grid",
    "clark_min_arrays",
]

_EPS = 1e-12

#: Normalizing constant of the standard normal pdf, matching the one
#: scipy computes internally so the pdfs below are bitwise identical to
#: ``stats.norm.pdf``.
_NORM_PDF_C = np.sqrt(2 * np.pi)


def _theta(var_x: float, var_y: float, cov_xy: float) -> float:
    """Clark's theta: std of X - Y."""
    return float(np.sqrt(max(var_x + var_y - 2.0 * cov_xy, 0.0)))


def clark_max_coefficients(
    x: Gaussian, y: Gaussian, cov_xy: float
) -> tuple[Gaussian, float, float]:
    """Moments of ``max(X, Y)`` plus linear covariance-propagation weights.

    Returns ``(m, wx, wy)`` where ``m`` approximates ``max(X, Y)`` and, for
    any Gaussian ``Z``, ``cov(max(X, Y), Z) ~= wx * cov(X, Z) + wy *
    cov(Y, Z)`` (Clark's third formula with ``wx = Phi(alpha)``).
    """
    theta = _theta(x.var, y.var, cov_xy)
    if theta < _EPS:
        # X - Y is (almost) deterministic: the max is whichever has the
        # larger mean.
        if x.mean >= y.mean:
            return x, 1.0, 0.0
        return y, 0.0, 1.0
    alpha = (x.mean - y.mean) / theta
    # The formulas scipy evaluates inside stats.norm.pdf/cdf (bitwise
    # identical), minus its per-call shape/validity machinery — this
    # sits inside every step of every Clark chain.
    phi = float(np.exp(-alpha * alpha / 2.0) / _NORM_PDF_C)
    cphi = float(ndtr(alpha))
    mean = x.mean * cphi + y.mean * (1.0 - cphi) + theta * phi
    second = (
        (x.var + x.mean**2) * cphi
        + (y.var + y.mean**2) * (1.0 - cphi)
        + (x.mean + y.mean) * theta * phi
    )
    var = max(second - mean**2, 0.0)
    return Gaussian(mean, var), cphi, 1.0 - cphi


def clark_max_coefficients_grid(mx, vx, my, vy, cov):
    """Period-axis-batched :func:`clark_max_coefficients`.

    All inputs broadcast elementwise (the grid path passes ``(P,)``
    vectors, one element per operating point); returns ``(mean, var,
    wx, wy)`` arrays.  Every element executes the exact float64 op
    sequence of the scalar function, so each lane is bitwise identical
    to calling :func:`clark_max_coefficients` with that lane's scalars —
    including the degenerate ``theta ~ 0`` collapse to the larger-mean
    argument.
    """
    mx = np.asarray(mx, dtype=float)
    vx = np.asarray(vx, dtype=float)
    my = np.asarray(my, dtype=float)
    vy = np.asarray(vy, dtype=float)
    cov = np.asarray(cov, dtype=float)
    theta = np.sqrt(np.maximum(vx + vy - 2.0 * cov, 0.0))
    degenerate = theta < _EPS
    safe_theta = np.where(degenerate, 1.0, theta)
    alpha = (mx - my) / safe_theta
    phi = np.exp(-alpha * alpha / 2.0) / _NORM_PDF_C
    cphi = ndtr(alpha)
    mean = mx * cphi + my * (1.0 - cphi) + theta * phi
    # float_power, not ``**``: the scalar path squares Python floats via
    # libm pow, which numpy's integer-exponent power rewrites to x*x —
    # off by 1 ulp on ~0.06% of inputs.  float_power keeps libm pow.
    second = (
        (vx + np.float_power(mx, 2.0)) * cphi
        + (vy + np.float_power(my, 2.0)) * (1.0 - cphi)
        + (mx + my) * theta * phi
    )
    var = np.maximum(second - np.float_power(mean, 2.0), 0.0)
    wx = cphi
    wy = 1.0 - cphi
    if np.any(degenerate):
        pick_x = mx >= my
        mean = np.where(degenerate, np.where(pick_x, mx, my), mean)
        var = np.where(degenerate, np.where(pick_x, vx, vy), var)
        wx = np.where(degenerate, np.where(pick_x, 1.0, 0.0), wx)
        wy = np.where(degenerate, np.where(pick_x, 0.0, 1.0), wy)
    return mean, var, wx, wy


def clark_max(x: Gaussian, y: Gaussian, cov_xy: float = 0.0) -> Gaussian:
    """Gaussian moment-matched approximation of ``max(X, Y)``."""
    m, _, _ = clark_max_coefficients(x, y, cov_xy)
    return m


def clark_min(x: Gaussian, y: Gaussian, cov_xy: float = 0.0) -> Gaussian:
    """Gaussian moment-matched approximation of ``min(X, Y)``.

    Uses ``min(X, Y) = -max(-X, -Y)``; the covariance is unchanged by the
    joint negation.
    """
    neg = clark_max(
        Gaussian(-x.mean, x.var), Gaussian(-y.mean, y.var), cov_xy
    )
    return Gaussian(-neg.mean, neg.var)


def clark_min_arrays(m1, v1, m2, v2, cov):
    """Vectorized Clark minimum of two jointly Gaussian arrays.

    All inputs broadcast elementwise; returns ``(mean, var)`` arrays of the
    approximation of ``min(X, Y)``.  Degenerate pairs (``theta ~ 0``)
    collapse to whichever argument has the smaller mean.

    Broadcasting makes the grid generalization free: passing ``(P, N)``
    inputs (an extra leading period axis over the per-sample axis)
    evaluates all ``P`` operating points in one pass, each row bitwise
    identical to the corresponding ``(N,)`` call.
    """
    m1 = np.asarray(m1, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    cov = np.asarray(cov, dtype=float)
    theta = np.sqrt(np.maximum(v1 + v2 - 2.0 * cov, 0.0))
    safe_theta = np.where(theta < _EPS, 1.0, theta)
    # max(-X, -Y): alpha = (m2 - m1) / theta.
    alpha = (m2 - m1) / safe_theta
    # scipy.stats.norm.pdf/cdf's own formulas, without importing
    # scipy.stats (over a second of every estimate's start-up).  Square
    # by multiplying, as scipy's array ``x**2`` does: ``**`` on the numpy
    # scalar that all-scalar inputs produce would call libm pow.
    phi = np.exp(-alpha * alpha / 2.0) / _NORM_PDF_C
    cphi = ndtr(alpha)
    neg_mean = -m1 * cphi - m2 * (1.0 - cphi) + theta * phi
    second = (
        (v1 + m1**2) * cphi
        + (v2 + m2**2) * (1.0 - cphi)
        - (m1 + m2) * theta * phi
    )
    var = np.maximum(second - neg_mean**2, 0.0)
    mean = -neg_mean
    degenerate = theta < _EPS
    if np.any(degenerate):
        pick_first = m1 <= m2
        mean = np.where(degenerate, np.where(pick_first, m1, m2), mean)
        var = np.where(degenerate, np.where(pick_first, v1, v2), var)
    return mean, var
