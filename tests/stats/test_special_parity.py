"""Bit-exact parity of the runtime's normal and Poisson functions with
``scipy.stats``.

The package evaluates the normal cdf/pdf/ppf and the Poisson cdf/pmf
through ``scipy.special`` so that no estimate imports ``scipy.stats``
(over a second of start-up).  Each rewritten caller must return exactly
what its ``scipy.stats`` formulation returned, so every comparison here
is ``==`` / ``np.array_equal``, never a tolerance.  Tests may import
``scipy.stats``; the package may not.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.errormodel import InstructionErrorModel
from repro.sta import Gaussian
from repro.sta.clark import clark_max_coefficients, clark_min_arrays
from repro.stats.mixture import (
    PoissonGaussianMixture,
    _poisson_cdf,
    _poisson_pmf,
)
from repro.stats.stein import stein_normal_bound
from tests import _reference

INF = np.inf
_EPS = 1e-12


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2019)


# --------------------------------------------------------------------- #
# Normal distribution
# --------------------------------------------------------------------- #


class TestGaussian:
    def test_cdf_grid(self, rng):
        for mean, var in zip(rng.normal(0, 50, 40), rng.uniform(1e-6, 900, 40)):
            g = Gaussian(float(mean), float(var))
            for x in rng.normal(mean, 3 * np.sqrt(var), 25):
                ref = float(stats.norm.cdf(float(x), loc=g.mean, scale=g.std))
                assert g.cdf(float(x)) == ref

    @pytest.mark.parametrize("x", [INF, -INF, 0.0, -0.0, 1e308, -1e308])
    def test_cdf_edges(self, x):
        g = Gaussian(3.5, 2.25)
        assert same(g.cdf(x), stats.norm.cdf(x, loc=g.mean, scale=g.std))

    def test_zero_variance_is_a_step(self):
        g = Gaussian(3.0, 0.0)
        assert g.cdf(3.0) == 1.0 and g.cdf(np.nextafter(3.0, 0)) == 0.0
        assert g.cdf(INF) == 1.0 and g.cdf(-INF) == 0.0
        assert g.ppf(1e-300) == 3.0

    def test_ppf_grid(self, rng):
        qs = np.concatenate([
            rng.uniform(0, 1, 200),
            [5e-324, 1e-300, 1e-16, 1e-12, 0.5,
             1 - 1e-12, 1 - 1e-16, np.nextafter(1.0, 0.0)],
        ])
        for mean, var in [(0.0, 1.0), (-12.5, 4e-6), (800.0, 1234.5)]:
            g = Gaussian(mean, var)
            for q in qs:
                ref = float(stats.norm.ppf(float(q), loc=g.mean, scale=g.std))
                assert g.ppf(float(q)) == ref


def _ref_clark_min_arrays(m1, v1, m2, v2, cov):
    """``clark_min_arrays`` as written against ``scipy.stats``."""
    m1, v1, m2, v2, cov = (
        np.asarray(a, dtype=float) for a in (m1, v1, m2, v2, cov)
    )
    theta = np.sqrt(np.maximum(v1 + v2 - 2.0 * cov, 0.0))
    safe_theta = np.where(theta < _EPS, 1.0, theta)
    alpha = (m2 - m1) / safe_theta
    phi = stats.norm.pdf(alpha)
    cphi = stats.norm.cdf(alpha)
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


class TestClarkMinArrays:
    def test_grid(self, rng):
        n = 5000
        m1, m2 = rng.normal(0, 100, n), rng.normal(0, 100, n)
        v1, v2 = rng.uniform(0, 400, n), rng.uniform(0, 400, n)
        cov = rng.uniform(-1, 1, n) * np.sqrt(v1 * v2)
        # Zero variances and a far-apart pair (alpha in the tails).
        v1[:50] = 0.0
        v2[:25] = 0.0
        cov[:50] = 0.0
        m2[50:60] = m1[50:60] + 1e6
        got = clark_min_arrays(m1, v1, m2, v2, cov)
        ref = _ref_clark_min_arrays(m1, v1, m2, v2, cov)
        assert same(got[0], ref[0]) and same(got[1], ref[1])

    def test_period_axis_and_scalars(self, rng):
        m1 = rng.normal(0, 10, (4, 30))
        args = (m1, rng.uniform(0, 9, 30), -m1[::-1], rng.uniform(0, 9, 30),
                rng.uniform(-1, 1, 30))
        for got, ref in zip(clark_min_arrays(*args),
                            _ref_clark_min_arrays(*args)):
            assert same(got, ref)
        # All-scalar inputs make ``alpha`` a numpy scalar, whose ``**``
        # is libm pow; scipy squares an array.  Probe the alphas where
        # the two squares differ (theta == 1, so alpha == m2).
        alphas = rng.normal(0, 3, 100_000)
        hard = [a for a in map(np.float64, alphas) if a**2 != a * a][:60]
        assert hard
        for a in hard + [0.5, -7.25]:
            got = clark_min_arrays(0.0, 0.5, float(a), 0.5, 0.0)
            ref = _ref_clark_min_arrays(0.0, 0.5, float(a), 0.5, 0.0)
            assert same(got[0], ref[0]) and same(got[1], ref[1])

    def test_infinite_means(self):
        m1 = np.array([INF, -INF, 1.0, 1e9])
        m2 = np.array([1.0, 2.0, -INF, 3.0])
        v = np.array([1.0, 2.0, 3.0, 0.0])
        with np.errstate(invalid="ignore"):
            got = clark_min_arrays(m1, v, m2, v, 0.0)
            ref = _ref_clark_min_arrays(m1, v, m2, v, 0.0)
        assert same(got[0], ref[0]) and same(got[1], ref[1])


class TestClarkMaxCoefficients:
    """The scalar Clark step against its frozen ``stats.norm.pdf/cdf``
    formulation (``tests/_reference.py``)."""

    def test_dense_alpha_grid(self, rng):
        # theta == 1 here, so alpha == x.mean: a dense sweep through the
        # body and both tails of the normal, plus random moment triples.
        alphas = np.concatenate([
            np.linspace(-40.0, 40.0, 8001),
            rng.normal(0, 3, 2000),
            [-1e3, -38.5, -8.3, -0.0, 0.0, 1e-300, 5e-324, 8.3, 1e3],
        ])
        cases = [(Gaussian(float(a), 0.5), Gaussian(0.0, 0.5), 0.0)
                 for a in alphas]
        for mx, my, vx, vy in zip(rng.normal(0, 100, 2000),
                                  rng.normal(0, 100, 2000),
                                  rng.uniform(0, 400, 2000),
                                  rng.uniform(0, 400, 2000)):
            cov = float(rng.uniform(-1, 1) * np.sqrt(vx * vy))
            cases.append((Gaussian(float(mx), float(vx)),
                          Gaussian(float(my), float(vy)), cov))
        for x, y, cov in cases:
            assert clark_max_coefficients(x, y, cov) == (
                _reference.clark_max_coefficients(x, y, cov)
            )

    def test_degenerate_theta_collapse(self):
        # theta < _EPS: the max collapses onto the larger-mean argument,
        # ties going to ``x``.
        cases = [
            (Gaussian(1.0, 0.0), Gaussian(2.0, 0.0), 0.0),
            (Gaussian(2.0, 0.0), Gaussian(1.0, 0.0), 0.0),
            (Gaussian(3.0, 0.0), Gaussian(3.0, 0.0), 0.0),
            (Gaussian(1.0, 4.0), Gaussian(-1.0, 4.0), 4.0),
            (Gaussian(-1.0, 4.0), Gaussian(1.0, 4.0), 4.0),
            (Gaussian(0.5, 1e-30), Gaussian(0.25, 1e-30), 0.0),
            (Gaussian(0.25, 1e-30), Gaussian(0.5, 0.0), 0.0),
        ]
        for x, y, cov in cases:
            got = clark_max_coefficients(x, y, cov)
            assert got == _reference.clark_max_coefficients(x, y, cov)
            assert got[1:] in {(1.0, 0.0), (0.0, 1.0)}


def _ref_probability(mean, var):
    sd = np.sqrt(var)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, -mean / np.where(sd > 0, sd, 1.0), 0.0)
    p = stats.norm.cdf(z)
    p = np.where(sd > 0, p, (mean < 0).astype(float))
    return np.clip(p, 0.0, 1.0)


def test_error_model_probability(rng):
    mean = np.concatenate([
        rng.normal(0, 30, 3000), [0.0, -0.0, 1e9, -1e9, INF, -INF, 5.0, -5.0]
    ])
    var = np.concatenate([
        rng.uniform(0, 200, 3000), [0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 0.0, 0.0]
    ])
    var[:100] = 0.0
    with np.errstate(invalid="ignore"):
        got = InstructionErrorModel._probability(mean, var)
        ref = _ref_probability(mean, var)
    assert same(got, ref)


def test_stein_empirical_distance(rng):
    marginals = {
        bid: rng.beta(0.5, 20.0, (int(rng.integers(1, 6)), 128))
        for bid in range(12)
    }
    executions = {bid: int(rng.integers(0, 500)) for bid in marginals}
    bound = stein_normal_bound(marginals, executions)
    lam = None
    for bid, p in marginals.items():
        if executions[bid]:
            contrib = executions[bid] * p.sum(axis=0)
            lam = contrib if lam is None else lam + contrib
    mean, sigma = float(lam.mean()), np.sqrt(float(lam.var()))
    xs = np.sort(lam)
    n = len(xs)
    cdf = stats.norm.cdf(xs, loc=mean, scale=sigma)
    steps = np.arange(1, n + 1) / n
    ref = float(
        max(np.abs(steps - cdf).max(), np.abs(steps - 1.0 / n - cdf).max())
    )
    assert bound.d_kolmogorov_empirical == ref


# --------------------------------------------------------------------- #
# Poisson and the Poisson-Gaussian mixture
# --------------------------------------------------------------------- #

COUNTS = np.array(
    [-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.7, 7.0, 10.0, 33.3,
     1000.0]
)
LAMBDAS = [
    Gaussian(5.3, 2.1),
    Gaussian(0.0, 0.0),  # lam == 0 everywhere
    Gaussian(0.4, 1.0),  # half the nodes clipped to lam == 0
    Gaussian(7.0, 0.0),
    Gaussian(1000.0, 2500.0),
]


def test_poisson_helpers_match_scipy(rng):
    k = np.concatenate([COUNTS, [INF, -INF, np.nan], rng.uniform(-5, 60, 200),
                        rng.integers(0, 60, 200).astype(float)])[:, None]
    mu = np.concatenate([[0.0, 1e-300, 1.0, -1.0, np.nan, INF],
                         rng.uniform(0, 50, 40)])[None, :]
    with np.errstate(invalid="ignore"):
        assert same(_poisson_cdf(k, mu), stats.poisson.cdf(k, mu))
    finite = k[np.abs(k[:, 0]) < INF]
    with np.errstate(invalid="ignore"):
        assert same(_poisson_pmf(finite, mu), stats.poisson.pmf(finite, mu))
        assert same(_poisson_pmf(-INF, mu), stats.poisson.pmf(-INF, mu))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_mixture_cdf_and_pmf(lam):
    mix = PoissonGaussianMixture(lam)
    nodes = np.maximum(mix._lam_nodes, 0.0)
    k = np.concatenate([COUNTS, [INF, -INF]])
    ref_cdf = stats.poisson.cdf(k[:, None], nodes[None, :]) @ mix._weights
    assert same(mix.cdf(k), ref_cdf)
    ref_pmf = (
        stats.poisson.pmf(COUNTS[:, None], nodes[None, :]) @ mix._weights
    )
    assert same(mix.pmf(COUNTS), ref_pmf)
    # A scalar count is a (1, n) product, which may add in another order
    # than a row of the (m, n) one: compare like with like.
    for kk in COUNTS:
        one = np.array([[kk]])
        assert mix.cdf(float(kk)) == (
            stats.poisson.cdf(one, nodes[None, :]) @ mix._weights
        )[0]
        assert mix.pmf(float(kk)) == (
            stats.poisson.pmf(one, nodes[None, :]) @ mix._weights
        )[0]


def _ref_cdf_with_lambda_shift(mix, k, epsilon):
    n = len(mix._lam_nodes)
    u = (np.arange(n) + 0.5) / n
    u_shifted = np.clip(u - epsilon, 1e-12, 1.0 - 1e-12)
    if mix.lam.var == 0.0:
        lam = np.full(n, mix.lam.mean)
    else:
        lam = np.array([
            stats.norm.ppf(float(x), loc=mix.lam.mean, scale=mix.lam.std)
            for x in u_shifted
        ])
    lam = np.maximum(lam, 0.0)
    k_arr = np.atleast_1d(np.asarray(k, dtype=float))
    return stats.poisson.cdf(k_arr[:, None], lam[None, :]).mean(axis=1)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
@pytest.mark.parametrize("epsilon", [0.0, 0.05, -0.05, 0.7, -2.0])
def test_mixture_cdf_with_lambda_shift(lam, epsilon):
    mix = PoissonGaussianMixture(lam)
    k = np.concatenate([COUNTS, [INF]])
    assert same(
        mix.cdf_with_lambda_shift(k, epsilon),
        _ref_cdf_with_lambda_shift(mix, k, epsilon),
    )
    assert mix.cdf_with_lambda_shift(2.0, epsilon) == (
        _ref_cdf_with_lambda_shift(mix, 2.0, epsilon)[0]
    )
