"""Tests for the Chen–Stein and Stein bounds."""

import numpy as np
import pytest
from scipy import stats as sstats

from repro._util import as_rng
from repro.stats import chen_stein_bound, stein_normal_bound
from repro.stats.poisson_binomial import poisson_binomial_cdf


def _blocks(n_blocks=3, n_i=4, s=32, p_scale=1e-3, seed=0):
    rng = as_rng(seed)
    marginals, cond_e, p_in, execs = {}, {}, {}, {}
    for b in range(n_blocks):
        marginals[b] = rng.random((n_i, s)) * p_scale
        cond_e[b] = rng.random((n_i, s)) * p_scale * 2
        p_in[b] = rng.random(s) * p_scale
        execs[b] = 1000 * (b + 1)
    return marginals, cond_e, p_in, execs


class TestChenStein:
    def test_terms_scale_with_probabilities(self):
        m1, c1, pi1, ex = _blocks(p_scale=1e-3)
        m2 = {b: 10 * v for b, v in m1.items()}
        c2 = {b: 10 * v for b, v in c1.items()}
        pi2 = {b: 10 * v for b, v in pi1.items()}
        b_small = chen_stein_bound(m1, c1, pi1, ex)
        b_big = chen_stein_bound(m2, c2, pi2, ex)
        # b1 ~ p^2 and lambda ~ p, so the d_K bound grows ~ linearly in p.
        assert b_big.d_kolmogorov > 5 * b_small.d_kolmogorov

    def test_worst_case_above_mean(self):
        m, c, pi, ex = _blocks()
        b = chen_stein_bound(m, c, pi, ex)
        assert b.b1_worst >= b.b1_samples.mean()
        assert b.b2_worst >= b.b2_samples.mean()

    def test_bound_in_unit_interval(self):
        m, c, pi, ex = _blocks(p_scale=0.2)
        b = chen_stein_bound(m, c, pi, ex)
        assert 0.0 <= b.d_kolmogorov <= 1.0

    def test_hand_computed_single_block(self):
        """One block, one sample: Eq. 7/8 by hand."""
        p = np.array([[0.01], [0.02]])
        pe = np.array([[0.03], [0.04]])
        pin = {0: np.array([0.05])}
        bound = chen_stein_bound({0: p}, {0: pe}, pin, {0: 10})
        b1 = 10 * (0.05 * 0.01 + 0.01 * 0.02)
        b2 = 10 * (0.05 * 0.03 + 0.01 * 0.04)
        lam = 10 * (0.01 + 0.02)
        assert bound.b1_worst == pytest.approx(b1)
        assert bound.b2_worst == pytest.approx(b2)
        assert bound.lambda_mean == pytest.approx(lam)
        assert bound.d_kolmogorov == pytest.approx(
            min(1.0, 1.0 / lam) * (b1 + b2)
        )

    def test_zero_execution_blocks_ignored(self):
        m, c, pi, ex = _blocks()
        ex2 = dict(ex)
        ex2[0] = 0
        full = chen_stein_bound(m, c, pi, ex)
        partial = chen_stein_bound(m, c, pi, ex2)
        assert partial.lambda_mean < full.lambda_mean

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chen_stein_bound({}, {}, {}, {})

    def test_bound_actually_bounds_poisson_error_independent(self):
        """For independent indicators the bound dominates the true d_K."""
        rng = as_rng(5)
        probs = rng.random(400) * 0.01
        # Model: one block, one instruction per "execution", independent:
        # use pe == pc == p so the chain has no dependence.
        p = probs.reshape(-1, 1)
        bound = chen_stein_bound(
            {0: p}, {0: p}, {0: np.array([0.0])}, {0: 1}
        )
        lam = probs.sum()
        kmax = 30
        exact = poisson_binomial_cdf(probs, max_count=kmax)
        pois = sstats.poisson.cdf(np.arange(kmax + 1), lam)
        true_dk = np.abs(exact - pois).max()
        assert bound.d_kolmogorov >= true_dk


class TestSteinNormal:
    def test_variance_matches_samples(self):
        m, _, _, ex = _blocks(s=2000, seed=3)
        bound = stein_normal_bound(m, ex)
        lam = sum(ex[b] * m[b].sum(axis=0) for b in m)
        assert bound.mean == pytest.approx(lam.mean())
        assert bound.variance == pytest.approx(lam.var())

    def test_moments_of_weighted_summands(self):
        """b1/b2 use each summand e_i*p's centered third/fourth moments."""
        rng = as_rng(2)
        p = rng.beta(0.5, 40.0, size=(3, 400))
        e = 7
        bound = stein_normal_bound({0: p}, {0: e})
        sigma = (e * p.sum(axis=0)).std()
        abs3 = e**3 * sum(np.abs(row - row.mean()) ** 3 @ np.ones(400) / 400
                          for row in p)
        m4 = e**4 * sum(sstats.moment(row, 4) for row in p)
        assert bound.b1 == pytest.approx(4.0 / sigma**3 * abs3, rel=1e-9)
        assert bound.b2 == pytest.approx(
            np.sqrt(28.0) * 2.0**1.5 / (np.sqrt(np.pi) * sigma**2)
            * np.sqrt(m4),
            rel=1e-9,
        )

    def test_conservative_relation(self):
        m, _, _, ex = _blocks(seed=4)
        b = stein_normal_bound(m, ex)
        factor = (2 / np.pi) ** 0.25
        if b.d_wasserstein < 1.0:
            assert b.d_kolmogorov_conservative >= b.d_kolmogorov - 1e-12

    def test_more_summands_tighter_bound(self):
        """CLT: more (comparable) instructions -> smaller Eq. 13 bound."""
        small, _, _, ex_s = _blocks(n_blocks=2, n_i=3, s=256, seed=6)
        big, _, _, ex_b = _blocks(n_blocks=40, n_i=6, s=256, seed=6)
        b_small = stein_normal_bound(small, {b: 100 for b in small})
        b_big = stein_normal_bound(big, {b: 100 for b in big})
        assert b_big.d_wasserstein < b_small.d_wasserstein

    def test_empirical_distance_reasonable(self):
        """Near-Gaussian samples give a small empirical d_K."""
        rng = as_rng(7)
        # A single block whose instruction probabilities are sums of many
        # effects -> lambda close to normal.
        m = {0: rng.normal(0.5, 0.01, size=(50, 4000)).clip(0, 1)}
        bound = stein_normal_bound(m, {0: 10})
        assert bound.d_kolmogorov_empirical < 0.05

    def test_skewed_samples_larger_empirical_distance(self):
        rng = as_rng(8)
        skewed = {0: (rng.exponential(0.3, size=(1, 4000))).clip(0, 1)}
        normal = {0: rng.normal(0.5, 0.05, size=(1, 4000)).clip(0, 1)}
        b_skew = stein_normal_bound(skewed, {0: 5})
        b_norm = stein_normal_bound(normal, {0: 5})
        assert b_skew.d_kolmogorov_empirical > b_norm.d_kolmogorov_empirical

    def test_degenerate_variance(self):
        m = {0: np.full((2, 8), 0.01)}
        b = stein_normal_bound(m, {0: 3})
        assert b.variance == 0.0
        assert b.d_kolmogorov == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stein_normal_bound({}, {})
        with pytest.raises(ValueError):
            stein_normal_bound({0: np.ones((1, 2)) * 0.1}, {0: 0})
