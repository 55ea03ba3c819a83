"""Tests for the exact Poisson binomial."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from repro._util import as_rng
from repro.stats import poisson_binomial_cdf, poisson_binomial_pmf


class TestPoissonBinomial:
    def test_all_zero_probabilities(self):
        pmf = poisson_binomial_pmf(np.zeros(5))
        assert pmf[0] == 1.0
        assert pmf[1:].sum() == 0.0

    def test_all_one_probabilities(self):
        pmf = poisson_binomial_pmf(np.ones(4))
        assert pmf[4] == pytest.approx(1.0)

    def test_matches_binomial_for_identical_p(self):
        n, p = 12, 0.3
        pmf = poisson_binomial_pmf(np.full(n, p))
        expected = sstats.binom.pmf(np.arange(n + 1), n, p)
        np.testing.assert_allclose(pmf, expected, atol=1e-12)

    def test_two_heterogeneous(self):
        pmf = poisson_binomial_pmf(np.array([0.5, 0.1]))
        assert pmf[0] == pytest.approx(0.45)
        assert pmf[1] == pytest.approx(0.5)
        assert pmf[2] == pytest.approx(0.05)

    def test_truncation(self):
        pmf = poisson_binomial_pmf(np.full(10, 0.5), max_count=3)
        assert len(pmf) == 4
        full = poisson_binomial_pmf(np.full(10, 0.5))
        np.testing.assert_allclose(pmf, full[:4])

    def test_cdf_monotone_and_complete(self):
        rng = as_rng(2)
        p = rng.random(30) * 0.2
        cdf = poisson_binomial_cdf(p)
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf(np.array([0.5, 1.2]))

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_mean_matches_sum_of_p(self, seed):
        rng = as_rng(seed)
        p = rng.random(25) * 0.5
        pmf = poisson_binomial_pmf(p)
        mean = (np.arange(len(pmf)) * pmf).sum()
        assert mean == pytest.approx(p.sum(), rel=1e-9)

    def test_poisson_limit_behaviour(self):
        """Many small probabilities: PBD approaches Poisson(sum p)."""
        p = np.full(2000, 0.001)
        pmf = poisson_binomial_pmf(p, max_count=12)
        lam = p.sum()
        pois = sstats.poisson.pmf(np.arange(13), lam)
        assert np.abs(pmf - pois).max() < 1e-3
