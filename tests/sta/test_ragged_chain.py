"""Bitwise parity of the ragged lock-step Clark chain.

``statistical_min_grid`` with ``slots``/``lengths`` reduces a batch of
AP sets of different sizes in one chain, each row in its own greedy
order over its own sub-block of one dense covariance matrix.  Every row
must equal the scalar greedy chain (``_pairwise_reduce``) on that row's
Gaussians and covariance sub-block, with exact float equality.
"""

import numpy as np
import pytest

from repro._util import as_rng
from repro.sta import Gaussian
from repro.sta.ssta import (
    _pairwise_reduce,
    statistical_min,
    statistical_min_grid,
)


def _pool(rng, u):
    """A dense PSD covariance over ``u`` Gaussians."""
    a = rng.standard_normal((u, u))
    cov = a @ a.T / u
    return cov, np.diag(cov).copy()


def _batch(sets, pool_means, pool_vars, pad=0.0):
    lengths = np.array([len(s) for s in sets])
    width = lengths.max()
    slots = np.zeros((len(sets), width), dtype=int)
    means = np.full((len(sets), width), pad)
    variances = np.full((len(sets), width), pad)
    for r, s in enumerate(sets):
        slots[r, : len(s)] = s
        means[r, : len(s)] = pool_means[list(s)]
        variances[r, : len(s)] = pool_vars[list(s)]
    return means, variances, slots, lengths


def _scalar(means, variances, slots, lengths, cov, row, method="clark"):
    n = lengths[row]
    items = [
        Gaussian(float(m), float(v))
        for m, v in zip(means[row, :n], variances[row, :n])
    ]
    sub = cov[np.ix_(slots[row, :n], slots[row, :n])]
    if method == "clark":
        return _pairwise_reduce(items, sub, "criticality", minimum=True)
    return statistical_min(items, sub, method=method)


def _assert_rows_equal(sets, pool_means, pool_vars, cov, method="clark"):
    means, variances, slots, lengths = _batch(sets, pool_means, pool_vars)
    got_mean, got_var = statistical_min_grid(
        means, variances, cov, method=method, slots=slots, lengths=lengths
    )
    for row in range(len(sets)):
        want = _scalar(means, variances, slots, lengths, cov, row, method)
        assert got_mean[row] == want.mean, f"row {row} mean not bitwise"
        assert got_var[row] == want.var, f"row {row} var not bitwise"


@pytest.mark.parametrize("seed", range(6))
def test_random_ragged_batches_match_scalar_chain(seed):
    rng = as_rng(seed)
    u = 40
    cov, variances = _pool(rng, u)
    means = rng.uniform(-5, 5, u)
    sets = [
        tuple(rng.choice(u, size=int(n), replace=False))
        for n in rng.integers(1, 25, size=30)
    ]
    # Singletons and duplicated sets inside one batch.
    sets += [(3,), sets[0], sets[4], (7,)]
    _assert_rows_equal(sets, means, variances, cov)


def test_tied_means_keep_the_stable_order():
    rng = as_rng(5)
    u = 24
    cov, variances = _pool(rng, u)
    # Only three distinct means: most comparisons are ties.
    means = rng.choice([-1.0, 0.0, 2.5], size=u)
    sets = [
        tuple(rng.choice(u, size=int(n), replace=False))
        for n in rng.integers(2, 20, size=25)
    ]
    sets += [tuple(range(u)), tuple(reversed(range(u)))]
    _assert_rows_equal(sets, means, variances, cov)


def test_degenerate_theta_pairs():
    # Gaussians 0-3 are one variable plus constants: every pair among
    # them has var_x + var_y - 2 cov == 0, so theta < _EPS.
    u = 8
    cov = np.full((u, u), 0.5)
    cov[:4, :4] = 2.0
    np.fill_diagonal(cov, [2.0] * 4 + [1.0] * 4)
    variances = np.diag(cov).copy()
    means = np.array([1.0, 3.0, -2.0, 0.5, 0.25, 4.0, -1.0, 2.0])
    sets = [(0, 1, 2, 3), (1, 3), (0, 4, 2, 5, 6), (2, 0), (7, 1, 3, 2)]
    _assert_rows_equal(sets, means, variances, cov)


def test_rows_in_any_length_order():
    rng = as_rng(9)
    u = 16
    cov, variances = _pool(rng, u)
    means = rng.uniform(-3, 3, u)
    # Shortest first, longest in the middle: the chain reorders rows.
    sets = [(1,), (2, 5), tuple(range(12)), (4, 9, 3), (0, 15)]
    _assert_rows_equal(sets, means, variances, cov)


def test_montecarlo_batch_reduces_row_by_row():
    rng = as_rng(2)
    u = 10
    cov, variances = _pool(rng, u)
    means = rng.uniform(-2, 2, u)
    sets = [(0, 3, 5), (1,), (2, 4, 6, 8, 9), (7, 0)]
    _assert_rows_equal(sets, means, variances, cov, method="montecarlo")


def test_shared_grid_rows_with_different_orders():
    """Period rows of one AP set whose greedy orders differ run in the
    chain directly (no per-row fallback) and still match."""
    rng = as_rng(4)
    n = 9
    cov, variances = _pool(rng, n)
    means = rng.uniform(-4, 4, (6, n))
    got_mean, got_var = statistical_min_grid(means, variances, cov)
    for p in range(len(means)):
        items = [
            Gaussian(float(m), float(v)) for m, v in zip(means[p], variances)
        ]
        want = _pairwise_reduce(items, cov, "criticality", minimum=True)
        assert got_mean[p] == want.mean and got_var[p] == want.var
