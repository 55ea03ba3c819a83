"""Exact-float parity of the vectorized regression tree.

``RegressionTree._best_split`` scores every candidate split at once and
``RegressionTree.predict`` walks all rows down the tree together.  The
scalar implementations they replaced are kept below as the reference;
the vectorized ones must return the same ``(feature, threshold, sse)``
bit for bit, grow the same tree (``to_dict()``), and predict the same
values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dta.regression import BaggedTrees, RegressionTree


def _reference_best_split(tree, x, y):
    n, d = x.shape
    base = float(((y - y.mean()) ** 2).sum())
    best = (None, None, base - tree.min_gain)
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys**2)
        total_sum, total_sq = csum[-1], csq[-1]
        for i in range(tree.min_leaf, n - tree.min_leaf + 1):
            if xs[i - 1] == xs[min(i, n - 1)]:
                continue
            left_sum, left_sq = csum[i - 1], csq[i - 1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            sse = (left_sq - left_sum**2 / i) + (
                right_sq - right_sum**2 / (n - i)
            )
            if sse < best[2]:
                threshold = 0.5 * (xs[i - 1] + xs[i])
                best = (f, threshold, sse)
    return best


def _reference_predict(tree, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(len(x))
    for i, row in enumerate(x):
        node = tree._nodes[0]
        while not node.is_leaf:
            node = tree._nodes[
                node.left if row[node.feature] <= node.threshold
                else node.right
            ]
        out[i] = node.value
    return out


class _ReferenceTree(RegressionTree):
    _best_split = _reference_best_split
    predict = _reference_predict


def _same_split(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2] and type(got[2]) is type(want[2])


# Few distinct values so ties, constant columns and repeated thresholds
# are common; arrival-like magnitudes.
_values = st.sampled_from([0.0, 1.0, 2.5, 3.0, 17.0, 250.0, 251.5, 1e3])
_targets = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False, width=64),
    st.sampled_from([0.0, 120.0, 120.5, 900.0]),
)


@st.composite
def _datasets(draw):
    min_leaf = draw(st.integers(1, 6))
    n = draw(st.one_of(st.just(2 * min_leaf), st.integers(2 * min_leaf, 60)))
    d = draw(st.integers(1, 5))
    x = np.array(
        draw(st.lists(_values, min_size=n * d, max_size=n * d)), dtype=float
    ).reshape(n, d)
    if draw(st.booleans()):
        x[:, 0] = x[0, 0]  # a constant feature
    y = np.array(draw(st.lists(_targets, min_size=n, max_size=n)))
    return min_leaf, x, y


@settings(max_examples=300, deadline=None)
@given(_datasets())
def test_best_split_matches_scalar_scan(data):
    min_leaf, x, y = data
    tree = RegressionTree(min_leaf=min_leaf)
    _same_split(tree._best_split(x, y), _reference_best_split(tree, x, y))


def test_best_split_squares_sums_like_the_scalar_scan():
    # The scan squares numpy scalars (libm pow), not arrays (x*x).  With
    # y = [a, 0] the only split's SSE is a*a - a**2: zero under x*x,
    # one rounding step under pow for these a.
    rng = np.random.default_rng(11)
    hard = [
        a for a in map(np.float64, rng.uniform(10.0, 1e4, 20_000))
        if a**2 != a * a
    ][:40]
    assert hard
    tree = RegressionTree(min_leaf=1)
    x = np.array([[0.0], [1.0]])
    for a in hard:
        y = np.array([a, 0.0])
        _same_split(tree._best_split(x, y), _reference_best_split(tree, x, y))


@settings(max_examples=150, deadline=None)
@given(_datasets(), st.integers(1, 6))
def test_fit_and_predict_match_scalar_tree(data, depth):
    min_leaf, x, y = data
    tree = RegressionTree(max_depth=depth, min_leaf=min_leaf).fit(x, y)
    ref = _ReferenceTree(max_depth=depth, min_leaf=min_leaf).fit(x, y)
    assert tree.to_dict() == ref.to_dict()
    probe = np.vstack([x, x + 0.25, x - 0.25])
    assert np.array_equal(tree.predict(probe), _reference_predict(ref, probe))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bagged_ensemble_matches_scalar_trees(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 17, size=(48, 16)).astype(float)
    y = 300.0 + 40.0 * x[:, 1] + rng.normal(0.0, 5.0, 48)
    ensemble = BaggedTrees(n_trees=7, max_depth=6, min_leaf=2).fit(x, y)
    for member in ensemble._trees:
        assert np.array_equal(member.predict(x), _reference_predict(member, x))
    idx = np.random.default_rng(13).integers(48, size=48)
    ref = _ReferenceTree(max_depth=6, min_leaf=2).fit(x[idx], y[idx])
    assert ensemble._trees[0].to_dict() == ref.to_dict()


def test_predict_after_from_dict_and_refit():
    x = np.arange(20.0)[:, None]
    tree = RegressionTree(min_leaf=2).fit(x, (x[:, 0] > 9) * 5.0)
    clone = RegressionTree.from_dict(tree.to_dict())
    assert np.array_equal(clone.predict(x), tree.predict(x))
    tree.fit(x, (x[:, 0] > 4) * 7.0)
    assert np.array_equal(tree.predict(x), _reference_predict(tree, x))
