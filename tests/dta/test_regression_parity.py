"""Exact-float parity of the level-wise regression forest.

``grow_forest`` grows every tree of a batch together, one depth level at
a time, and scores every candidate split of a level's nodes at once;
``RegressionTree.predict`` walks all rows down the tree together.  The
scalar per-feature scan and per-row walk below, and the frozen
node-by-node recursion of ``tests/_reference.py``, are the references:
the split search must return the same ``(feature, threshold, sse)`` bit
for bit, every tree of a forest must equal its own recursive fit
(``to_dict()``), and predictions must match.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dta.regression import (
    BaggedTrees,
    RegressionTree,
    _split_search,
    grow_forest,
)
from tests import _reference


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
    """The frozen recursion, splitting with the scalar scan."""

    def fit(self, x, y):
        with mock.patch.object(
            _reference, "best_split", _reference_best_split
        ):
            _reference.grow_forest([self], [(x, y)])
        return self

    predict = _reference_predict


def _level_split(tree, x, y):
    """The level-wise split search of one node holding every row, in
    the scalar scan's contract: ``(feature, threshold, sse)``, or
    ``(None, None, bound)`` when no cut beats ``min_gain``."""
    n = len(y)
    bound = float(((y - y.mean()) ** 2).sum()) - tree.min_gain
    feature, threshold, sse = _split_search(
        np.vstack([x, np.full((1, x.shape[1]), np.inf)]),
        np.append(y, 0.0),
        np.arange(n),
        np.array([0]),
        np.array([n]),
        n,
        np.array([tree.min_leaf]),
    )
    if not sse[0] < bound:
        return None, None, bound
    return int(feature[0]), threshold[0], sse[0]


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
    _same_split(_level_split(tree, x, y), _reference_best_split(tree, x, y))


def test_best_split_squares_sums_like_the_scalar_scan():
    # The scan squares numpy scalars (libm pow), not arrays (x*x).  With
    # y = [a, 0] (or [0, a], for the right side) the only split's SSE is
    # a*a - a**2: zero under x*x, one rounding step under pow for these a.
    rng = np.random.default_rng(11)
    hard = [
        a for a in map(np.float64, rng.uniform(10.0, 1e4, 20_000))
        if a**2 != a * a
    ][:40]
    assert hard
    tree = RegressionTree(min_leaf=1)
    x = np.array([[0.0], [1.0]])
    for a in hard:
        for y in (np.array([a, 0.0]), np.array([0.0, a])):
            _same_split(
                _level_split(tree, x, y), _reference_best_split(tree, x, y)
            )


@settings(max_examples=150, deadline=None)
@given(_datasets(), st.integers(1, 6))
def test_fit_and_predict_match_scalar_tree(data, depth):
    min_leaf, x, y = data
    tree = RegressionTree(max_depth=depth, min_leaf=min_leaf).fit(x, y)
    ref = _ReferenceTree(max_depth=depth, min_leaf=min_leaf).fit(x, y)
    assert tree.to_dict() == ref.to_dict()
    probe = np.vstack([x, x + 0.25, x - 0.25])
    assert np.array_equal(tree.predict(probe), _reference_predict(ref, probe))


@st.composite
def _forests(draw):
    """One forest's fits over ``d`` features: mixed sizes, ``min_leaf``
    often above ``n / 2`` (a root leaf), ties and constant columns."""
    d = draw(st.integers(1, 4))
    problems = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 40))
        min_leaf = draw(st.integers(1, 12))
        max_depth = draw(st.one_of(st.just(1), st.integers(1, 6)))
        x = np.array(
            draw(st.lists(_values, min_size=n * d, max_size=n * d)),
            dtype=float,
        ).reshape(n, d)
        if draw(st.booleans()):
            x[:, -1] = x[0, -1]  # a constant feature
        y = np.array(draw(st.lists(_targets, min_size=n, max_size=n)))
        problems.append((min_leaf, max_depth, x, y))
    return problems


@settings(max_examples=200, deadline=None)
@given(_forests())
def test_forest_equals_per_tree_frozen_fits(problems):
    trees = [
        RegressionTree(max_depth=depth, min_leaf=min_leaf)
        for min_leaf, depth, _, _ in problems
    ]
    grow_forest(trees, [(x, y) for _, _, x, y in problems])
    for tree, (min_leaf, depth, x, y) in zip(trees, problems):
        ref = RegressionTree(max_depth=depth, min_leaf=min_leaf)
        _reference.grow_forest([ref], [(x, y)])
        assert tree.to_dict() == ref.to_dict()
        assert np.array_equal(tree.predict(x), _reference_predict(ref, x))


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


@pytest.mark.parametrize(
    "x, y, match",
    [
        (np.arange(20.0)[:, None], np.arange(20.0)[:, None], "1-D y"),
        (np.arange(20.0)[:, None], np.r_[np.nan, np.arange(19.0)], "target"),
        (np.r_[1.0, np.inf, np.arange(18.0)][:, None], np.arange(20.0),
         "feature"),
    ],
    ids=["2d-target", "nan-target", "inf-feature"],
)
def test_bad_input_is_rejected(x, y, match):
    with pytest.raises(ValueError, match=match):
        RegressionTree(min_leaf=2).fit(x, y)
    with pytest.raises(ValueError, match=match):
        grow_forest([RegressionTree()], [(x, y)])
    with pytest.raises(ValueError, match=match):
        BaggedTrees(n_trees=2, min_leaf=2).fit(x, y)


def test_forest_of_mixed_widths_is_rejected():
    x = np.arange(12.0).reshape(6, 2)
    with pytest.raises(ValueError, match="same number of features"):
        grow_forest(
            [RegressionTree(), RegressionTree()],
            [(x, x[:, 0]), (x[:, :1], x[:, 0])],
        )
