"""A small CART regression tree (no external ML dependency).

The datapath timing model's relation between operand features and the
activated critical arrival is strongly piecewise (carry chains saturate,
shifter levels quantize, multiplier rows engage discretely), which a
linear model fits poorly — its large residual, treated as variance, leaks
probability into the error tail.  Related work [18] uses random-forest
models for the same reason.  This module provides a compact regression
tree with variance-reduction splits, plus a tiny bagged ensemble.

Every fit goes through :func:`grow_forest`, which grows any number of
trees together, one depth level at a time: the open nodes of every tree
at that depth are padded to one row count and their split search runs
as one array program.  :meth:`RegressionTree.fit` grows one tree,
:meth:`BaggedTrees.fit` one ensemble and :func:`fit_bagged` many
ensembles (the datapath model's op classes) in one call.  The trees are
the ones a node-by-node recursion grows, bit for bit and in the same
preorder numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive

__all__ = ["RegressionTree", "BaggedTrees", "fit_bagged", "grow_forest"]


@dataclass(slots=True)
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """CART regression with variance-reduction splits.

    A node becomes a leaf at ``max_depth``, below ``2 * min_leaf`` rows,
    at a target variance of at most 1e-12, or when no split lowers the
    summed squared error by more than ``min_gain``.  Otherwise it splits
    at the lowest-SSE cut, scanning features in order and cuts in sorted
    order and keeping the first minimum; the threshold is the midpoint
    of the two values either side of the cut.

    Args:
        max_depth: Maximum tree depth.
        min_leaf: Minimum samples per leaf.
        min_gain: Minimum variance reduction to accept a split.
    """

    def __init__(
        self, max_depth: int = 6, min_leaf: int = 4, min_gain: float = 1e-9
    ) -> None:
        check_positive("max_depth", max_depth)
        check_positive("min_leaf", min_leaf)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.min_gain = min_gain
        self._nodes: list[_Node] = []
        # Node fields as arrays for :meth:`predict`, built on first use.
        self._flat: tuple[np.ndarray, ...] | None = None

    # ------------------------------------------------------------------ #

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        grow_forest([self], [(x, y)])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._flat is None:
            self._flat = tuple(
                np.array([getattr(node, name) for node in self._nodes])
                for name in ("feature", "threshold", "left", "right", "value")
            )
        feature, threshold, left, right, value = self._flat
        # Walk every row down the tree one level per step.
        at = np.zeros(len(x), dtype=int)
        rows = np.flatnonzero(feature[at] >= 0)
        while rows.size:
            node = at[rows]
            go_left = x[rows, feature[node]] <= threshold[node]
            at[rows] = np.where(go_left, left[node], right[node])
            rows = rows[feature[at[rows]] >= 0]
        return value[at]

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def walk(index: int) -> int:
            node = self._nodes[index]
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0) if self._nodes else 0

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-data representation of the fitted tree."""
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "nodes": [
                {
                    "feature": n.feature,
                    "threshold": n.threshold,
                    "left": n.left,
                    "right": n.right,
                    "value": n.value,
                }
                for n in self._nodes
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RegressionTree":
        tree = cls(
            max_depth=int(doc["max_depth"]), min_leaf=int(doc["min_leaf"])
        )
        tree._nodes = [
            _Node(
                feature=int(n["feature"]),
                threshold=float(n["threshold"]),
                left=int(n["left"]),
                right=int(n["right"]),
                value=float(n["value"]),
            )
            for n in doc["nodes"]
        ]
        return tree


def _check_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
        raise ValueError(
            f"x must be (n, d) with a matching 1-D y; got x {x.shape}, "
            f"y {y.shape}"
        )
    if len(y) == 0:
        raise ValueError("cannot fit an empty dataset")
    if not np.isfinite(y).all():
        raise ValueError("y has a NaN or infinite target")
    if not np.isfinite(x).all():
        raise ValueError("x has a NaN or infinite feature")
    return x, y


def grow_forest(trees, data) -> None:
    """Fit ``trees[i]`` on ``data[i] = (x, y)``, all trees together.

    Raises ``ValueError`` for an ``x`` that is not ``(n, d)``, a ``y``
    that is not 1-D of length ``n``, an empty dataset, a non-finite
    value, or datasets of different widths ``d``.

    The rows of all trees are stacked, plus one padding row of ``+inf``
    features that sorts after every real row.  Each level's open nodes
    are ``(tree, depth, rows)``, the rows a contiguous run of ``order``
    in their original order, as the recursion's boolean masks keep them.
    """
    data = [_check_data(x, y) for x, y in data]
    if len({x.shape[1] for x, _ in data}) > 1:
        raise ValueError("every x must have the same number of features")
    sizes = np.array([len(y) for _, y in data])
    pad = int(sizes.sum())
    width = data[0][0].shape[1]
    x_all = np.concatenate([x for x, _ in data] + [np.full((1, width), np.inf)])
    y_all = np.concatenate([y for _, y in data] + [np.zeros(1)])
    max_depth = np.array([t.max_depth for t in trees])
    min_leaf = np.array([t.min_leaf for t in trees])
    min_gain = np.array([float(t.min_gain) for t in trees])

    # Per level, its nodes' (value, feature, threshold, left, right);
    # ``left``/``right`` are level-order ids.
    levels = []
    tree = np.arange(len(trees))
    order = np.arange(pad)
    count = sizes
    depth = 0
    first_id = 0
    while tree.size:
        k = tree.size
        start = np.concatenate([[0], np.cumsum(count)[:-1]])
        value, var, base = _moments(y_all, order, start, count)
        feature = np.full(k, -1)
        threshold = np.zeros(k)
        cand = np.flatnonzero(
            (depth < max_depth[tree])
            & (count >= 2 * min_leaf[tree])
            & (var > 1e-12)
        )
        # Nodes of a similar size share one padded search.
        width_class = np.frexp(count[cand] - 1)[1]
        for w in np.unique(width_class):
            nodes = cand[width_class == w]
            f, thr, sse = _split_search(
                x_all, y_all, order, start[nodes], count[nodes], pad,
                min_leaf[tree[nodes]],
            )
            ok = sse < base[nodes] - min_gain[tree[nodes]]
            feature[nodes[ok]] = f[ok]
            threshold[nodes[ok]] = thr[ok]
        split = np.flatnonzero(feature >= 0)
        left = np.full(k, -1)
        right = np.full(k, -1)
        child_ids = first_id + k + np.arange(2 * split.size)
        left[split] = child_ids[0::2]
        right[split] = child_ids[1::2]
        levels.append((value, feature, threshold, left, right))
        first_id += k
        # Children: each split node's rows, left child first, in order.
        node_of = np.repeat(np.arange(k), count)
        rank = np.full(k, -1)
        rank[split] = np.arange(split.size)
        keep = rank[node_of] >= 0
        rows, owner = order[keep], node_of[keep]
        goes_right = ~(x_all[rows, feature[owner]] <= threshold[owner])
        key = 2 * rank[owner] + goes_right
        order = rows[np.argsort(key, kind="stable")]
        count = np.bincount(key, minlength=2 * split.size)
        tree = np.repeat(tree[split], 2)
        depth += 1

    nodes = _preorder(len(trees), *map(np.concatenate, zip(*levels)))
    for tree, tree_nodes in zip(trees, nodes, strict=True):
        tree._nodes = tree_nodes
        tree._flat = None


def _moments(y_all, order, start, count):
    """Per node: target mean, variance and SSE about the mean.

    Computed over groups of equal-size nodes, one ``(k, m)`` array each:
    numpy's row-wise mean/var/sum of contiguous rows equals the 1-D
    reductions bit for bit (zero padding or ``reduceat`` would not).
    """
    k = count.size
    value, var, base = np.empty(k), np.empty(k), np.empty(k)
    for m in np.unique(count):
        nodes = np.flatnonzero(count == m)
        y = y_all[order[start[nodes, None] + np.arange(m)]]
        mean = y.mean(axis=1)
        value[nodes] = mean
        var[nodes] = y.var(axis=1)
        base[nodes] = ((y - mean[:, None]) ** 2).sum(axis=1)
    return value, var, base


def _split_search(x_all, y_all, order, start, count, pad, min_leaf):
    """``(feature, threshold, sse)`` of the lowest-SSE split per node.

    Every node's rows are padded to the largest node's count with the
    ``+inf`` row (``pad``), sorted per feature with a stable argsort and
    prefix-summed, so cut ``c`` (the first ``c`` sorted rows go left)
    reads the same sums the node's own scan would; the totals come from
    each node's last real row.  Cuts outside ``[min_leaf, n - min_leaf]``,
    between equal values, or with a NaN score are masked out, and the
    feature-major argmin keeps the first minimum, as a feature-by-feature
    scan with a strict ``<`` does.  A node without a valid cut scores
    ``inf``.
    """
    s = count.size
    width = int(count.max())
    col = np.arange(width)
    index = np.where(
        col < count[:, None],
        order[np.minimum(start[:, None] + col, order.size - 1)],
        pad,
    )
    x = x_all[index]  # (s, width, d)
    srt = np.argsort(x, axis=1, kind="stable")
    xs = np.take_along_axis(x, srt, axis=1)
    ys = y_all[index][np.arange(s)[:, None, None], srt]
    del x, srt
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys**2, axis=1)
    del ys
    last = (count - 1)[:, None, None]
    total_sum = np.take_along_axis(csum, last, axis=1)
    total_sq = np.take_along_axis(csq, last, axis=1)
    cut = col[1:, None]
    left_sum, left_sq = csum[:, :-1], csq[:, :-1]
    n_right = count[:, None, None] - cut
    # float_power, not ``**``: a scalar scan squares numpy scalars
    # through libm pow, which numpy's array ``**`` rewrites to x*x.
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (left_sq - np.float_power(left_sum, 2.0) / cut) + (
            (total_sq - left_sq)
            - np.float_power(total_sum - left_sum, 2.0) / n_right
        )
    valid = (
        (cut >= min_leaf[:, None, None])
        & (n_right >= min_leaf[:, None, None])
        & (xs[:, :-1] != xs[:, 1:])
        & ~np.isnan(sse)
    )
    flat = np.where(valid, sse, np.inf).transpose(0, 2, 1).reshape(s, -1)
    best = np.argmin(flat, axis=1)
    node = np.arange(s)
    feature, row = np.divmod(best, width - 1)
    threshold = 0.5 * (xs[node, row, feature] + xs[node, row + 1, feature])
    return feature, threshold, flat[node, best]


def _preorder(n_trees, value, feature, threshold, left, right):
    """Each tree's nodes renumbered to the recursion's preorder (tree
    ``i``'s root is level-order node ``i``)."""
    value, threshold = value.tolist(), threshold.tolist()
    feature, left, right = feature.tolist(), left.tolist(), right.tolist()
    out = []
    for root in range(n_trees):
        visit, stack = [], [root]
        while stack:
            node = stack.pop()
            visit.append(node)
            if feature[node] >= 0:
                stack.append(right[node])
                stack.append(left[node])
        number = {node: i for i, node in enumerate(visit)}
        out.append(
            [
                _Node(
                    feature=feature[node],
                    threshold=threshold[node],
                    left=number[left[node]] if feature[node] >= 0 else -1,
                    right=number[right[node]] if feature[node] >= 0 else -1,
                    value=value[node],
                )
                for node in visit
            ]
        )
    return out


class BaggedTrees:
    """A small bagged ensemble of regression trees.

    Bootstrap-averaged trees reduce the single tree's variance; the
    per-sample prediction spread across members doubles as a model-
    uncertainty estimate (returned by :meth:`predict_with_spread`).
    """

    def __init__(
        self,
        n_trees: int = 7,
        max_depth: int = 6,
        min_leaf: int = 4,
        seed=13,
    ) -> None:
        check_positive("n_trees", n_trees)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.seed = seed
        self._trees: list[RegressionTree] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "BaggedTrees":
        fit_bagged([self], [(x, y)])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        mean, _ = self.predict_with_spread(x)
        return mean

    def predict_with_spread(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and member standard deviation per sample."""
        if not self._trees:
            raise RuntimeError("ensemble is not fitted")
        preds = np.stack([t.predict(x) for t in self._trees])
        return preds.mean(axis=0), preds.std(axis=0)

    def to_dict(self) -> dict:
        """Plain-data representation of the fitted ensemble."""
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "seed": self.seed,
            "trees": [t.to_dict() for t in self._trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BaggedTrees":
        ensemble = cls(
            n_trees=int(doc["n_trees"]),
            max_depth=int(doc["max_depth"]),
            min_leaf=int(doc["min_leaf"]),
            seed=doc.get("seed", 13),
        )
        ensemble._trees = [
            RegressionTree.from_dict(t) for t in doc["trees"]
        ]
        return ensemble


def fit_bagged(ensembles, data) -> None:
    """Fit ``ensembles[i]`` on ``data[i] = (x, y)`` in one forest growth.

    Each ensemble draws its bootstrap rows from its own seed, one
    ``integers(n, size=n)`` per tree, then every member of every
    ensemble is grown by one :func:`grow_forest` call.
    """
    trees, samples = [], []
    for ensemble, (x, y) in zip(ensembles, data, strict=True):
        rng = as_rng(ensemble.seed)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(y)
        ensemble._trees = []
        for _ in range(ensemble.n_trees):
            idx = rng.integers(n, size=n)
            ensemble._trees.append(
                RegressionTree(
                    max_depth=ensemble.max_depth, min_leaf=ensemble.min_leaf
                )
            )
            samples.append((x[idx], y[idx]))
        trees.extend(ensemble._trees)
    grow_forest(trees, samples)
