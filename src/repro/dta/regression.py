"""A small CART regression tree (no external ML dependency).

The datapath timing model's relation between operand features and the
activated critical arrival is strongly piecewise (carry chains saturate,
shifter levels quantize, multiplier rows engage discretely), which a
linear model fits poorly — its large residual, treated as variance, leaks
probability into the error tail.  Related work [18] uses random-forest
models for the same reason.  This module provides a compact regression
tree with variance-reduction splits, plus a tiny bagged ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive

__all__ = ["RegressionTree", "BaggedTrees"]


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
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or len(x) != len(y):
            raise ValueError("x must be (n, d) with matching y")
        if len(y) == 0:
            raise ValueError("cannot fit an empty dataset")
        self._nodes = []
        self._flat = None
        self._build(x, y, depth=0)
        return self

    def _best_split(self, x, y):
        """Lowest-SSE ``(feature, threshold, sse)`` split, or
        ``(None, None, ...)`` when none beats ``min_gain``.

        Every candidate split of every feature is scored at once from
        the features' sorted cumulative sums.  The result is the one a
        feature-by-feature, threshold-by-threshold scan with a strict
        ``<`` update keeps: the first candidate reaching the minimum.
        """
        n, _ = x.shape
        base = float(((y - y.mean()) ** 2).sum())
        bound = base - self.min_gain
        order = np.argsort(x, axis=0, kind="stable")
        xs = np.take_along_axis(x, order, axis=0)
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        csq = np.cumsum(ys**2, axis=0)
        # Candidate ``cut`` puts the first ``cut`` sorted rows on the left.
        cut = np.arange(self.min_leaf, n - self.min_leaf + 1)
        if cut.size == 0:
            return None, None, bound
        left_sum, left_sq = csum[cut - 1], csq[cut - 1]
        right_sum = csum[-1] - left_sum
        right_sq = csq[-1] - left_sq
        n_left = cut[:, None]
        # float_power, not ``**``: squaring a numpy scalar goes through
        # libm pow, which numpy's array ``**`` rewrites to x*x.
        sse = (left_sq - np.float_power(left_sum, 2.0) / n_left) + (
            right_sq - np.float_power(right_sum, 2.0) / (n - n_left)
        )
        # Cannot split between equal values; NaN never wins a ``<``.
        splittable = xs[cut - 1] != xs[np.minimum(cut, n - 1)]
        sse = np.where(splittable & ~np.isnan(sse), sse, np.inf)
        # Feature-major order, so argmin's first hit is the scan's.
        flat = sse.T.ravel()
        best = int(np.argmin(flat))
        if not flat[best] < bound:
            return None, None, bound
        feature, row = divmod(best, len(cut))
        i = int(cut[row])
        threshold = 0.5 * (xs[i - 1, feature] + xs[i, feature])
        return feature, threshold, flat[best]

    def _build(self, x, y, depth) -> int:
        index = len(self._nodes)
        self._nodes.append(_Node(value=float(y.mean())))
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf:
            return index
        if float(y.var()) <= 1e-12:
            return index
        feature, threshold, _ = self._best_split(x, y)
        if feature is None:
            return index
        mask = x[:, feature] <= threshold
        node = self._nodes[index]
        node.feature = feature
        node.threshold = float(threshold)
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return index

    # ------------------------------------------------------------------ #

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
        rng = as_rng(self.seed)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._trees = []
        n = len(y)
        for _ in range(self.n_trees):
            idx = rng.integers(n, size=n)
            tree = RegressionTree(
                max_depth=self.max_depth, min_leaf=self.min_leaf
            )
            tree.fit(x[idx], y[idx])
            self._trees.append(tree)
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
