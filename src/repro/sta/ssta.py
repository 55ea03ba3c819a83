"""Statistical static timing analysis.

Replaces STA's fixed delays with the correlated Gaussian gate-delay model,
giving Gaussian path slacks, percentile slacks (the 1st/99th percentiles
drive the two-pass critical-path scan of Section 3), and the statistical
minimum over a set of correlated path slacks via the greedy pairwise Clark
reduction of Sinha et al. [21].
"""

from __future__ import annotations

import numpy as np

from repro._util import check_in
from repro.netlist.gates import GateType
from repro.netlist.library import TimingLibrary
from repro.netlist.netlist import Netlist
from repro.netlist.paths import Path, PathEnumerator
from repro.sta.clark import clark_max_coefficients, clark_max_coefficients_grid
from repro.sta.gaussian import Gaussian
from repro.variation.process import ProcessVariationModel

__all__ = [
    "StatisticalTimingAnalysis",
    "statistical_min",
    "statistical_min_grid",
    "statistical_max",
]

_ORDERINGS = {"criticality", "reverse", "given"}
_METHODS = {"clark", "montecarlo"}

#: Fixed sample count/seed of the ``montecarlo`` reduction — a
#: deterministic cross-check of Clark's moment matching, not a speed path.
_MC_SAMPLES = 20_000
_MC_SEED = 0x5EED


def _montecarlo_reduce(
    items: list[Gaussian], cov: np.ndarray, minimum: bool
) -> Gaussian:
    """Correlated-sampling estimate of min/max over Gaussians.

    Deterministic (fixed generator seed); the covariance matrix is
    symmetrized, its diagonal pinned to each item's own variance, and
    projected to the PSD cone (eigenvalue clipping) before sampling.
    """
    n = len(items)
    if n == 0:
        raise ValueError("cannot reduce an empty set of Gaussians")
    if n == 1:
        return items[0]
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be ({n}, {n}), got {cov.shape}")
    means = np.array([g.mean for g in items])
    sigma = 0.5 * (cov + cov.T)
    for i in range(n):
        sigma[i, i] = items[i].var
    w, v = np.linalg.eigh(sigma)
    w = np.clip(w, 0.0, None)
    transform = v * np.sqrt(w)
    rng = np.random.default_rng(_MC_SEED)
    normals = rng.standard_normal((_MC_SAMPLES, n))
    draws = means + normals @ transform.T
    reduced = draws.min(axis=1) if minimum else draws.max(axis=1)
    return Gaussian(float(reduced.mean()), float(reduced.var()))


def _pairwise_reduce(
    items: list[Gaussian], cov: np.ndarray, order: str, minimum: bool
) -> Gaussian:
    check_in("order", order, _ORDERINGS)
    n = len(items)
    if n == 0:
        raise ValueError("cannot reduce an empty set of Gaussians")
    if n == 1:
        return items[0]
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (n, n):
        raise ValueError(f"covariance must be ({n}, {n}), got {cov.shape}")
    if order == "given":
        idx = list(range(n))
    else:
        # 'criticality': most critical first (smallest mean for a min,
        # largest mean for a max); 'reverse' is the opposite.
        idx = sorted(range(n), key=lambda i: items[i].mean, reverse=not minimum)
        if order == "reverse":
            idx.reverse()
    current = items[idx[0]]
    # cov(current, X_j) for every original index j.
    cvec = cov[idx[0], :].astype(float).copy()
    for j in idx[1:]:
        x, y = current, items[j]
        c = float(cvec[j])
        if minimum:
            m, wx, wy = clark_max_coefficients(
                Gaussian(-x.mean, x.var), Gaussian(-y.mean, y.var), c
            )
            current = Gaussian(-m.mean, m.var)
        else:
            current, wx, wy = clark_max_coefficients(x, y, c)
        # cov(combined, X_k) = wx cov(prev, X_k) + wy cov(X_j, X_k); the
        # weights are identical for min since both arguments are negated.
        cvec = wx * cvec + wy * cov[j, :]
    return current


def statistical_min(
    slacks: list[Gaussian],
    cov: np.ndarray,
    order: str = "criticality",
    method: str = "clark",
) -> Gaussian:
    """Gaussian approximation of ``min`` over correlated Gaussians.

    ``cov[i, j]`` is the covariance between ``slacks[i]`` and ``slacks[j]``
    (the diagonal is ignored in favour of each Gaussian's own variance).
    ``order`` selects the greedy pairwise combination order ([21]):
    ``'criticality'`` (default — most critical first), ``'reverse'``, or
    ``'given'``.  ``method`` picks the reduction — ``"clark"`` (pairwise
    moment matching, the pipeline's reduction) or ``"montecarlo"``
    (fixed-seed correlated sampling, a kernel-level cross-check).
    """
    check_in("method", method, _METHODS)
    if method == "montecarlo":
        return _montecarlo_reduce(list(slacks), cov, minimum=True)
    return _pairwise_reduce(list(slacks), cov, order, minimum=True)


def _rowwise_montecarlo(means, variances, cov, slots, lengths):
    """Per-row scalar ``montecarlo`` reduction of a (ragged) grid."""
    out_mean = np.empty(len(means))
    out_var = np.empty(len(means))
    for p, n in enumerate(lengths):
        slacks = [
            Gaussian(float(m), float(v))
            for m, v in zip(means[p, :n], variances[p, :n])
        ]
        row_cov = (
            cov if slots is None
            else cov[np.ix_(slots[p, :n], slots[p, :n])]
        )
        g = statistical_min(slacks, row_cov, method="montecarlo")
        out_mean[p] = g.mean
        out_var[p] = g.var
    return out_mean, out_var


def statistical_min_grid(
    means,
    variances,
    cov: np.ndarray,
    method: str = "clark",
    slots=None,
    lengths=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-batched :func:`statistical_min` (criticality order).

    Args:
        means: ``(P, N)`` slack means, one row per reduction: one row
            per operating point of an AP set, or (ragged) one padded row
            per AP set.
        variances: ``(N,)`` or ``(P, N)`` slack variances (path variances
            are period-independent, so ``(N,)`` is the common case).
        cov: Covariance matrix.  Without ``slots`` it is the ``(N, N)``
            matrix every row shares; with them it is a dense ``(U, U)``
            matrix over every Gaussian the rows touch.
        method: ``"clark"`` (default) or ``"montecarlo"``, as for the
            scalar entry.
        slots: Optional ``(P, N)`` integer matrix: entry ``(p, i)`` of
            the rows is Gaussian ``slots[p, i]`` of ``cov``.
        lengths: Optional ``(P,)`` row lengths: row ``p`` reduces its
            first ``lengths[p]`` entries; the rest is padding.

    Returns ``(mean, var)`` arrays of shape ``(P,)``, each row bitwise
    identical to ``statistical_min`` on that row's scalars (its
    ``cov`` sub-block when ``slots`` is given).  Every row runs its own
    greedy order (a stable argsort, as ``sorted``) in one lock-step
    chain; a row that is done stops updating.  Rows that share one
    order and one covariance gather each step's covariance row once.
    The ``montecarlo`` reduction runs row by row.
    """
    check_in("method", method, _METHODS)
    means = np.asarray(means, dtype=float)
    if means.ndim != 2:
        raise ValueError(f"means must be (P, N), got shape {means.shape}")
    n_rows, n = means.shape
    variances = np.asarray(variances, dtype=float)
    if variances.ndim == 1:
        variances = np.broadcast_to(variances, (n_rows, n))
    if variances.shape != (n_rows, n):
        raise ValueError(
            f"variances must be ({n_rows}, {n}), got {variances.shape}"
        )
    if n == 0:
        raise ValueError("cannot reduce an empty set of Gaussians")
    cov = np.asarray(cov, dtype=float)
    if slots is None and cov.shape != (n, n):
        raise ValueError(f"covariance must be ({n}, {n}), got {cov.shape}")
    if method == "montecarlo":
        if lengths is None:
            lengths = np.full(n_rows, n)
        return _rowwise_montecarlo(means, variances, cov, slots, lengths)
    n_steps = n
    rows = None
    if lengths is not None:
        # Longest rows first, so the rows still reducing at a step are a
        # prefix; padding sorts after every entry of its row.
        lengths = np.asarray(lengths, dtype=np.intp)
        if (np.diff(lengths) > 0).any():
            rows = np.argsort(-lengths, kind="stable")
            lengths = lengths[rows]
            means = means[rows]
            variances = variances[rows]
            if slots is not None:
                slots = np.asarray(slots)[rows]
        n_steps = int(lengths[0])
        keys = np.where(
            np.arange(n)[None, :] < lengths[:, None], means, np.inf
        )
        active = (lengths[None, :] > np.arange(n)[:, None]).sum(axis=1)
    else:
        keys = means
        active = np.full(n, n_rows)
    # Stable ascending argsort == sorted(range(n), key=mean) row by row.
    orders = np.argsort(keys, axis=1, kind="stable")
    shared = (
        slots is None and lengths is None and (orders == orders[0]).all()
    )
    lane = np.arange(n_rows)
    first = (lane, orders[:, 0])
    cur_mean = means[first]
    cur_var = variances[first]
    # cov(current, X_k) for every entry k of the row.
    if slots is None:
        cvec = cov[orders[:, 0]]
    else:
        cvec = cov[slots[first][:, None], slots]
    out_mean = np.empty(n_rows)
    out_var = np.empty(n_rows)
    active = active.tolist()
    order = orders[0].tolist()
    for step in range(1, n_steps):
        a = active[step]
        if a < len(cur_mean):
            # Rows a.. are done: keep their results, drop their lanes.
            out_mean[a : len(cur_mean)] = cur_mean[a:]
            out_var[a : len(cur_mean)] = cur_var[a:]
            cur_mean, cur_var, cvec = cur_mean[:a], cur_var[:a], cvec[:a]
        if shared:
            # One column of every row, and one covariance row broadcast.
            k = order[step]
            take = (slice(None), k)
            row = cov[k][None, :]
        else:
            k = orders[:a, step]
            take = (lane[:a], k)
            row = cov[k] if slots is None else cov[
                slots[take][:, None], slots[:a]
            ]
        # min(X, Y) = -max(-X, -Y); covariance unchanged by joint negation.
        neg_mean, cur_var, wx, wy = clark_max_coefficients_grid(
            -cur_mean, cur_var, -means[take], variances[take], cvec[take]
        )
        cur_mean = -neg_mean
        cvec = wx[:, None] * cvec + wy[:, None] * row
    out_mean[: len(cur_mean)] = cur_mean
    out_var[: len(cur_mean)] = cur_var
    if rows is None:
        return out_mean, out_var
    result_mean = np.empty(n_rows)
    result_var = np.empty(n_rows)
    result_mean[rows] = out_mean
    result_var[rows] = out_var
    return result_mean, result_var


def statistical_max(
    values: list[Gaussian],
    cov: np.ndarray,
    order: str = "criticality",
    method: str = "clark",
) -> Gaussian:
    """Gaussian approximation of ``max`` over correlated Gaussians."""
    check_in("method", method, _METHODS)
    if method == "montecarlo":
        return _montecarlo_reduce(list(values), cov, minimum=False)
    return _pairwise_reduce(list(values), cov, order, minimum=False)


class StatisticalTimingAnalysis:
    """SSTA engine over a netlist, library, and process-variation model.

    Args:
        netlist: The netlist to analyze.
        library: Timing library.
        variation: Correlated gate-delay model; if omitted, a default
            :class:`ProcessVariationModel` is constructed.
        enumerator: Critical-path enumerator over ``netlist`` with the
            library's nominal delays; one is built when omitted.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        variation: ProcessVariationModel | None = None,
        enumerator: PathEnumerator | None = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.variation = variation or ProcessVariationModel(netlist, library)
        self.enumerator = enumerator or PathEnumerator(
            netlist, netlist.nominal_delays(library)
        )

    # ------------------------------------------------------------------ #
    # Path-level queries
    # ------------------------------------------------------------------ #

    def path_delay(self, path: Path) -> Gaussian:
        """Gaussian distribution of the path's delay (ps)."""
        mean, var = self.variation.path_delay_moments(path.gates)
        return Gaussian(mean, var)

    def path_slack(self, path: Path, clock_period: float) -> Gaussian:
        """Gaussian slack ``SL(p)`` of a path at the given clock period."""
        d = self.path_delay(path)
        return Gaussian(clock_period - d.mean - self.library.setup_time, d.var)

    def percentile_slack(
        self, path: Path, clock_period: float, q: float
    ) -> float:
        """The q-quantile of the path's slack (1st percentile = worst case)."""
        return self.path_slack(path, clock_period).ppf(q)

    def slack_cov(self, a: Path, b: Path) -> float:
        """Covariance between the slacks of two paths (= delay covariance)."""
        return self.variation.path_cov(a.gates, b.gates)

    def slack_cov_matrix(self, paths: list[Path]) -> np.ndarray:
        """Pairwise slack covariance matrix for a list of paths.

        Off-diagonal cells come from the blocked
        :meth:`~repro.variation.process.ProcessVariationModel.path_cov_matrix`
        kernel (one gather + segment-reduce for the whole set); the
        diagonal is pinned to each path's
        :meth:`~repro.variation.process.ProcessVariationModel.path_delay_moments`
        variance so it matches :meth:`path_slack` exactly.
        """
        n = len(paths)
        if n == 0:
            return np.zeros((0, 0))
        cov = self.variation.path_cov_matrix([p.gates for p in paths])
        for i in range(n):
            _, vi = self.variation.path_delay_moments(paths[i].gates)
            cov[i, i] = vi
        return cov

    def min_slack(
        self, paths: list[Path], clock_period: float, order: str = "criticality"
    ) -> Gaussian:
        """Statistical minimum of the slacks of the given paths."""
        slacks = [self.path_slack(p, clock_period) for p in paths]
        return statistical_min(slacks, self.slack_cov_matrix(paths), order)

    # ------------------------------------------------------------------ #
    # Netlist-level queries
    # ------------------------------------------------------------------ #

    def clock_period_distribution(self, paths_per_endpoint: int = 4) -> Gaussian:
        """Distribution of the chip's minimum feasible clock period.

        Statistical max over the most critical paths of every capture
        endpoint (arrival + setup), with cross-path covariances.
        """
        paths: list[Path] = []
        for g in self.netlist.gates:
            if g.gtype != GateType.DFF:
                continue
            paths.extend(
                self.enumerator.critical_paths(g.gid, k=paths_per_endpoint)
            )
        # Keep the globally longest subset to bound the O(n^2) covariance.
        paths.sort(key=lambda p: p.delay, reverse=True)
        paths = paths[:64]
        delays = [self.path_delay(p) for p in paths]
        arrivals = [
            Gaussian(d.mean + self.library.setup_time, d.var) for d in delays
        ]
        cov = self.slack_cov_matrix(paths)
        return statistical_max(arrivals, cov)

    def min_clock_period(
        self, yield_quantile: float = 0.9987, paths_per_endpoint: int = 4
    ) -> float:
        """Clock period (ps) meeting timing on a ``yield_quantile`` of chips."""
        return self.clock_period_distribution(paths_per_endpoint).ppf(
            yield_quantile
        )

    def max_frequency_mhz(self, yield_quantile: float = 0.9987) -> float:
        """SSTA-guardbanded maximum frequency (MHz)."""
        return 1.0e6 / self.min_clock_period(yield_quantile)
