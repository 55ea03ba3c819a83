"""Algorithm 1 — dynamic timing slack of a pipeline stage.

For every capture endpoint of a stage, scan its list of most critical paths
in criticality order and select the first *activated* one (Definition 3.3);
the stage DTS is the (statistical) minimum slack over the selected paths.

Under SSTA (Section 3), slacks are Gaussians, so the criticality order is
ambiguous; per the paper the scan runs twice — once ordered by worst-case
(1st percentile) slack, once by best-case (99th percentile) slack — and the
union of selected paths feeds a greedy pairwise statistical minimum [21].

Endpoints whose every path keeps ``margin`` sigmas of positive slack at the
analyzed clock period are skipped by default: they cannot produce a
near-zero or negative DTS and therefore cannot influence error
probabilities (pass ``include_safe=True`` to analyze them anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_in, check_positive
from repro.kernels import kernel_stats
from repro.logicsim.activity import ActivityTrace
from repro.netlist.gates import EndpointKind, GateType
from repro.netlist.library import TimingLibrary
from repro.netlist.netlist import Netlist
from repro.netlist.paths import Path, PathEnumerator
from repro.pipeline.registry import active_backend
from repro.sta.gaussian import Gaussian
from repro.sta.ssta import statistical_min, statistical_min_grid
from repro.variation.process import ProcessVariationModel

__all__ = ["StageDTSAnalyzer", "StageDTS"]

_MODES = {"statistical", "deterministic"}


@dataclass(slots=True)
class StageDTS:
    """DTS result for one (stage, cycle).

    Attributes:
        slack: Gaussian DTS (zero-variance in deterministic mode), or
            ``None`` when no analyzed path was activated — the stage cannot
            produce a timing error in that cycle.
        paths: The activated critical paths that entered the statistical
            minimum (the paper's AP set).
    """

    slack: Gaussian | None
    paths: list[Path]

    @property
    def is_safe(self) -> bool:
        return self.slack is None


class _EndpointPaths:
    """Pre-processed path data for one capture endpoint."""

    __slots__ = (
        "endpoint",
        "paths",
        "delay_mean",
        "delay_var",
        "order_nominal",
        "order_worst",
        "order_best",
        "risk_metric",
        "gather",
        "segments",
        "lengths",
    )

    def __init__(self, endpoint, paths, delay_mean, delay_var, z):
        self.endpoint = endpoint
        self.paths = paths
        self.delay_mean = delay_mean
        self.delay_var = delay_var
        sd = np.sqrt(delay_var)
        # Slack percentiles at period T are T - setup - (mean +/- z sd);
        # criticality orderings are therefore period-independent.
        self.order_nominal = np.argsort(-delay_mean, kind="stable")
        self.order_worst = np.argsort(-(delay_mean + z * sd), kind="stable")
        self.order_best = np.argsort(-(delay_mean - z * sd), kind="stable")
        self.risk_metric = float((delay_mean + z * sd).max()) if paths else -np.inf
        # Flattened gate-index gather for fast all-gates-activated checks:
        # one fancy-index + reduceat per trace instead of one per path.
        self.lengths = np.array([len(p.gates) for p in paths], dtype=int)
        self.gather = np.concatenate(
            [np.asarray(p.gates, dtype=int) for p in paths]
        ) if paths else np.empty(0, dtype=int)
        self.segments = np.concatenate(
            [[0], np.cumsum(self.lengths)[:-1]]
        ) if paths else np.empty(0, dtype=int)

    def activation_matrix(self, activated: np.ndarray) -> np.ndarray:
        """(n_paths, n_cycles) matrix: path fully activated per cycle."""
        counts = np.add.reduceat(
            activated[:, self.gather].astype(np.int16), self.segments, axis=1
        )
        return counts == self.lengths[None, :]


class _StagePlan:
    """Batched AP-selection layout over all of a stage's endpoints.

    Concatenates every (non-empty) endpoint's critical paths into one
    global path axis so that a whole :meth:`StageDTSAnalyzer.ap_trace`
    call needs a single gather + segment-reduce for activation and one
    segmented rank-minimum per criticality ordering, instead of a
    Python loop over endpoints.
    """

    __slots__ = (
        "eps",
        "paths_flat",
        "n_paths",
        "gather",
        "path_segments",
        "path_lengths",
        "ep_offsets",
        "ep_sizes",
        "risk_metrics",
        "orders",
    )

    def __init__(self, eps: list["_EndpointPaths"]) -> None:
        self.eps = [ep for ep in eps if ep.paths]
        self.paths_flat = [p for ep in self.eps for p in ep.paths]
        self.n_paths = len(self.paths_flat)
        self.gather = np.concatenate(
            [ep.gather for ep in self.eps]
        ) if self.eps else np.empty(0, dtype=int)
        self.path_lengths = np.concatenate(
            [ep.lengths for ep in self.eps]
        ) if self.eps else np.empty(0, dtype=int)
        self.path_segments = np.concatenate(
            [[0], np.cumsum(self.path_lengths)[:-1]]
        ) if self.eps else np.empty(0, dtype=int)
        self.ep_sizes = np.array(
            [len(ep.paths) for ep in self.eps], dtype=int
        )
        self.ep_offsets = np.concatenate(
            [[0], np.cumsum(self.ep_sizes)[:-1]]
        ).astype(int) if self.eps else np.empty(0, dtype=int)
        self.risk_metrics = np.array(
            [ep.risk_metric for ep in self.eps], dtype=float
        )
        # Per ordering: (ranks, order_flat) where ranks[g] is the
        # criticality rank of global path g within its endpoint and
        # order_flat[offset + r] is the global path of rank r.
        self.orders = {
            name: self._order_arrays(name)
            for name in ("order_nominal", "order_worst", "order_best")
        }

    def _order_arrays(self, attr: str) -> tuple[np.ndarray, np.ndarray]:
        ranks = np.empty(self.n_paths, dtype=int)
        order_flat = np.empty(self.n_paths, dtype=int)
        for off, ep in zip(self.ep_offsets, self.eps):
            order = np.asarray(getattr(ep, attr), dtype=int)
            ranks[off + order] = np.arange(len(order))
            order_flat[off : off + len(order)] = off + order
        return ranks, order_flat

    def first_activated(self, activated: np.ndarray, mode: str) -> list:
        """Per criticality ordering of ``mode``: ``(found, candidates)``,
        both ``(n_cycles, n_endpoints)``: whether an endpoint has an
        activated path in a cycle, and the global id of its first one."""
        # One gather + segment-reduce gives every path's full-activation
        # flag for every cycle: (n_cycles, total_paths).  Summing in
        # int16 keeps add.reduceat from widening the gathered block to
        # int64 first.
        counts = np.add.reduceat(
            activated[:, self.gather], self.path_segments, axis=1,
            dtype=np.int16,
        )
        act = counts == self.path_lengths[None, :]
        names = (
            ("order_nominal",)
            if mode == "deterministic"
            else ("order_worst", "order_best")
        )
        # The first activated path of an endpoint is its activated path
        # of minimum rank: a segmented minimum over the global path axis.
        first = []
        for name in names:
            ranks, order_flat = self.orders[name]
            masked = np.where(act, ranks[None, :], self.n_paths)
            min_rank = np.minimum.reduceat(masked, self.ep_offsets, axis=1)
            idx = self.ep_offsets[None, :] + np.minimum(
                min_rank, self.ep_sizes[None, :] - 1
            )
            first.append((min_rank < self.ep_sizes[None, :], order_flat[idx]))
        return first

    def assemble(self, first: list, mask: np.ndarray, trace: list) -> None:
        """Extend each cycle's list in ``trace`` by the picks of the
        endpoints in ``mask``, sorted and unique."""
        sentinel = self.n_paths
        chosen = np.concatenate(
            [
                np.where(found & mask[None, :], candidates, sentinel).T
                for found, candidates in first
            ],
            axis=0,
        )
        # Global path ids are (endpoint, within-endpoint) ordered, and
        # distinct endpoints never share a path, so one global sort +
        # dedup reproduces the per-endpoint sorted-unique extension.
        chosen.sort(axis=0)
        keep = chosen < sentinel
        keep[1:] &= chosen[1:] != chosen[:-1]
        for t in np.flatnonzero(keep.any(axis=0)):
            trace[t].extend(self.paths_flat[g] for g in chosen[keep[:, t], t])


class StageDTSAnalyzer:
    """Algorithm 1 over a netlist with optional process variation.

    Args:
        netlist: The pipeline netlist.
        library: Timing library.
        variation: Process-variation model; required for statistical mode.
            A default model is built when omitted.
        paths_per_endpoint: How many most-critical paths to pre-enumerate
            per endpoint (the paper iterates the full ``P(e)``; beyond this
            depth paths are provably less critical than the K-th and are
            treated as safe).
        endpoint_kind: Restrict analysis to ``CONTROL`` or ``DATA``
            endpoints (Section 4 characterizes the two sets separately);
            ``None`` analyzes both.
        margin: Risk margin in sigmas for the safe-endpoint filter and the
            percentile scans (2.326 = 1st/99th percentiles, as in the
            paper; larger is more conservative).
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        variation: ProcessVariationModel | None = None,
        paths_per_endpoint: int = 12,
        endpoint_kind: EndpointKind | None = None,
        margin: float = 2.326,
    ) -> None:
        check_positive("paths_per_endpoint", paths_per_endpoint)
        check_positive("margin", margin)
        self.netlist = netlist
        self.library = library
        self.variation = variation or ProcessVariationModel(netlist, library)
        self.paths_per_endpoint = paths_per_endpoint
        self.endpoint_kind = endpoint_kind
        self.margin = margin
        self._enumerator = PathEnumerator(
            netlist, netlist.nominal_delays(library)
        )
        # Period-independent per-path state, precomputed once: a registry
        # assigning a dense id to every analyzed path, its delay moments,
        # a pairwise path-covariance cache (seeded per endpoint by the
        # blocked kernel, filled lazily for cross-endpoint pairs), and a
        # memo reducing each distinct (mode, period, AP id-set) exactly
        # once.
        self._path_ids: dict[tuple[tuple[int, ...], int], int] = {}
        self._registered: list[Path] = []
        self._path_mean: list[float] = []
        self._path_var: list[float] = []
        self._cov_cache: dict[tuple[int, int], float] = {}
        self._combine_memo: dict[tuple, Gaussian] = {}
        self._stage_endpoints: dict[int, list[_EndpointPaths]] = {}
        self._stage_plans: dict[int, _StagePlan] = {}
        for s in range(netlist.num_stages):
            self._stage_endpoints[s] = [
                self._prepare_endpoint(g.gid)
                for g in netlist.endpoints(stage=s, kind=endpoint_kind)
                if g.gtype == GateType.DFF
            ]

    def _prepare_endpoint(self, endpoint: int) -> _EndpointPaths:
        paths = self._enumerator.critical_paths(
            endpoint, k=self.paths_per_endpoint
        )
        means = np.empty(len(paths))
        variances = np.empty(len(paths))
        pids = [self._register_path(p) for p in paths]
        for i, pid in enumerate(pids):
            means[i] = self._path_mean[pid]
            variances[i] = self._path_var[pid]
        # Seed the covariance cache with the endpoint's full pairwise
        # matrix in one blocked computation (period-independent).
        if len(paths) > 1:
            cov = self.variation.path_cov_matrix([p.gates for p in paths])
            kernel_stats().cov_cells_computed += (
                len(paths) * (len(paths) - 1) // 2
            )
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    a, b = pids[i], pids[j]
                    key = (a, b) if a < b else (b, a)
                    self._cov_cache.setdefault(key, float(cov[i, j]))
        return _EndpointPaths(endpoint, paths, means, variances, self.margin)

    def _register_path(self, path: Path) -> int:
        """Dense id of ``path``, registering its delay moments on first use."""
        key = (path.gates, path.sink)
        pid = self._path_ids.get(key)
        if pid is None:
            pid = len(self._registered)
            self._path_ids[key] = pid
            self._registered.append(path)
            mean, var = self.variation.path_delay_moments(path.gates)
            self._path_mean.append(mean)
            self._path_var.append(var)
        return pid

    def _cov_for(self, pids: tuple[int, ...]) -> np.ndarray:
        """Pairwise slack covariance matrix for registered path ids.

        Within-endpoint cells were precomputed by the blocked kernel;
        cross-endpoint cells are computed on first use and cached for the
        analyzer's lifetime.  All of an AP set's missing cells are filled
        in one :meth:`~repro.variation.process.ProcessVariationModel.path_cov_pairs`
        call, each in canonical ``(low id, high id)`` orientation, so a
        cached value is bitwise the reference ``path_cov`` and never
        depends on the AP set that first requested it.
        """
        n = len(pids)
        stats = kernel_stats()
        cache = self._cov_cache
        keys = [
            (a, b) if a < b else (b, a)
            for i, a in enumerate(pids)
            for b in pids[i + 1 :]
        ]
        missing = list(dict.fromkeys(k for k in keys if k not in cache))
        if missing:
            reg = self._registered
            values = self.variation.path_cov_pairs(
                [(reg[a].gates, reg[b].gates) for a, b in missing]
            )
            cache.update(zip(missing, values))
        stats.cov_cells_computed += len(missing)
        stats.cov_cache_hits += len(keys) - len(missing)
        cov = np.zeros((n, n))
        rows, cols = np.triu_indices(n, 1)
        upper = [cache[k] for k in keys]
        cov[rows, cols] = upper
        cov[cols, rows] = upper
        cov[np.arange(n), np.arange(n)] = [self._path_var[p] for p in pids]
        return cov

    # ------------------------------------------------------------------ #
    # Registry persistence (period-sweep reuse)
    # ------------------------------------------------------------------ #

    #: Schema tag of the persisted path-moment registry.
    REGISTRY_SCHEMA = "repro.path-registry/1"

    def registry_doc(self) -> dict:
        """The period-independent path registry as a JSON-safe document.

        Captures every registered path's identity and delay moments plus
        the pairwise covariance cache — everything Algorithm 1 needs to
        turn an AP set into a slack Gaussian at *any* clock period
        without touching the variation model again.
        """
        return {
            "schema": self.REGISTRY_SCHEMA,
            "paths": [
                {
                    "gates": list(path.gates),
                    "sink": path.sink,
                    "delay": path.delay,
                    "mean": self._path_mean[pid],
                    "var": self._path_var[pid],
                }
                for pid, path in enumerate(self._registered)
            ],
            "cov": [
                [a, b, value]
                for (a, b), value in sorted(self._cov_cache.items())
            ],
        }

    def preload_registry(self, doc: dict) -> None:
        """Fill the registry/covariance cache from a persisted document.

        Strictly fill-missing: paths already registered (the constructor
        registers every enumerated critical path) and covariance cells
        already cached keep their locally computed values, so preloading
        can never perturb results — it only spares recomputation for
        entries the current analyzer has not produced yet.
        """
        if doc.get("schema") != self.REGISTRY_SCHEMA:
            raise ValueError(
                f"unsupported path-registry schema {doc.get('schema')!r};"
                f" expected {self.REGISTRY_SCHEMA!r}"
            )
        ids = []
        for entry in doc["paths"]:
            gates = tuple(int(g) for g in entry["gates"])
            key = (gates, int(entry["sink"]))
            pid = self._path_ids.get(key)
            if pid is None:
                pid = len(self._registered)
                self._path_ids[key] = pid
                self._registered.append(
                    Path(gates=gates, sink=key[1],
                         delay=float(entry["delay"]))
                )
                self._path_mean.append(float(entry["mean"]))
                self._path_var.append(float(entry["var"]))
            ids.append(pid)
        for a, b, value in doc["cov"]:
            pa, pb = ids[int(a)], ids[int(b)]
            cov_key = (pa, pb) if pa < pb else (pb, pa)
            self._cov_cache.setdefault(cov_key, float(value))

    # ------------------------------------------------------------------ #

    def endpoints(self, stage: int) -> list[int]:
        """Analyzed capture endpoints of ``stage``."""
        return [ep.endpoint for ep in self._stage_endpoints[stage]]

    def risky_endpoints(self, stage: int, clock_period: float) -> list[int]:
        """Endpoints that can reach near-zero/negative slack at this period."""
        threshold = clock_period - self.library.setup_time
        return [
            ep.endpoint
            for ep in self._stage_endpoints[stage]
            if ep.risk_metric > threshold
        ]

    # ------------------------------------------------------------------ #
    # AP selection (lines 3-21 of Algorithm 1), vectorized over cycles.
    # ------------------------------------------------------------------ #

    def ap_trace(
        self,
        stage: int,
        activity: ActivityTrace,
        clock_period: float,
        mode: str = "statistical",
        include_safe: bool = False,
    ) -> list[list[Path]]:
        """The AP(N, s, t) sets for every cycle of an activity trace.

        For each analyzed endpoint and each criticality ordering (nominal
        in deterministic mode; worst-case and best-case percentile orders
        in statistical mode) the first activated path is selected.
        """
        return self._ap_traces(
            stage, activity, [clock_period], mode, include_safe
        )[0]

    def ap_trace_grid(
        self,
        stage: int,
        activity: ActivityTrace,
        clock_periods: list[float],
        mode: str = "statistical",
        include_safe: bool = False,
    ) -> list[list[list[Path]]]:
        """:meth:`ap_trace` batched over a vector of clock periods.

        The expensive parts of AP selection — the gather + segmented
        activation reduce and the per-ordering rank minima — are
        period-independent; only the risky-endpoint mask and the final
        picks assembly depend on the period.  This computes the shared
        work once and assembles picks once per *distinct* risky mask,
        returning one per-cycle AP trace per period.  Periods sharing a
        risky mask share the same trace object (callers only read the
        traces), which downstream grid consumers use to group periods.
        """
        return self._ap_traces(
            stage, activity, clock_periods, mode, include_safe
        )

    def _ap_traces(self, stage, activity, clock_periods, mode, include_safe):
        """Body of :meth:`ap_trace` and :meth:`ap_trace_grid` (each public
        call is one AP selection, so neither calls the other)."""
        check_in("mode", mode, _MODES)
        n_cycles = activity.n_cycles
        plan = self._stage_plans.get(stage)
        if plan is None:
            plan = _StagePlan(self._stage_endpoints[stage])
            self._stage_plans[stage] = plan
        setup = self.library.setup_time
        # Computed lazily, on the first period with any risky endpoint.
        first = None
        shared: dict[bytes, list[list[Path]]] = {}
        traces: list[list[list[Path]]] = []
        for cp in clock_periods:
            mask = (
                np.ones(len(plan.eps), dtype=bool)
                if include_safe
                else plan.risk_metrics > (cp - setup)
            )
            key = mask.tobytes()
            trace = shared.get(key)
            if trace is None:
                trace = [[] for _ in range(n_cycles)]
                if mask.any():
                    if first is None:
                        first = plan.first_activated(activity.activated, mode)
                    plan.assemble(first, mask, trace)
                shared[key] = trace
            traces.append(trace)
        return traces

    # ------------------------------------------------------------------ #
    # Line 22: statistical minimum over the AP slacks.
    # ------------------------------------------------------------------ #

    def combine(
        self, paths: list[Path], clock_period: float, mode: str = "statistical"
    ) -> Gaussian | None:
        """Reduce an AP set to the stage DTS (``SL(CP(AP))``).

        Path moments and pairwise covariances come from the analyzer's
        period-independent registry, and the reduction itself is memoized
        on (mode, clock period, AP path-id tuple): the same AP set recurs
        across cycles and across (block, edge) characterizations, so with
        the memo each distinct set pays for its Clark reduction exactly
        once.
        """
        check_in("mode", mode, _MODES)
        if not paths:
            return None
        setup = self.library.setup_time
        if mode == "deterministic":
            worst = max(p.delay for p in paths)
            return Gaussian(clock_period - worst - setup, 0.0)
        stats = kernel_stats()
        stats.combine_calls += 1
        pids = tuple(self._register_path(p) for p in paths)
        # The statmin pipeline backend is part of the memo identity: a
        # Clark result must never serve a Monte Carlo run (or vice versa).
        method = active_backend("statmin", "clark")
        memo_key = (mode, clock_period, pids, method)
        hit = self._combine_memo.get(memo_key)
        if hit is not None:
            stats.combine_memo_hits += 1
            return hit
        slacks = [
            Gaussian(clock_period - self._path_mean[pid] - setup,
                     self._path_var[pid])
            for pid in pids
        ]
        if len(slacks) == 1:
            result = slacks[0]
        else:
            stats.clark_reductions += len(slacks) - 1
            result = statistical_min(slacks, self._cov_for(pids), method=method)
        self._combine_memo[memo_key] = result
        return result

    def combine_grid(
        self,
        paths: list[Path],
        clock_periods: list[float],
        mode: str = "statistical",
    ) -> list[Gaussian | None]:
        """:meth:`combine` of one AP set over a vector of clock periods.

        Returns one DTS Gaussian per period, each bitwise identical to
        the scalar :meth:`combine` at that period.  Slack means at
        period ``T`` are ``T - path_mean - setup`` — a common shift per
        row — so the whole grid usually shares one greedy order and the
        Clark chain runs once over a ``(periods, paths)`` matrix
        (:func:`~repro.sta.ssta.statistical_min_grid`).  The scalar
        combine memo is consulted and populated per period, so grid and
        per-point evaluations serve each other's results.
        """
        check_in("mode", mode, _MODES)
        n_periods = len(clock_periods)
        if not paths:
            return [None] * n_periods
        setup = self.library.setup_time
        if mode == "deterministic":
            worst = max(p.delay for p in paths)
            return [
                Gaussian(cp - worst - setup, 0.0) for cp in clock_periods
            ]
        stats = kernel_stats()
        stats.combine_calls += n_periods
        pids = tuple(self._register_path(p) for p in paths)
        method = active_backend("statmin", "clark")
        results: list[Gaussian | None] = [None] * n_periods
        missing: list[int] = []
        for i, cp in enumerate(clock_periods):
            hit = self._combine_memo.get((mode, cp, pids, method))
            if hit is not None:
                stats.combine_memo_hits += 1
                stats.grid_reuse_hits += 1
                results[i] = hit
            else:
                missing.append(i)
        if not missing:
            return results
        path_means = np.array([self._path_mean[pid] for pid in pids])
        path_vars = np.array([self._path_var[pid] for pid in pids])
        cps = np.array([clock_periods[i] for i in missing])
        # Same op order as the scalar slack: (T - mean) - setup.
        means = cps[:, None] - path_means[None, :] - setup
        if len(pids) == 1:
            out_mean, out_var = means[:, 0], np.broadcast_to(
                path_vars[0], (len(missing),)
            )
        else:
            reductions = (len(pids) - 1) * len(missing)
            stats.clark_reductions += reductions
            stats.grid_clark_reductions += reductions
            out_mean, out_var = statistical_min_grid(
                means, path_vars, self._cov_for(pids), method=method
            )
        for row, i in enumerate(missing):
            result = Gaussian(float(out_mean[row]), float(out_var[row]))
            results[i] = result
            self._combine_memo[(mode, clock_periods[i], pids, method)] = result
        return results

    def dts_trace(
        self,
        stage: int,
        activity: ActivityTrace,
        clock_period: float,
        mode: str = "statistical",
        include_safe: bool = False,
    ) -> list[StageDTS]:
        """DTS of ``stage`` for every cycle of ``activity`` (Algorithm 1)."""
        aps = self.ap_trace(stage, activity, clock_period, mode, include_safe)
        return [
            StageDTS(self.combine(ap, clock_period, mode), ap) for ap in aps
        ]

    def dts(
        self,
        stage: int,
        t: int,
        activity: ActivityTrace,
        clock_period: float,
        mode: str = "statistical",
        include_safe: bool = False,
    ) -> StageDTS:
        """DTS of ``stage`` at a single cycle ``t``."""
        return self.dts_trace(
            stage, activity, clock_period, mode, include_safe
        )[t]
