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

import itertools
import threading

import numpy as np

from repro._util import check_in, check_positive
from repro.kernels import kernel_stats
from repro.logicsim.activity import ActivityTrace
from repro.netlist.gates import EndpointKind
from repro.netlist.library import TimingLibrary
from repro.netlist.netlist import Netlist
from repro.netlist.paths import Path, PathEnumerator
from repro.sta.gaussian import Gaussian
from repro.sta.ssta import statistical_min_grid
from repro.variation.process import ProcessVariationModel, gate_table

__all__ = ["StageDTSAnalyzer"]

_MODES = {"statistical", "deterministic"}

#: Pair cells per batch of :meth:`StageDTSAnalyzer.combine_grid`: each
#: batch fills its missing covariance cells in one call and reduces its
#: (AP set, period) cells in one chain, which bounds the temporaries of
#: both.
_FILL_CELLS = 1 << 18

#: Cache keys built per lookup run of :meth:`StageDTSAnalyzer._cov_block`.
_LOOKUP_CELLS = 1 << 12


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
        self.gather = np.fromiter(
            itertools.chain.from_iterable(p.gates for p in paths),
            dtype=int, count=int(self.lengths.sum()),
        )
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
    global path axis so that a whole :meth:`StageDTSAnalyzer.ap_trace_grid`
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

    def first_activated(self, activated: np.ndarray, mode: str) -> np.ndarray:
        """The first activated path of every endpoint in every cycle.

        Returns a read-only ``(orderings, n_cycles, n_endpoints)`` array,
        one plane per criticality ordering of ``mode``: the global id of
        the endpoint's activated path of minimum rank, or
        :attr:`n_paths` when none is activated.  Its dtype is the
        smallest integer type that holds :attr:`n_paths`, so a kept
        array stays small.
        """
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
        picks = np.empty(
            (len(names), act.shape[0], len(self.eps)),
            dtype=np.min_scalar_type(self.n_paths),
        )
        for plane, name in zip(picks, names):
            ranks, order_flat = self.orders[name]
            masked = np.where(act, ranks[None, :], self.n_paths)
            min_rank = np.minimum.reduceat(masked, self.ep_offsets, axis=1)
            idx = self.ep_offsets[None, :] + np.minimum(
                min_rank, self.ep_sizes[None, :] - 1
            )
            plane[:] = np.where(
                min_rank < self.ep_sizes[None, :], order_flat[idx],
                self.n_paths,
            )
        picks.flags.writeable = False
        return picks

    def assemble(
        self, picks: np.ndarray, mask: np.ndarray, trace: list
    ) -> None:
        """Extend each cycle's list in ``trace`` by the :meth:`first_activated`
        ``picks`` of the endpoints in ``mask``, sorted and unique."""
        sentinel = self.n_paths
        orderings, n_cycles, n_eps = picks.shape
        # (n_cycles, orderings * n_endpoints): each cycle's picks.
        chosen = (
            np.where(mask, picks, sentinel)
            .transpose(1, 0, 2)
            .reshape(n_cycles, orderings * n_eps)
        )
        # Global path ids are (endpoint, within-endpoint) ordered, and
        # distinct endpoints never share a path, so one global sort +
        # dedup reproduces the per-endpoint sorted-unique extension.
        chosen.sort(axis=1)
        keep = chosen < sentinel
        keep[:, 1:] &= chosen[:, 1:] != chosen[:, :-1]
        for t in np.flatnonzero(keep.any(axis=1)):
            trace[t].extend(self.paths_flat[g] for g in chosen[t, keep[t]])


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
        enumerator: Critical-path enumerator over ``netlist`` with the
            library's nominal delays, shared with the processor's other
            engines; one is built when omitted.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        variation: ProcessVariationModel | None = None,
        paths_per_endpoint: int = 12,
        endpoint_kind: EndpointKind | None = None,
        margin: float = 2.326,
        enumerator: PathEnumerator | None = None,
    ) -> None:
        check_positive("paths_per_endpoint", paths_per_endpoint)
        check_positive("margin", margin)
        self.netlist = netlist
        self.library = library
        self.variation = variation or ProcessVariationModel(netlist, library)
        self.paths_per_endpoint = paths_per_endpoint
        self.endpoint_kind = endpoint_kind
        self.margin = margin
        self._enumerator = enumerator or PathEnumerator(
            netlist, netlist.nominal_delays(library)
        )
        # Period-independent per-path state, precomputed once: a registry
        # assigning a dense id to every analyzed path, its delay moments,
        # a pairwise path-covariance cache (seeded per endpoint by the
        # blocked kernel, filled lazily for cross-endpoint pairs), and a
        # memo reducing each distinct (mode, period, AP id-set) exactly
        # once.  Every operating point of a processor shares one
        # analyzer, so the registry grows under a lock: an id is
        # published only with its moments.
        self._lock = threading.Lock()
        self._preloaded: set[str] = set()
        self._path_ids: dict[tuple[tuple[int, ...], int], int] = {}
        self._registered: list[Path] = []
        self._path_mean: list[float] = []
        self._path_var: list[float] = []
        self._cov_cache: dict[tuple[int, int], float] = {}
        self._combine_memo: dict[tuple, Gaussian] = {}
        self._stage_plans: dict[int, _StagePlan] = {}
        stage_endpoints = {
            s: netlist.endpoint_ids(stage=s, kind=endpoint_kind, captures=True)
            for s in range(netlist.num_stages)
        }
        paths = {
            e: self._enumerator.critical_paths(e, k=paths_per_endpoint)
            for eps in stage_endpoints.values()
            for e in eps
        }
        # One batched moments call registers every endpoint's paths.
        pids = iter(self._register_paths([p for ps in paths.values() for p in ps]))
        self._stage_endpoints: dict[int, list[_EndpointPaths]] = {
            s: [
                self._prepare_endpoint(
                    e, paths[e], list(itertools.islice(pids, len(paths[e])))
                )
                for e in eps
            ]
            for s, eps in stage_endpoints.items()
        }

    def _prepare_endpoint(self, endpoint: int, paths, pids) -> _EndpointPaths:
        means = np.array([self._path_mean[pid] for pid in pids])
        variances = np.array([self._path_var[pid] for pid in pids])
        # Seed the covariance cache with the endpoint's full pairwise
        # matrix in one blocked computation (period-independent).
        n = len(paths)
        if n > 1:
            rows = self.variation.path_cov_matrix([p.gates for p in paths]).tolist()
            kernel_stats().cov_cells_computed += n * (n - 1) // 2
            # An endpoint's paths register in order, so its ids ascend
            # and (pids[i], pids[j]) is the (low, high) key; a path's
            # sink is its endpoint, so no other endpoint has the cell.
            self._cov_cache.update(
                ((pids[i], pids[j]), rows[i][j])
                for i in range(n)
                for j in range(i + 1, n)
            )
        return _EndpointPaths(endpoint, paths, means, variances, self.margin)

    def _register_paths(self, paths) -> tuple[int, ...]:
        """Dense ids of ``paths``, registering the delay moments of new
        ones with one batched call."""
        ids = self._path_ids
        pids = [ids.get((path.gates, path.sink)) for path in paths]
        if None not in pids:
            return tuple(pids)
        with self._lock:
            new: dict[tuple, Path] = {}
            for path in paths:
                key = (path.gates, path.sink)
                if key not in ids:
                    new.setdefault(key, path)
            if new:
                means, variances = self.variation.path_delay_moments_many(
                    [p.gates for p in new.values()]
                )
                # Moments first, then paths, then ids: a reader holding an
                # id always finds its path and moments.
                self._path_mean.extend(means.tolist())
                self._path_var.extend(variances.tolist())
                start = len(self._registered)
                self._registered.extend(new.values())
                for pid, key in enumerate(new, start):
                    ids[key] = pid
            return tuple(ids[(path.gates, path.sink)] for path in paths)

    def _cov_block(self, sets) -> tuple[list[np.ndarray], np.ndarray]:
        """Pairwise covariance cells inside each of ``sets`` (id tuples).

        Returns ``(slots, cov)``: ``cov`` is a dense matrix over the
        paths the sets touch, in ascending id order, and ``slots[i]``
        maps the entries of ``sets[i]`` to its rows.  Within-endpoint
        cells were precomputed by the blocked kernel; the missing cells
        of all sets are computed in one
        :meth:`~repro.variation.process.ProcessVariationModel.path_cov_rows`
        call, each in canonical ``(low id, high id)`` orientation, and
        cached in first-encounter order, so a cached value is bitwise the
        reference ``path_cov`` and never depends on the set that first
        requested it.  The diagonal is zero except for a path a set
        repeats (the cell of that path with itself).
        """
        sizes = [len(pids) for pids in sets]
        touched, inverse = np.unique(
            np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp),
            return_inverse=True,
        )
        u = len(touched)
        offsets = itertools.accumulate(sizes, initial=0)
        slots = [inverse[start : start + n] for start, n in zip(offsets, sizes)]
        # Index pairs i < j < n in row-major order, per set size: the
        # pairs of the largest size with j < n, in their order.
        rows, cols = np.triu_indices(max(sizes), 1)
        pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # rank[lo, hi]: where cell (lo, hi) falls in the order a per-set
        # scan first meets the distinct cells (-1: no set has it).  One
        # small matrix, not a list of per-set cell arrays: fewer live
        # temporaries while the cache grows.
        rank = np.full((u, u), -1, dtype=np.int32)
        n_cells = n_keys = 0
        for pids, slot in zip(sets, slots):
            n = len(pids)
            if n not in pairs:
                pairs[n] = (rows[cols < n], cols[cols < n])
            i, j = pairs[n]
            a, b = slot[i], slot[j]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            n_keys += len(lo)
            fresh = rank[lo, hi] < 0
            lo, hi = lo[fresh], hi[fresh]
            if len(set(pids)) < n:
                # A repeated path repeats cells inside the set.
                first = np.unique(lo * u + hi, return_index=True)[1]
                first.sort()
                lo, hi = lo[first], hi[first]
            rank[lo, hi] = np.arange(n_cells, n_cells + len(lo))
            n_cells += len(lo)
        met = np.flatnonzero(rank >= 0)
        cells = np.empty(n_cells, dtype=np.intp)
        cells[rank.ravel()[met]] = met
        del rank, met
        lo, hi = np.divmod(cells, u)
        del cells
        cache = self._cov_cache
        # Keys share the int objects of one id list; the lookups build a
        # bounded run of key tuples at a time.  NaN marks a missing cell
        # (covariances are finite).
        ids = touched.tolist()
        values = np.empty(n_cells)
        for start in range(0, n_cells, _LOOKUP_CELLS):
            stop = start + _LOOKUP_CELLS
            values[start:stop] = [
                cache.get((ids[a], ids[b]), np.nan)
                for a, b in zip(
                    lo[start:stop].tolist(), hi[start:stop].tolist()
                )
            ]
        missing = np.flatnonzero(np.isnan(values))
        if len(missing):
            # Gate table of the touched paths, indexed by slot.
            table = gate_table([self._registered[p].gates for p in ids])
            values[missing] = self.variation.path_cov_rows(
                *table, lo[missing], hi[missing]
            )
            with self._lock:
                cache.update(
                    ((ids[a], ids[b]), value)
                    for a, b, value in zip(
                        lo[missing].tolist(),
                        hi[missing].tolist(),
                        values[missing].tolist(),
                    )
                )
        stats = kernel_stats()
        stats.cov_cells_computed += len(missing)
        stats.cov_cache_hits += n_keys - len(missing)
        cov = np.zeros((u, u))
        cov[lo, hi] = values
        cov[hi, lo] = values
        return slots, cov

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
        with self._lock:
            registered = list(self._registered)
            cov = sorted(self._cov_cache.items())
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
                for pid, path in enumerate(registered)
            ],
            "cov": [[a, b, value] for (a, b), value in cov],
        }

    def registry_loaded(self, key: str) -> bool:
        """Whether the registry stored under ``key`` was preloaded."""
        return key in self._preloaded

    def preload_registry(self, doc: dict, key: str) -> None:
        """Fill the registry/covariance cache from a persisted document.

        Strictly fill-missing: paths already registered (the constructor
        registers every enumerated critical path) and covariance cells
        already cached keep their locally computed values, so preloading
        can never perturb results — it only spares recomputation for
        entries the current analyzer has not produced yet.  ``key`` is
        the document's store key, and each key is loaded once: the
        analyzer is shared by every operating point, so a later job
        asking for the same windows entry finds its cells already there.
        """
        if doc.get("schema") != self.REGISTRY_SCHEMA:
            raise ValueError(
                f"unsupported path-registry schema {doc.get('schema')!r};"
                f" expected {self.REGISTRY_SCHEMA!r}"
            )
        with self._lock:
            if key in self._preloaded:
                return
            self._preloaded.add(key)
            ids = []
            for entry in doc["paths"]:
                gates = tuple(int(g) for g in entry["gates"])
                path_key = (gates, int(entry["sink"]))
                pid = self._path_ids.get(path_key)
                if pid is None:
                    pid = len(self._registered)
                    self._path_mean.append(float(entry["mean"]))
                    self._path_var.append(float(entry["var"]))
                    self._registered.append(
                        Path(gates=gates, sink=path_key[1],
                             delay=float(entry["delay"]))
                    )
                    self._path_ids[path_key] = pid
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

    def ap_trace_grid(
        self,
        stage: int,
        activity: ActivityTrace,
        clock_periods: list[float],
        mode: str = "statistical",
        include_safe: bool = False,
        picks: dict | None = None,
    ) -> list[list[list[Path]]]:
        """The AP(N, s, t) sets for every cycle of an activity trace, at
        every clock period.

        For each analyzed endpoint and each criticality ordering (nominal
        in deterministic mode; worst-case and best-case percentile orders
        in statistical mode) the first activated path is selected;
        endpoints safe at a period are skipped unless ``include_safe``.
        The expensive parts — the gather + segmented activation reduce
        and the per-ordering rank minima — are period-independent; only
        the risky-endpoint mask and the final picks assembly depend on
        the period.  This computes the shared work once and assembles
        picks once per *distinct* risky mask, returning one per-cycle AP
        trace per period.  Periods sharing a risky mask share the same
        trace object (callers only read the traces), which downstream
        grid consumers use to group periods.

        ``picks`` is the window's ``(stage, mode) -> first-activated
        picks`` memo: the shared work depends only on ``activity`` and
        the mode, so a call finding its entry there skips it, and a call
        that computes it adds the entry.  A memo serves one activity
        trace on this analyzer.
        """
        check_in("mode", mode, _MODES)
        n_cycles = activity.n_cycles
        plan = self._stage_plans.get(stage)
        if plan is None:
            plan = _StagePlan(self._stage_endpoints[stage])
            self._stage_plans[stage] = plan
        setup = self.library.setup_time
        # The first-activated picks come from the window's memo, or are
        # computed on the first period with any risky endpoint.
        memo = {} if picks is None else picks
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
                    first = memo.get((stage, mode))
                    if first is None:
                        first = memo[(stage, mode)] = plan.first_activated(
                            activity.activated, mode
                        )
                    plan.assemble(first, mask, trace)
                shared[key] = trace
            traces.append(trace)
        return traces

    # ------------------------------------------------------------------ #
    # Line 22: statistical minimum over the AP slacks.
    # ------------------------------------------------------------------ #

    def combine_grid(
        self,
        ap_sets: list[list[Path]],
        clock_periods: list[float],
        mode: str = "statistical",
    ) -> list[list[Gaussian | None]]:
        """Reduce every AP set to the stage DTS (``SL(CP(AP))``) at every
        clock period.

        Returns ``out[i][p]``, the DTS Gaussian of ``ap_sets[i]`` at
        ``clock_periods[p]`` (``None`` for an empty set).  Path moments
        and pairwise covariances come from the analyzer's
        period-independent registry.  Each statistical (set, period)
        cell is memoized on (mode, clock period, AP path-id tuple): the
        same AP set recurs across cycles, windows and passes, so each
        distinct cell pays for its Clark reduction once.  Cells are
        looked up set by set, and a cell met earlier in the call is a
        memo hit.  The cells that miss are reduced :data:`_FILL_CELLS`
        pair cells at a time: one covariance fill (:meth:`_cov_block`)
        and one lock-step Clark chain over ragged rows
        (:func:`~repro.sta.ssta.statistical_min_grid`) per batch.  In
        deterministic mode a set's DTS is the nominal slack of its
        worst path, unmemoized.
        """
        check_in("mode", mode, _MODES)
        if mode == "deterministic":
            setup = self.library.setup_time
            out = []
            for paths in ap_sets:
                worst = max((p.delay for p in paths), default=None)
                out.append([
                    None if worst is None
                    else Gaussian(cp - worst - setup, 0.0)
                    for cp in clock_periods
                ])
            return out
        stats = kernel_stats()
        memo = self._combine_memo
        out = [[None] * len(clock_periods) for _ in ap_sets]
        # Memo key of every cell that misses the memo -> its positions.
        pending: dict[tuple, list[tuple[int, int]]] = {}
        for i, paths in enumerate(ap_sets):
            if not paths:
                continue
            pids = self._register_paths(paths)
            for p, cp in enumerate(clock_periods):
                stats.combine_calls += 1
                key = (mode, cp, pids)
                hit = memo.get(key)
                if hit is not None:
                    stats.combine_memo_hits += 1
                    out[i][p] = hit
                elif key in pending:
                    stats.combine_memo_hits += 1
                    pending[key].append((i, p))
                else:
                    pending[key] = [(i, p)]
        batches: list[list[tuple]] = []
        cells = 0
        for key in pending:
            n_cells = len(key[2]) * (len(key[2]) - 1) // 2
            if not batches or cells + n_cells > _FILL_CELLS:
                batches.append([])
                cells = 0
            batches[-1].append(key)
            cells += n_cells
        for batch in batches:
            for key, result in zip(batch, self._reduce_batch(batch)):
                memo[key] = result
                for i, p in pending[key]:
                    out[i][p] = result
        return out

    def _reduce_batch(self, keys) -> list[Gaussian]:
        """The statistical minimum of every cell in ``keys`` (memo keys
        ``(mode, clock period, path ids)``), in one covariance fill and
        one chain."""
        slots, cov = self._cov_block([key[2] for key in keys])
        # Longest sets first: the chain's rows need no reordering.
        order = sorted(range(len(keys)), key=lambda k: -len(keys[k][2]))
        sets = [keys[k][2] for k in order]
        lengths = np.array([len(pids) for pids in sets])
        valid = np.arange(lengths.max())[None, :] < lengths[:, None]
        flat = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp)
        grid_slots = np.zeros(valid.shape, dtype=np.int32)
        grid_slots[valid] = np.concatenate([slots[k] for k in order])
        # Same op order as the scalar slack: (T - mean) - setup.
        periods = np.repeat([keys[k][1] for k in order], lengths)
        means = np.zeros(valid.shape)
        means[valid] = (
            periods - np.array(self._path_mean)[flat]
        ) - self.library.setup_time
        variances = np.ones(valid.shape)
        variances[valid] = np.array(self._path_var)[flat]
        kernel_stats().clark_reductions += int((lengths - 1).sum())
        out_mean, out_var = statistical_min_grid(
            means, variances, cov, slots=grid_slots, lengths=lengths,
        )
        results: list[Gaussian] = [None] * len(keys)
        for k, mean, var in zip(order, out_mean.tolist(), out_var.tolist()):
            results[k] = Gaussian(mean, var)
        return results
