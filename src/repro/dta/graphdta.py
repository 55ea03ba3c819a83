"""Graph-based dynamic timing analysis (the related-work [7] approach).

Instead of enumerating paths, graph-based DTA propagates *activated
arrival times* through the netlist once per cycle: an activated gate's
arrival is its delay plus the worst arrival among its activated inputs.
This is O(V + E) per cycle and — unlike the path-based Algorithm 1 with
its top-K truncation — exact for deterministic delays, which makes it the
perfect cross-check oracle for the path-based engine.

Its weakness is the paper's argument for the path-based approach: under
process variation the per-gate max must combine *correlated* Gaussians,
and a graph traversal has no access to path-level correlation (shared
gates, spatial proximity).  The statistical mode below therefore applies
Clark's max assuming independence at every node, and the ablation bench
measures the sigma error that costs relative to the correlation-aware
path-based SSTA.
"""

from __future__ import annotations

import numpy as np

from repro.dta.algorithm2 import entry_pairs
from repro.logicsim.activity import ActivityTrace
from repro.netlist.gates import EndpointKind
from repro.netlist.library import TimingLibrary
from repro.netlist.netlist import Netlist
from repro.sta.clark import clark_max_coefficients
from repro.sta.gaussian import Gaussian
from repro.variation.process import ProcessVariationModel

__all__ = ["GraphDTSAnalyzer"]

_NEG = -1.0e18


class GraphDTSAnalyzer:
    """Activated-arrival propagation over the netlist graph.

    Args:
        netlist: The pipeline netlist.
        library: Timing library.
        variation: Needed for the statistical mode; optional otherwise.
        endpoint_kind: Restrict the analyzed capture endpoints.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        variation: ProcessVariationModel | None = None,
        endpoint_kind: EndpointKind | None = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.variation = variation
        self.endpoint_kind = endpoint_kind
        self.delays = netlist.nominal_delays(library)
        self._arrays = netlist.arrays()
        # D-pin drivers of each stage's analyzed capture endpoints.
        self._drivers = {
            s: self._arrays.drivers(
                netlist.endpoint_ids(stage=s, kind=endpoint_kind, captures=True)
            ).tolist()
            for s in range(netlist.num_stages)
        }

    # ------------------------------------------------------------------ #
    # Deterministic propagation (vectorized over cycles)
    # ------------------------------------------------------------------ #

    def activated_arrivals(self, activity: ActivityTrace) -> np.ndarray:
        """Worst activated arrival per (cycle, gate); -inf when quiet.

        An endpoint source contributes its clock-to-Q delay in cycles
        where its value changed; an activated combinational gate adds its
        delay to the worst activated-input arrival (a gate can be
        activated by a freshly launched transition even if earlier gates
        are quiet — then its own delay starts the path).
        """
        return self.activated_arrivals_multi(activity, self.delays[None, :])[0]

    def activated_arrivals_multi(
        self, activity: ActivityTrace, delays: np.ndarray
    ) -> np.ndarray:
        """Arrival propagation for many delay assignments at once.

        Args:
            activity: The (delay-independent) activation trace.
            delays: ``(n_chips, n_gates)`` per-chip gate delays.

        Returns:
            ``(n_chips, n_cycles, n_gates)`` activated arrivals (-inf when
            quiet) — the Monte Carlo chip-sampling workhorse.  Each
            topological level is one gather and maximum per input pin.
        """
        delays = np.asarray(delays, dtype=float)
        if delays.ndim != 2 or delays.shape[1] != len(self.netlist):
            raise ValueError(
                f"delays must be (n_chips, {len(self.netlist)})"
            )
        net = self._arrays
        act = activity.activated
        n_cycles, n_gates = act.shape
        n_chips = delays.shape[0]
        arr = np.full((n_chips, n_cycles, n_gates), _NEG)
        ep = np.flatnonzero(net.endpoint)
        arr[:, :, ep] = np.where(
            act[None, :, ep], delays[:, None, ep], _NEG
        )
        for gids, _, _ in net.levels:
            pins = net.pins[gids]
            best = arr[:, :, pins[:, 0]]
            for pin in pins.T[1:]:
                np.maximum(best, arr[:, :, pin], out=best)
            # An activated gate with no activated input is itself the
            # launch point of the transition.
            best = np.where(best == _NEG, 0.0, best)
            arr[:, :, gids] = np.where(
                act[None, :, gids], best + delays[:, None, gids], _NEG
            )
        return arr

    def stage_drivers(self, stage: int) -> list[int]:
        """D-pin driver gates of the stage's analyzed capture endpoints."""
        return list(self._drivers[stage])

    def stage_dts_trace(
        self,
        stage: int,
        activity: ActivityTrace,
        clock_period: float,
        arrivals: np.ndarray | None = None,
    ) -> list[float | None]:
        """Deterministic stage DTS per cycle (None = no activity)."""
        arr = (
            arrivals
            if arrivals is not None
            else self.activated_arrivals(activity)
        )
        setup = self.library.setup_time
        out: list[float | None] = []
        drivers = self._drivers[stage]
        for t in range(activity.n_cycles):
            worst = _NEG
            for drv in drivers:
                worst = max(worst, arr[t, drv])
            out.append(
                None if worst == _NEG else clock_period - worst - setup
            )
        return out

    def instruction_dts(
        self,
        activity: ActivityTrace,
        entry_cycle: "int | list[tuple[int, int]]",
        clock_period: float,
        arrivals: np.ndarray | None = None,
    ) -> float | None:
        """Deterministic instruction DTS (Algorithm 2 over graph DTA).

        ``entry_cycle`` is an entry cycle (in-order trajectory) or an
        explicit ``(stage, cycle)`` pair list (see
        :func:`repro.dta.algorithm2.entry_pairs`).
        """
        arr = (
            arrivals
            if arrivals is not None
            else self.activated_arrivals(activity)
        )
        values = []
        for s, t in entry_pairs(entry_cycle, self.netlist.num_stages):
            if not 0 <= t < activity.n_cycles:
                continue
            dts = self.stage_dts_trace(s, activity, clock_period, arr)[t]
            if dts is not None:
                values.append(dts)
        return min(values) if values else None

    # ------------------------------------------------------------------ #
    # Statistical propagation (independence-assuming Clark max)
    # ------------------------------------------------------------------ #

    def statistical_stage_dts(
        self, stage: int, activity: ActivityTrace, t: int, clock_period: float
    ) -> Gaussian | None:
        """Statistical stage DTS with per-node independent Clark max.

        This is what a graph traversal *can* do under variation: per-gate
        delay Gaussians combined with Clark's max at each node, but with
        all covariances taken as zero — reconvergent and spatially
        correlated paths are treated as independent, which overestimates
        the sigma of the max (the paper's argument for path-based SSTA).
        """
        if self.variation is None:
            raise RuntimeError("statistical mode requires a variation model")
        act = activity.activated[t]
        mu = self.variation.mu
        sigma2 = self.variation.sigma**2
        mean = np.full(len(self.netlist), _NEG)
        var = np.zeros(len(self.netlist))
        net = self._arrays
        launched = net.endpoint & act
        mean[launched] = mu[launched]
        var[launched] = sigma2[launched]
        for gid in net.topo[act[net.topo]].tolist():
            current: Gaussian | None = None
            for src in net.fanin[net.fanin_ptr[gid] : net.fanin_ptr[gid + 1]]:
                if mean[src] == _NEG:
                    continue
                candidate = Gaussian(mean[src], var[src])
                if current is None:
                    current = candidate
                else:
                    current, _, _ = clark_max_coefficients(
                        current, candidate, 0.0
                    )
            if current is None:
                current = Gaussian(0.0, 0.0)
            mean[gid] = current.mean + mu[gid]
            var[gid] = current.var + sigma2[gid]
        worst: Gaussian | None = None
        for drv in self._drivers[stage]:
            if mean[drv] == _NEG:
                continue
            candidate = Gaussian(mean[drv], var[drv])
            if worst is None:
                worst = candidate
            else:
                worst, _, _ = clark_max_coefficients(worst, candidate, 0.0)
        if worst is None:
            return None
        return Gaussian(
            clock_period - worst.mean - self.library.setup_time, worst.var
        )
