"""Deterministic static timing analysis.

Computes worst arrival times, endpoint slacks, and the minimum clock period
(maximum non-speculative frequency) of a netlist under a timing library —
the PrimeTime role in the paper's flow (Figure 1, Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.library import TimingLibrary
from repro.netlist.netlist import Netlist
from repro.netlist.paths import Path, PathEnumerator

__all__ = ["StaticTimingAnalysis", "TimingReport"]


@dataclass(frozen=True, slots=True)
class TimingReport:
    """Summary of a full-netlist STA run.

    Attributes:
        min_period: Minimum feasible clock period (ps).
        max_frequency_mhz: ``1e6 / min_period``.
        worst_endpoint: Name of the slack-limiting endpoint.
        worst_path: The critical path.
        endpoint_slacks: Mapping of endpoint name to slack (ps) at the
            queried clock period.
        clock_period: The clock period the slacks were computed at (ps).
    """

    min_period: float
    max_frequency_mhz: float
    worst_endpoint: str
    worst_path: Path
    endpoint_slacks: dict[str, float]
    clock_period: float


class StaticTimingAnalysis:
    """STA engine over a netlist + library pair.

    Args:
        netlist: The netlist to analyze.
        library: Timing library (delays, setup time).
        enumerator: Critical-path enumerator over ``netlist`` with the
            library's nominal delays; one is built when omitted.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        enumerator: PathEnumerator | None = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.delays = netlist.nominal_delays(library)
        self.enumerator = enumerator or PathEnumerator(netlist, self.delays)

    def capture_endpoints(self, stage: int | None = None) -> list[int]:
        """Ids of flip-flops that capture data (have a D pin)."""
        return [
            g.gid
            for g in self.netlist.endpoints(stage=stage)
            if g.gtype == GateType.DFF
        ]

    def endpoint_arrival(self, endpoint: int) -> float:
        """Worst arrival time (ps) at ``endpoint``'s D pin."""
        return self.enumerator.max_arrival(endpoint)

    def endpoint_slack(self, endpoint: int, clock_period: float) -> float:
        """Worst slack (ps) at ``endpoint`` for the given clock period."""
        return clock_period - self.endpoint_arrival(endpoint) - (
            self.library.setup_time
        )

    def path_slack(self, path: Path, clock_period: float) -> float:
        """Slack (ps) of a specific path: ``SL(p)`` at the given period."""
        return clock_period - path.delay - self.library.setup_time

    def min_clock_period(self) -> float:
        """Smallest clock period (ps) with non-negative slack everywhere."""
        eps = self.capture_endpoints()
        if not eps:
            raise ValueError("netlist has no capture endpoints")
        worst = max(self.endpoint_arrival(e) for e in eps)
        return worst + self.library.setup_time

    def max_frequency_mhz(self) -> float:
        """Maximum frequency implied by :meth:`min_clock_period` (MHz)."""
        return 1.0e6 / self.min_clock_period()

    def report(self, clock_period: float | None = None) -> TimingReport:
        """Run full-netlist STA and return a :class:`TimingReport`."""
        min_period = self.min_clock_period()
        period = clock_period if clock_period is not None else min_period
        slacks: dict[str, float] = {}
        worst_e, worst_slack = None, np.inf
        for e in self.capture_endpoints():
            s = self.endpoint_slack(e, period)
            slacks[self.netlist.gate(e).name] = s
            if s < worst_slack:
                worst_e, worst_slack = e, s
        worst_path = self.enumerator.worst_path(worst_e)
        return TimingReport(
            min_period=min_period,
            max_frequency_mhz=1.0e6 / min_period,
            worst_endpoint=self.netlist.gate(worst_e).name,
            worst_path=worst_path,
            endpoint_slacks=slacks,
            clock_period=period,
        )
