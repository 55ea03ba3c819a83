"""Algorithm 2 — dynamic timing slack of an instruction.

An instruction's DTS is the minimum of the DTS of every pipeline stage at
the cycle the instruction occupies that stage:

    InstDTS(N, t) = min over s of DTS(N, s, t + s)

Under SSTA the per-stage DTS values are correlated Gaussians (they may even
share gates); rather than combining already-reduced stage minima — which
would lose the cross-stage covariance — the analyzer unions the activated
critical paths (AP sets) of all the instruction's (stage, cycle) pairs and
performs a single statistical minimum over them.

The ``t + s`` walk above is the *in-order* trajectory.  Core families
whose instructions do not march one stage per cycle (the speculative
out-of-order core issues, completes, and commits on data- and
resource-dependent cycles) pass explicit ``(stage, cycle)`` pair lists
instead of an entry cycle; the analyzer accepts either form everywhere
an entry is taken.
"""

from __future__ import annotations

from repro.dta.algorithm1 import StageDTSAnalyzer
from repro.logicsim.activity import ActivityTrace
from repro.netlist.paths import Path
from repro.sta.gaussian import Gaussian

__all__ = ["InstructionDTSAnalyzer", "entry_pairs"]


def entry_pairs(entry, num_stages: int) -> list[tuple[int, int]]:
    """Normalize an entry spec into explicit ``(stage, cycle)`` pairs.

    Integers expand through the in-order contract (stage ``s`` occupied
    at cycle ``entry + s``); pair lists pass through unchanged.
    """
    if isinstance(entry, (list, tuple)):
        return list(entry)
    return [(s, entry + s) for s in range(num_stages)]


class InstructionDTSAnalyzer:
    """Algorithm 2 on top of a :class:`StageDTSAnalyzer`.

    Args:
        stage_analyzer: The Algorithm 1 engine to draw AP sets from.
    """

    def __init__(self, stage_analyzer: StageDTSAnalyzer) -> None:
        self.stage_analyzer = stage_analyzer

    @property
    def num_stages(self) -> int:
        return self.stage_analyzer.netlist.num_stages

    def instruction_ap(
        self,
        activity: ActivityTrace,
        entry_cycle: "int | list[tuple[int, int]]",
        ap_traces: list[list[list[Path]]],
    ) -> list[Path]:
        """Union of AP sets over the instruction's (stage, cycle) pairs.

        ``entry_cycle`` is the cycle the instruction enters stage 0, or
        an explicit ``(stage, cycle)`` pair list for core families with
        data-dependent trajectories (see :func:`entry_pairs`).  Pairs
        that fall outside the trace window are skipped.  ``ap_traces``
        holds the per-stage AP traces at one clock period (from
        :meth:`StageDTSAnalyzer.ap_trace_grid`), shared by the many
        instructions of a basic-block window; a stage's trace may also
        be a ``cycle -> AP set`` map of just the instruction's cycles.
        """
        union: list[Path] = []
        seen: set[tuple] = set()
        for s, t in entry_pairs(entry_cycle, self.num_stages):
            if not 0 <= t < activity.n_cycles:
                continue
            for p in ap_traces[s][t]:
                key = (p.gates, p.sink)
                if key not in seen:
                    seen.add(key)
                    union.append(p)
        return union

    def window_dts_grid(
        self,
        activity: ActivityTrace,
        entry_cycles: list,
        clock_periods: list[float],
        mode: str = "statistical",
        include_safe: bool = False,
        picks: dict | None = None,
    ) -> list[list[Gaussian | None]]:
        """Instruction DTS for many instructions sharing one trace window,
        at every clock period.

        Returns one DTS list per period: entry ``[p][i]`` is the DTS of
        the instruction entering at ``entry_cycles[i]``, or ``None`` when
        no analyzed path is activated along its journey (it cannot
        experience a timing error).  Stage AP traces come from
        :meth:`StageDTSAnalyzer.ap_trace_grid` (activation flags and
        rank minima computed once for the whole grid); periods whose
        risky-endpoint masks agree share identical AP traces, so their
        per-instruction AP unions are built once and every union of the
        window is reduced at all of them in one
        :meth:`StageDTSAnalyzer.combine_grid` call.  ``picks`` is the
        window's first-activated picks memo, handed to every stage's
        :meth:`StageDTSAnalyzer.ap_trace_grid`.
        """
        analyzer = self.stage_analyzer
        traces = [
            analyzer.ap_trace_grid(
                s, activity, clock_periods, mode, include_safe, picks=picks
            )
            for s in range(self.num_stages)
        ]
        n_periods = len(clock_periods)
        results: list[list[Gaussian | None]] = [
            [None] * len(entry_cycles) for _ in range(n_periods)
        ]
        # ap_trace_grid hands periods with equal risky masks the same
        # trace object; group on object identity so each distinct AP
        # structure pays for its unions (and batched combines) once.
        groups: dict[tuple[int, ...], list[int]] = {}
        for p in range(n_periods):
            key = tuple(id(traces[s][p]) for s in range(self.num_stages))
            groups.setdefault(key, []).append(p)
        for period_idx in groups.values():
            ap_traces = [trace[period_idx[0]] for trace in traces]
            unions = [
                self.instruction_ap(activity, t, ap_traces)
                for t in entry_cycles
            ]
            combined = analyzer.combine_grid(
                unions, [clock_periods[p] for p in period_idx], mode
            )
            for i, row in enumerate(combined):
                for p, dts in zip(period_idx, row):
                    results[p][i] = dts
        return results
