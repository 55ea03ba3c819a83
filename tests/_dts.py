"""Stage DTS at one clock period (a test-side helper).

Algorithm 1 for one stage at one period: the stage's AP sets from
``StageDTSAnalyzer.ap_trace_grid`` reduced by one
``StageDTSAnalyzer.combine_grid`` call.
"""

from __future__ import annotations

__all__ = ["stage_dts"]


def stage_dts(
    analyzer,
    stage: int,
    activity,
    clock_period: float,
    mode: str = "statistical",
    include_safe: bool = False,
):
    """The DTS of ``stage`` at every cycle of ``activity``: a Gaussian,
    or ``None`` for a cycle that activates no analyzed path."""
    (aps,) = analyzer.ap_trace_grid(
        stage, activity, [clock_period], mode, include_safe
    )
    return [dts for (dts,) in analyzer.combine_grid(aps, [clock_period], mode)]
