"""Characterization under the engine's fork map.

Window analysis itself runs in-process; the fork map left is the batch
engine's group map.  Characterization tasks run through it must merge
their worker-side :class:`KernelStats` deltas into the parent and come
back identical to in-process results, and the map's chunking must not
depend on how long earlier window tasks took in the same process.
"""

import pytest

from repro.cfg import build_cfg
from repro.cpu import (
    FunctionalSimulator,
    MachineState,
    ReplayHalfFrequency,
    assemble,
)
from repro.dta.characterize import (
    ControlCharacterizer,
    ControlSampleCollector,
)
from repro.dta.executor import execute_plan, fork_available, plan_fork_map
from repro.kernels import kernel_stats
from repro.logicsim import LevelizedSimulator, StimulusEncoder


@pytest.fixture(scope="module")
def redirect_program():
    return assemble(
        """
        li r1, 40
        li r2, 1
    loop:
        ld r3, [r2+255]
        add r4, r4, r4
        ld r5, [r2+255]
        subcc r1, r1, 1
        bne loop
        halt
    """,
        name="redirect",
    )


@pytest.fixture(scope="module")
def samples(redirect_program):
    cfg = build_cfg(redirect_program)
    collector = ControlSampleCollector(cfg)
    FunctionalSimulator(redirect_program).run(
        MachineState(), listener=collector.listener
    )
    return collector.samples


@pytest.fixture(scope="module")
def clock_period(small_pipeline, library):
    from repro.sta import StaticTimingAnalysis

    sta = StaticTimingAnalysis(small_pipeline.netlist, library)
    redirect = small_pipeline.netlist.gate_by_name("if/redirect_ff")
    return sta.endpoint_arrival(redirect.gid) + library.setup_time


def _characterizer(
    small_pipeline, library, program, clock_period
) -> ControlCharacterizer:
    from repro.dta import InstructionDTSAnalyzer, StageDTSAnalyzer
    from repro.netlist import EndpointKind
    from repro.variation import ProcessVariationModel

    analyzer = InstructionDTSAnalyzer(
        StageDTSAnalyzer(
            small_pipeline.netlist,
            library,
            ProcessVariationModel(small_pipeline.netlist, library),
            endpoint_kind=EndpointKind.CONTROL,
        )
    )
    return ControlCharacterizer(
        small_pipeline,
        analyzer,
        program,
        ReplayHalfFrequency(),
        clock_period=clock_period,
        simulator=LevelizedSimulator(small_pipeline.netlist),
        encoder=StimulusEncoder(small_pipeline),
    )


def _edge_task(context, index):
    """One (block, edge) characterization at the characterizer's period."""
    characterizer, tasks = context
    bid, pred, tail, block_records = tasks[index]
    return characterizer.characterize_edge_values_grid(
        bid, pred, tail, block_records, [characterizer.clock_period]
    )


def _tasks(samples):
    return [
        (bid, pred, tail, block_records)
        for (bid, pred), (tail, block_records) in sorted(samples.items())
    ]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_forked_worker_stats_merge_into_parent(
    small_pipeline, library, redirect_program, clock_period, samples,
):
    """The parent's counters see the work the forked workers did."""
    characterizer = _characterizer(
        small_pipeline, library, redirect_program, clock_period
    )
    context = (characterizer, _tasks(samples))
    plan = plan_fork_map(len(samples), 2)
    assert plan.parallel
    before = kernel_stats().snapshot()
    forked = execute_plan(plan, _edge_task, context)
    delta = kernel_stats().delta(before)
    assert delta.pool_maps_forked == 1
    assert delta.pool_chunks >= 2
    # The logic simulation ran inside workers; its counters merged back.
    assert delta.sim_calls > 0
    assert delta.activity_cache_misses > 0
    # Results come back in task order, equal to the in-process loop.
    assert forked == [
        _edge_task(context, i) for i in range(len(samples))
    ]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_engine_chunking_ignores_window_task_cost(
    small_pipeline, library, redirect_program, clock_period, samples,
):
    """Regression: engine group chunks were sized from the mean cost of
    the *window* tasks that earlier ran in the same process, so after a
    characterization a seconds-long group map lost dynamic balancing
    (8 groups x 2 workers went from chunks of 1 to chunks of 4).  Chunks
    are ``ceil(n / (4 * workers))``, capped at one worker's share."""
    _characterizer(
        small_pipeline, library, redirect_program, clock_period
    ).characterize(samples)
    plan = plan_fork_map(8, 2)
    assert plan.parallel
    assert plan.chunk_size == 1
    assert plan_fork_map(200, 4).chunk_size == 13
    assert plan_fork_map(3, 2).chunk_size == 1
