"""Pass inputs kept across grid passes
(:meth:`~repro.pipeline.pipeline.EstimationPipeline.pass_inputs`).

A family pipeline keeps each program's period-independent pass inputs
(the training and evaluation functional runs, every characterization
window's activity, entry specs and first-activated AP picks, and the
error model's datapath half), so a later pass over the same program at
new operating points runs only the period-dependent tail.  Its reports
must stay byte-identical to fresh pipelines'.
"""

import dataclasses
import hashlib
import json
import pickle
from unittest import mock

import pytest

from repro.core.errormodel import DatapathArrivals
from repro.core.request import EstimationRequest
from repro.cpu.interpreter import FunctionalSimulator
from repro.dta.algorithm1 import _StagePlan
from repro.dta.datapath import DatapathTimingModel
from repro.logicsim.stimulus import StimulusEncoder
from repro.netlist import PipelineConfig
from repro.pipeline.grid import GridRequest
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore
from repro.workloads import load_workload

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)

#: stringsearch with a short training run: the evaluation run reaches
#: blocks training never saw, so on-demand characterization runs too.
BUDGETS = dict(
    workload="stringsearch", train_instructions=300, max_instructions=6_000,
)

#: Three passes: a cold point, two new points, and a new point next to
#: a repeat of the first (a control-store hit).
PASSES = ((1.05,), (1.10, 1.20), (1.15, 1.05))


def _requests(specs, **overrides):
    fields = dict(BUDGETS, **overrides)
    return [EstimationRequest(speculation=s, **fields) for s in specs]


def _pipeline():
    return EstimationPipeline(SMALL, store=ArtifactStore(), n_data_samples=32)


def _rows(grid):
    return [
        json.dumps(r.report.to_json(include_timing=False), sort_keys=True)
        for r in grid.results
    ]


def _digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj)).hexdigest()


def _spy(owner, name):
    """Count calls of ``owner.name`` while still running it."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    )


@pytest.mark.slow
@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
@pytest.mark.parametrize("seed", [None, 0])
def test_kept_passes_match_fresh_pipelines(family, seed):
    fields = dict(seed=seed, core_family=family)
    kept = _pipeline()
    got = [_rows(kept.execute_grid(_requests(s, **fields))) for s in PASSES]
    fresh = [
        _rows(_pipeline().execute_grid(_requests(s, **fields)))
        for s in PASSES
    ]
    assert got == fresh
    # The inputs live on the family pipeline the passes ran on.
    inputs = kept.pipeline_for_family(family).pass_inputs(
        _requests(PASSES[0], **fields)[0]
    )
    assert inputs.training is not None and inputs.evaluation is not None
    assert inputs.training_windows and inputs.evaluation_windows


def test_other_budgets_of_one_program_keep_apart():
    """Requests that differ off the operating point (here the budgets)
    are other inputs: each pass matches a fresh pipeline."""
    variants = [
        dict(),
        dict(max_instructions=3_000),
        dict(train_instructions=600),
        dict(reservoir_size=40),
    ]
    kept = _pipeline()
    got = [
        _rows(kept.execute_grid(_requests((1.10,), **v))) for v in variants
    ]
    fresh = [
        _rows(_pipeline().execute_grid(_requests((1.10,), **v)))
        for v in variants
    ]
    assert got == fresh
    assert kept._pass_inputs[0] == GridRequest.base_identity(
        _requests((1.10,), **variants[-1])[0]
    )


def test_warm_pass_runs_no_functional_sim_and_encodes_no_window():
    pipeline = _pipeline()
    pipeline.execute_grid(_requests((1.05,)))
    runs = mock.patch.object(
        FunctionalSimulator, "run", autospec=True,
        side_effect=FunctionalSimulator.run,
    )
    encodes = mock.patch.object(
        StimulusEncoder, "encode_schedules", autospec=True,
        side_effect=StimulusEncoder.encode_schedules,
    )
    with runs as run_spy, encodes as encode_spy:
        warm = pipeline.execute_grid(_requests((1.10, 1.20)))
        assert run_spy.call_count == 0
        assert encode_spy.call_count == 0
        # The spies see the work a pipeline without kept inputs does.
        _pipeline().execute_grid(_requests((1.10, 1.20)))
        assert run_spy.call_count == 2
        assert encode_spy.call_count > 0
    assert warm.telemetry()["train_sims_skipped"] == 2
    assert warm.telemetry()["eval_sims_skipped"] == 2


def test_kept_runs_are_not_changed_by_a_pass():
    pipeline = _pipeline()
    request = _requests((1.05,))[0]
    pipeline.execute_grid([request])
    inputs = pipeline.pass_inputs(request)
    before = [
        _digest(inputs.training[1]),
        _digest(inputs.evaluation[0]),
        _digest(inputs.evaluation[1]),
    ]
    pipeline.execute_grid(_requests((1.10, 1.20)))
    assert pipeline.pass_inputs(request) is inputs
    assert [
        _digest(inputs.training[1]),
        _digest(inputs.evaluation[0]),
        _digest(inputs.evaluation[1]),
    ] == before


def _reseeded(workload, shift):
    """``workload`` with the same name and program but other data."""

    def generate(state, dataset):
        workload.generate(
            state, dataclasses.replace(dataset, seed=dataset.seed + shift)
        )

    return dataclasses.replace(workload, generate=generate)


def test_same_named_workload_objects_never_share_inputs():
    base = load_workload("bitcount")
    first, second = _reseeded(base, 1), _reseeded(base, 2)
    fields = dict(train_instructions=4_000, max_instructions=6_000, seed=0)

    def request(workload, spec):
        return EstimationRequest(workload=workload, speculation=spec, **fields)

    pipeline = _pipeline()
    pipeline.execute_grid([request(first, 1.10)])
    got = _rows(pipeline.execute_grid([request(second, 1.20)]))
    solo = _rows(_pipeline().execute_grid([request(second, 1.20)]))
    assert got == solo
    assert got != _rows(_pipeline().execute_grid([request(first, 1.20)]))
    assert pipeline._pass_inputs is None
    assert pipeline.pass_inputs(request(first, 1.10)) is not (
        pipeline.pass_inputs(request(first, 1.10))
    )


def test_another_program_replaces_the_kept_inputs():
    pipeline = EstimationPipeline(SMALL, n_data_samples=32)

    def request(budget, spec=1.10):
        return EstimationRequest(
            workload="bitcount", speculation=spec, max_instructions=budget,
        )

    first = pipeline.pass_inputs(request(1_000))
    # Same program at another point: the same entry.
    assert pipeline.pass_inputs(request(1_000, spec=1.20)) is first
    second = pipeline.pass_inputs(request(2_000))
    assert second is not first
    assert pipeline.pass_inputs(request(2_000)) is second
    # The first program's inputs were replaced: back to it, fresh ones.
    assert pipeline.pass_inputs(request(1_000)) is not first


@pytest.mark.parametrize("family", ["inorder6", "ooo-tomasulo"])
def test_warm_pass_predicts_no_arrival_and_picks_no_first_path(family):
    """A warm pass at new explicit-seed points reuses the kept datapath
    half and every window's first-activated picks.  The cold point is
    the most aggressive: every stage with a risky endpoint at the new,
    longer periods has one there too, so its picks were computed."""
    fields = dict(seed=0, core_family=family)
    pipeline = _pipeline()
    pipeline.execute_grid(_requests((1.20,), **fields))
    with _spy(DatapathTimingModel, "predict_arrival") as predict, _spy(
        _StagePlan, "first_activated"
    ) as first:
        warm = pipeline.execute_grid(_requests((1.05, 1.10), **fields))
        assert predict.call_count == 0
        assert first.call_count == 0
        # The spies see the work a pipeline without kept inputs does.
        fresh = _pipeline().execute_grid(_requests((1.05, 1.10), **fields))
        assert predict.call_count > 0
        assert first.call_count > 0
    assert _rows(warm) == _rows(fresh)


def test_another_seed_or_sample_count_recomputes_the_half():
    """The kept half serves only its seed and sample count: a pass at
    another seed, then one at another ``n_data_samples``, each builds
    a new half, and each pass equals a fresh pipeline's."""
    kept = _pipeline()
    kept.execute_grid(_requests((1.05,), seed=0))
    inputs = kept.pass_inputs(_requests((1.05,))[0])
    first = inputs.datapath_half
    assert (first.seed, first.n_samples) == (0, 32)

    with _spy(DatapathArrivals, "__init__") as builds:
        got = _rows(kept.execute_grid(_requests((1.10, 1.20), seed=3)))
    assert builds.call_count == 1
    second = inputs.datapath_half
    assert (second.seed, second.n_samples) == (3, 32)
    assert got == _rows(
        _pipeline().execute_grid(_requests((1.10, 1.20), seed=3))
    )

    # Points derived after the change take the new sample count.
    kept.n_data_samples = 16
    with _spy(DatapathArrivals, "__init__") as builds:
        got = _rows(kept.execute_grid(_requests((1.25,), seed=3)))
    assert builds.call_count == 1
    third = inputs.datapath_half
    assert (third.seed, third.n_samples) == (3, 16)
    assert third.samples is second.samples is first.samples
    fresh = EstimationPipeline(SMALL, store=ArtifactStore(), n_data_samples=16)
    assert got == _rows(fresh.execute_grid(_requests((1.25,), seed=3)))


def test_unseeded_pass_equals_fresh_pipelines():
    """``seed=None`` points each resolve their own seed, so each builds
    its own half; the kept pipeline still matches fresh ones."""
    kept = _pipeline()
    kept.execute_grid(_requests((1.05,), seed=None))
    with _spy(DatapathArrivals, "__init__") as builds:
        got = _rows(kept.execute_grid(_requests((1.10, 1.20), seed=None)))
    assert builds.call_count == 2
    assert got == _rows(
        _pipeline().execute_grid(_requests((1.10, 1.20), seed=None))
    )


def test_kept_picks_are_small_and_read_only():
    pipeline = _pipeline()
    request = _requests((1.20,))[0]
    pipeline.execute_grid([request])
    inputs = pipeline.pass_inputs(request)
    picks = [
        (activity, array)
        for windows in (inputs.training_windows, inputs.evaluation_windows)
        for edge in windows.values()
        for activity, _, memo in edge
        for array in memo.values()
    ]
    assert picks
    for activity, array in picks:
        assert not array.flags.writeable
        assert array.dtype.kind == "u" and array.dtype.itemsize <= 2
        # The worst- and best-case orderings, one row per cycle.
        assert array.shape[:2] == (2, activity.n_cycles)
        with pytest.raises(ValueError):
            array[...] = 0
