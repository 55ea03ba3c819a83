"""Determinism of the kernel layer across full engine runs.

The vectorized kernels must not change results at all.  A run on the
kernels and one on the frozen scalar references of ``tests/_reference.py``
must produce byte-identical report payloads (timing excluded —
wall-clock is the one thing that legitimately differs).
"""

import json

import numpy as np

from repro.core import EstimationRequest
from repro.dta.trainer import DatapathTrainer
from repro.netlist import PipelineConfig
from repro.runner import EstimationEngine, ProcessorConfig
from tests._reference import reference_kernels

SMALL = ProcessorConfig(
    pipeline=PipelineConfig(
        data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
        cloud_gates=60, seed=7,
    )
)


def _engine(**kwargs):
    kwargs.setdefault("n_data_samples", 32)
    return EstimationEngine(SMALL, **kwargs)


def _requests(*names):
    return [
        EstimationRequest(
            workload=name,
            train_instructions=4_000,
            max_instructions=6_000,
            seed=0,
        )
        for name in names
    ]


def _rows(summary):
    return [
        json.dumps(r.report.to_json(include_timing=False), sort_keys=True)
        for r in summary.results
    ]


def test_kernels_match_full_reference():
    with reference_kernels():
        reference = _engine().run(_requests("bitcount"))
    kernels = _engine().run(_requests("bitcount"))
    assert _rows(kernels) == _rows(reference)


def test_reference_kernels_train_the_same_datapath_samples():
    """Training reduces its AP sets with one ``combine_grid`` call; on
    the frozen references that is one scalar ``combine`` per set.  The samples are
    far more sensitive to the reductions than a report whose error rate
    rounds to zero, so compare them directly.  Not bit for bit: the
    analyzer seeds within-endpoint covariance cells from the blocked
    ``path_cov_matrix``, which matches the reference's ``path_cov`` to
    rounding error only."""

    def train():
        proc = SMALL.build()
        trainer = DatapathTrainer(
            proc.pipeline, proc.data_analyzer, proc.library.setup_time,
            proc.logic_simulator, proc.stimulus_encoder,
            scheduler_factory=proc.core_family.make_scheduler,
        )
        _, samples = trainer.train(samples_per_class=12, seed=5)
        return np.array([(s.arrival, s.arrival_sd) for s in samples])

    with reference_kernels():
        reference = train()
    got = train()
    assert (got[:, 0] > 0).any()
    np.testing.assert_allclose(got, reference, rtol=1e-7, atol=0)


def test_summary_reports_kernel_stats():
    summary = _engine().run(_requests("bitcount"))
    result = summary.results[0]
    assert result.kernel_stats is not None
    assert result.kernel_stats["sim_calls"] > 0
    assert result.kernel_stats["combine_memo_hits"] > 0
    totals = summary.to_json()["kernels"]
    assert totals["sim_calls"] >= result.kernel_stats["sim_calls"]
    timing = result.report.to_json()["timing"]
    assert timing["kernels"]["combine_calls"] > 0
