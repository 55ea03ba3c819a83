"""Tests for simulation-phase collection."""

import numpy as np
import pytest

from repro.cfg import build_cfg
from repro.cfg.cfg import ENTRY_EDGE
from repro.core import SimulationCollector
from repro.cpu import FunctionalSimulator, MachineState, assemble


@pytest.fixture
def loop_program():
    return assemble(
        """
        li r1, 50
    loop:
        add r2, r2, r1
        subcc r1, r1, 1
        bne loop
        halt
    """
    )


def _collect(program, reservoir_size=8):
    cfg = build_cfg(program)
    collector = SimulationCollector(cfg, reservoir_size=reservoir_size)
    FunctionalSimulator(program).run(
        MachineState(), listener=collector.listener
    )
    return cfg, collector


class TestProfileHalf:
    def test_counts_match_edge_profiler(self, loop_program):
        from repro.cfg import EdgeProfiler

        cfg = build_cfg(loop_program)
        ep = EdgeProfiler(cfg)
        FunctionalSimulator(loop_program).run(
            MachineState(), listener=ep.listener
        )
        _, collector = _collect(loop_program)
        expected = ep.result()
        got = collector.profile()
        np.testing.assert_array_equal(
            got.block_counts, expected.block_counts
        )
        assert got.edge_counts == expected.edge_counts
        assert got.total_instructions == expected.total_instructions


class TestReservoir:
    def test_reservoir_capped(self, loop_program):
        cfg, collector = _collect(loop_program, reservoir_size=8)
        loop_bid = cfg.block_of_instruction[1]
        samples = collector.samples()[loop_bid]
        assert len(samples) <= 8

    def test_samples_joint_and_complete(self, loop_program):
        cfg, collector = _collect(loop_program)
        for bid, samples in collector.samples().items():
            n = cfg.block(bid).size
            for s in samples:
                assert len(s.records) == n
                assert [r.index for r in s.records] == list(
                    cfg.block(bid).instruction_indices()
                )

    def test_entry_prev_links(self, loop_program):
        cfg, collector = _collect(loop_program)
        loop_bid = cfg.block_of_instruction[1]
        for s in collector.samples()[loop_bid]:
            if s.pred == loop_bid:
                # Back edge: the previous record is the branch.
                assert s.entry_prev is not None
                assert s.entry_prev.next_pc == s.records[0].index

    def test_entry_block_sample_has_virtual_pred(self, loop_program):
        cfg, collector = _collect(loop_program)
        entry = cfg.entry_block
        preds = {s.pred for s in collector.samples()[entry]}
        assert ENTRY_EDGE in preds
        first = next(
            s for s in collector.samples()[entry] if s.pred == ENTRY_EDGE
        )
        assert first.entry_prev is None  # nothing ran before the program

    def test_reservoir_is_uniformish(self, loop_program):
        """Reservoir sampling keeps early and late executions."""
        cfg, collector = _collect(loop_program, reservoir_size=10)
        loop_bid = cfg.block_of_instruction[1]
        samples = collector.samples()[loop_bid]
        # r1 values span the loop's range (50 down to 1).
        r1_values = {s.records[0].a for s in samples}
        assert max(r1_values) - min(r1_values) > 10

    def test_invalid_reservoir_size(self, loop_program):
        cfg = build_cfg(loop_program)
        with pytest.raises(ValueError):
            SimulationCollector(cfg, reservoir_size=0)

    def test_budget_truncation_drops_partial_samples(self, loop_program):
        """An execution cut off mid-block must not surface as a sample
        (regression: partial records crashed the error model)."""
        cfg = build_cfg(loop_program)
        collector = SimulationCollector(cfg)
        # Stop mid-way through a loop iteration.
        FunctionalSimulator(loop_program).run(
            MachineState(), max_instructions=6, listener=collector.listener
        )
        for bid, samples in collector.samples().items():
            for s in samples:
                assert len(s.records) == cfg.block(bid).size

    def test_estimate_survives_mid_block_truncation(self, loop_program):
        """End-to-end: a budget that cuts inside a block still estimates."""
        from repro.core import ProcessorModel
        from repro.netlist import PipelineConfig, generate_pipeline
        from repro.pipeline.pipeline import EstimationPipeline

        pipeline = generate_pipeline(
            PipelineConfig(
                data_width=8, mult_width=4, shift_bits=3, ctrl_regs=10,
                cloud_gates=60, seed=7,
            )
        )
        estimator = EstimationPipeline(
            ProcessorModel(pipeline=pipeline), n_data_samples=16
        )
        artifacts = estimator.train(loop_program)
        report = estimator.estimate(
            loop_program, artifacts, max_instructions=52
        )
        assert report.total_instructions == 52
        assert report.error_rate_mean >= 0.0
