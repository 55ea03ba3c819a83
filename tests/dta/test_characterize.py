"""Tests for control-network characterization."""

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
    ControlTimingModel,
)
from repro.logicsim import LevelizedSimulator, StimulusEncoder
from repro.sta import Gaussian


@pytest.fixture
def loop_program():
    return assemble(
        """
        li r1, 6
    loop:
        add r2, r2, r1
        subcc r1, r1, 1
        bne loop
        st r2, [r0+64]
        halt
    """,
        name="loop",
    )


def _collect(program, tail_length=5):
    cfg = build_cfg(program)
    collector = ControlSampleCollector(cfg, tail_length=tail_length)
    FunctionalSimulator(program).run(
        MachineState(), listener=collector.listener
    )
    return cfg, collector


class TestSampleCollector:
    def test_one_sample_per_edge(self, loop_program):
        cfg, collector = _collect(loop_program)
        # Edges: entry->B0, B0->loop, loop->loop, loop->exit.
        keys = set(collector.samples)
        loop_bid = cfg.block_of_instruction[1]
        assert (loop_bid, loop_bid) in keys  # the back edge
        assert (cfg.entry_block, -1) in keys or any(
            k[1] == -1 for k in keys
        )

    def test_block_records_match_block(self, loop_program):
        cfg, collector = _collect(loop_program)
        for (bid, pred), (tail, records) in collector.samples.items():
            block = cfg.block(bid)
            assert [r.index for r in records] == list(
                block.instruction_indices()
            )

    def test_tail_precedes_block(self, loop_program):
        cfg, collector = _collect(loop_program)
        loop_bid = cfg.block_of_instruction[1]
        tail, records = collector.samples[(loop_bid, loop_bid)]
        assert tail  # came from a previous iteration
        # The tail's last record flows into the block's first.
        assert tail[-1].next_pc == records[0].index

    def test_tail_length_respected(self, loop_program):
        cfg, collector = _collect(loop_program, tail_length=2)
        for tail, _ in collector.samples.values():
            assert len(tail) <= 2


class TestControlTimingModel:
    def test_record_and_get(self):
        model = ControlTimingModel()
        g = Gaussian(10.0, 1.0)
        model.record((1, 0, 0), g, None)
        normal, corrected = model.get(1, 0, 0)
        assert normal == g and corrected is None

    def test_fallback_to_other_edge(self):
        model = ControlTimingModel()
        g = Gaussian(5.0, 1.0)
        model.record((2, 7, 0), g, g)
        normal, _ = model.get(2, 99, 0)  # unseen edge falls back
        assert normal == g

    def test_unknown_block_raises(self):
        model = ControlTimingModel()
        with pytest.raises(KeyError):
            model.get(3, 0, 0)

    def test_len_counts_entries(self):
        model = ControlTimingModel()
        model.record((0, 0, 0), None, None)
        model.record((0, 0, 1), None, None)
        assert len(model) == 2


class TestCharacterizer:
    @pytest.fixture
    def redirect_program(self):
        """Alternating full-byte and zero displacements toggle the fetch
        unit's target-adder carry chain — the activatable critical control
        cone — every cycle."""
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

    @pytest.fixture
    def characterizer(self, small_pipeline, library, redirect_program):
        from repro.dta import InstructionDTSAnalyzer, StageDTSAnalyzer
        from repro.netlist import EndpointKind
        from repro.sta import StaticTimingAnalysis
        from repro.variation import ProcessVariationModel

        analyzer = InstructionDTSAnalyzer(
            StageDTSAnalyzer(
                small_pipeline.netlist,
                library,
                ProcessVariationModel(small_pipeline.netlist, library),
                endpoint_kind=EndpointKind.CONTROL,
            )
        )
        # Clock at the redirect cone's arrival: its (activatable) paths
        # are near-critical, so characterization has something to report.
        sta = StaticTimingAnalysis(small_pipeline.netlist, library)
        redirect = small_pipeline.netlist.gate_by_name("if/redirect_ff")
        return ControlCharacterizer(
            small_pipeline,
            analyzer,
            redirect_program,
            ReplayHalfFrequency(),
            clock_period=sta.endpoint_arrival(redirect.gid)
            + library.setup_time,
            simulator=LevelizedSimulator(small_pipeline.netlist),
            encoder=StimulusEncoder(small_pipeline),
        )

    def test_characterizes_every_sampled_pair(
        self, characterizer, redirect_program
    ):
        cfg, collector = _collect(redirect_program)
        model = characterizer.characterize(collector.samples)
        for (bid, pred), (_, records) in collector.samples.items():
            for k in range(len(records)):
                normal, corrected = model.get(bid, pred, k)
                for g in (normal, corrected):
                    if g is not None:
                        assert g.var >= 0.0

    def test_some_instructions_have_control_dts(
        self, characterizer, redirect_program
    ):
        """At a tight clock the control network is risky somewhere."""
        cfg, collector = _collect(redirect_program)
        model = characterizer.characterize(collector.samples)
        values = [g for g in model.normal.values() if g is not None]
        assert values, "no control path was ever near-critical"

    def test_conditional_differs_from_normal_somewhere(
        self, characterizer, redirect_program
    ):
        """The correction emulation must change at least one DTS."""
        cfg, collector = _collect(redirect_program)
        model = characterizer.characterize(collector.samples)
        diffs = 0
        for key in model.normal:
            n, c = model.normal[key], model.corrected[key]
            if (n is None) != (c is None):
                diffs += 1
            elif n is not None and abs(n.mean - c.mean) > 1e-9:
                diffs += 1
        assert diffs > 0
