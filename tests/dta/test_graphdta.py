"""Tests for graph-based DTA against the path-based engine."""

import numpy as np
import pytest

from repro._util import as_rng
from repro.dta import GraphDTSAnalyzer, StageDTSAnalyzer
from repro.logicsim import LevelizedSimulator
from repro.netlist import EndpointKind, GateType, Netlist, TimingLibrary
from repro.variation import ProcessVariationModel
from tests._dts import stage_dts


@pytest.fixture
def diamond():
    nl = Netlist("d", num_stages=1)
    a = nl.add_input("in", 0, EndpointKind.CONTROL)
    n1 = nl.add_gate("n1", GateType.NOT, (a,), 0)
    n2 = nl.add_gate("n2", GateType.NOT, (n1,), 0)
    g = nl.add_gate("and", GateType.AND2, (n2, a), 0)
    nl.add_dff("ff", g, 0, EndpointKind.CONTROL)
    return nl


def _activity(nl, rows):
    return LevelizedSimulator(nl).activity(np.array(rows, dtype=bool))


class TestDeterministic:
    def test_matches_hand_computation(self, diamond, library):
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[0, 0], [1, 0]])
        arr = an.activated_arrivals(tr)
        d = diamond.nominal_delays(library)
        gid = {g.name: g.gid for g in diamond.gates}
        # in toggles 0->1: n1 1->0, n2 0->1, and follows the long path.
        assert arr[1, gid["in"]] == pytest.approx(d[gid["in"]])
        assert arr[1, gid["n2"]] == pytest.approx(
            d[gid["in"]] + d[gid["n1"]] + d[gid["n2"]]
        )
        expected = (
            d[gid["in"]] + d[gid["n1"]] + d[gid["n2"]] + d[gid["and"]]
        )
        assert arr[1, gid["and"]] == pytest.approx(expected)

    def test_quiet_gates_are_neg_inf(self, diamond, library):
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[0, 0], [0, 0]])
        arr = an.activated_arrivals(tr)
        assert (arr[1] < -1e17).all()

    def test_stage_dts_matches_path_based(self, diamond, library):
        pv = ProcessVariationModel(diamond, library)
        graph = GraphDTSAnalyzer(diamond, library)
        paths = StageDTSAnalyzer(diamond, library, pv)
        tr = _activity(diamond, [[0, 0], [1, 0]])
        g_dts = graph.stage_dts_trace(0, tr, 800.0)[1]
        p_dts = stage_dts(
            paths, 0, tr, 800.0, mode="deterministic", include_safe=True
        )[1]
        assert g_dts == pytest.approx(p_dts.mean)

    def test_agrees_with_path_based_on_pipeline(
        self, small_pipeline, library
    ):
        """On the generated pipeline the two engines agree wherever the
        path-based top-K enumeration covers the activated paths."""
        from repro.logicsim import StageOccupancy, StimulusEncoder

        nl = small_pipeline.netlist
        pv = ProcessVariationModel(nl, library)
        graph = GraphDTSAnalyzer(nl, library)
        pathan = StageDTSAnalyzer(
            nl, library, pv, paths_per_endpoint=40
        )
        sim = LevelizedSimulator(nl)
        enc = StimulusEncoder(small_pipeline)
        rng = as_rng(4)
        sched = [
            [
                StageOccupancy(
                    token=int(rng.integers(1, 1000)),
                    data={
                        "op_a": int(rng.integers(256)),
                        "op_b": int(rng.integers(256)),
                    },
                )
                for _ in range(6)
            ]
            for _ in range(4)
        ]
        tr = sim.activity(enc.encode_schedule(sched))
        period = 2000.0
        arrivals = graph.activated_arrivals(tr)
        matches = comparisons = 0
        for s in range(6):
            g_trace = graph.stage_dts_trace(s, tr, period, arrivals)
            p_trace = stage_dts(
                pathan, s, tr, period, mode="deterministic",
                include_safe=True,
            )
            for t in range(1, tr.n_cycles):
                p = p_trace[t]
                if g_trace[t] is None or p is None:
                    continue
                comparisons += 1
                # Graph DTA is exact; path-based may be optimistic when
                # the activated-critical path is below its top-K.
                assert p.mean >= g_trace[t] - 1e-6
                if p.mean == pytest.approx(g_trace[t], abs=1e-6):
                    matches += 1
        assert comparisons > 0
        assert matches / comparisons > 0.7

    def test_instruction_dts_minimum(self, diamond, library):
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[1, 0], [0, 0]])
        dts = an.instruction_dts(tr, 0, 500.0)
        stage = an.stage_dts_trace(0, tr, 500.0)[0]
        assert dts == pytest.approx(stage)

    def test_no_activity_returns_none(self, diamond, library):
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[0, 0]])
        assert an.instruction_dts(tr, 0, 500.0) is None


class TestMultiChip:
    def test_multi_matches_single(self, diamond, library):
        pv = ProcessVariationModel(diamond, library)
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[0, 0], [1, 0]])
        chips = pv.sample_chips(5, as_rng(1))
        multi = an.activated_arrivals_multi(tr, chips)
        for c in range(5):
            single = GraphDTSAnalyzer(diamond, library)
            single.delays = chips[c]
            np.testing.assert_allclose(
                multi[c], single.activated_arrivals(tr)
            )

    def test_shape_validated(self, diamond, library):
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[0, 0]])
        with pytest.raises(ValueError):
            an.activated_arrivals_multi(tr, np.zeros((2, 3)))


class TestStatisticalMode:
    def test_requires_variation_model(self, diamond, library):
        an = GraphDTSAnalyzer(diamond, library)
        tr = _activity(diamond, [[0, 0], [1, 0]])
        with pytest.raises(RuntimeError):
            an.statistical_stage_dts(0, tr, 1, 800.0)

    def test_sigma_misestimated_without_correlations(self, diamond, library):
        """Independence-assuming graph SSTA misestimates sigma relative to
        the correlation-aware path-based engine — the paper's argument for
        path-based analysis.  On this co-located chain the gate delays are
        strongly positively correlated, so the true path sigma is the
        *sum* of gate sigmas; per-node independent propagation adds
        variances instead and lands far too low."""
        pv = ProcessVariationModel(diamond, library)
        graph = GraphDTSAnalyzer(diamond, library, pv)
        paths = StageDTSAnalyzer(diamond, library, pv)
        tr = _activity(diamond, [[0, 0], [1, 0]])
        g = graph.statistical_stage_dts(0, tr, 1, 800.0)
        p = stage_dts(paths, 0, tr, 800.0, include_safe=True)[1]
        assert g.mean == pytest.approx(p.mean, abs=5.0)
        assert g.var < 0.6 * p.var
