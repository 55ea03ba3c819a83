"""Tests for Algorithm 1 (stage DTS)."""

import numpy as np
import pytest

from repro.logicsim import LevelizedSimulator
from repro.netlist import (
    EndpointKind,
    GateType,
    Netlist,
    TimingLibrary,
)
from repro.dta import StageDTSAnalyzer
from repro.sta import Gaussian
from repro.variation import ProcessVariationModel
from tests._dts import stage_dts


@pytest.fixture
def two_path_netlist():
    """One endpoint with a long and a short path, separately activatable.

    in_a -> n1 -> n2 -> OR -> DFF   (long path through two inverters)
    in_b ---------------OR          (short path)
    """
    nl = Netlist("twopath", num_stages=1)
    a = nl.add_input("in_a", 0, EndpointKind.CONTROL)
    b = nl.add_input("in_b", 0, EndpointKind.CONTROL)
    n1 = nl.add_gate("n1", GateType.NOT, (a,), 0)
    n2 = nl.add_gate("n2", GateType.NOT, (n1,), 0)
    g = nl.add_gate("or", GateType.OR2, (n2, b), 0)
    nl.add_dff("ff", g, 0, EndpointKind.CONTROL)
    return nl


def _analyzer(nl, **kw):
    lib = TimingLibrary()
    return (
        StageDTSAnalyzer(nl, lib, ProcessVariationModel(nl, lib), **kw),
        lib,
    )


def _activity(nl, rows):
    sim = LevelizedSimulator(nl)
    return sim.activity(np.array(rows, dtype=bool))


def _aps(an, tr, period, **kw):
    """Stage 0's AP sets at one clock period."""
    return an.ap_trace_grid(0, tr, [period], **kw)[0]


class TestAPSelection:
    def test_long_path_selected_when_a_toggles(self, two_path_netlist):
        nl = two_path_netlist
        an, lib = _analyzer(nl)
        # Sources: in_a, in_b, ff.  Cycle 1 toggles in_a only (in_b stays 0
        # so the OR output follows the long chain).
        tr = _activity(nl, [[0, 0, 0], [1, 0, 0]])
        aps = _aps(an, tr, 1000.0, include_safe=True)
        names = {
            tuple(nl.gate(g).name for g in p.gates) for p in aps[1]
        }
        assert ("in_a", "n1", "n2", "or") in names

    def test_short_path_selected_when_b_toggles(self, two_path_netlist):
        nl = two_path_netlist
        an, _ = _analyzer(nl)
        # in_a stays 0 (the inverter chain is quiet; with a=0 the OR output
        # follows b); cycle 1 raises in_b, toggling only the short path.
        tr = _activity(nl, [[0, 0, 0], [0, 1, 0]])
        aps = _aps(an, tr, 1000.0, include_safe=True)
        assert len(aps[1]) >= 1
        for p in aps[1]:
            assert nl.gate(p.gates[0]).name == "in_b"

    def test_idle_cycle_has_no_ap(self, two_path_netlist):
        nl = two_path_netlist
        an, _ = _analyzer(nl)
        tr = _activity(nl, [[1, 0, 0], [1, 0, 0]])
        aps = _aps(an, tr, 1000.0, include_safe=True)
        assert aps[1] == []

    def test_safe_endpoints_skipped_without_flag(self, two_path_netlist):
        nl = two_path_netlist
        an, lib = _analyzer(nl)
        tr = _activity(nl, [[0, 0, 0], [1, 0, 0]])
        # Enormous clock period: everything is safe -> no risky endpoint.
        aps = _aps(an, tr, 100000.0)
        assert aps[1] == []
        aps_safe = _aps(an, tr, 100000.0, include_safe=True)
        assert aps_safe[1] != []


class TestDTSValues:
    def test_deterministic_dts_matches_slack(self, two_path_netlist):
        nl = two_path_netlist
        an, lib = _analyzer(nl)
        tr = _activity(nl, [[0, 0, 0], [1, 0, 0]])
        period = 1000.0
        result = stage_dts(an, 0, tr, period, mode="deterministic",
                           include_safe=True)[1]
        d = nl.nominal_delays(lib)
        long_delay = d[nl.gate_by_name("in_a").gid] + sum(
            d[nl.gate_by_name(n).gid] for n in ("n1", "n2", "or")
        )
        assert result.mean == pytest.approx(
            period - long_delay - lib.setup_time
        )
        assert result.var == 0.0

    def test_statistical_dts_le_deterministic(self, two_path_netlist):
        """The statistical minimum sits at or below the nominal slack."""
        nl = two_path_netlist
        an, _ = _analyzer(nl)
        tr = _activity(nl, [[0, 0, 0], [1, 0, 0]])
        det = stage_dts(an, 0, tr, 1000.0, mode="deterministic",
                        include_safe=True)[1]
        stat = stage_dts(an, 0, tr, 1000.0, mode="statistical",
                         include_safe=True)[1]
        assert stat.var > 0
        assert stat.mean <= det.mean + 1e-9

    def test_idle_cycle_is_safe(self, two_path_netlist):
        nl = two_path_netlist
        an, _ = _analyzer(nl)
        tr = _activity(nl, [[0, 0, 0], [0, 0, 0]])
        result = stage_dts(an, 0, tr, 1000.0, include_safe=True)[0]
        # Cycle 0 from a flushed (all-zero) previous state with all-zero
        # inputs: nothing toggles.
        assert result is None

    def test_dts_shifts_with_period(self, two_path_netlist):
        nl = two_path_netlist
        an, _ = _analyzer(nl)
        tr = _activity(nl, [[0, 0, 0], [1, 0, 0]])
        s1 = stage_dts(an, 0, tr, 900.0, include_safe=True)[1]
        s2 = stage_dts(an, 0, tr, 1000.0, include_safe=True)[1]
        assert s2.mean - s1.mean == pytest.approx(100.0)

    def test_combine_empty_returns_none(self, two_path_netlist):
        an, _ = _analyzer(two_path_netlist)
        assert an.combine_grid([[]], [1000.0, 900.0]) == [[None, None]]

    def test_invalid_mode_rejected(self, two_path_netlist):
        nl = two_path_netlist
        an, _ = _analyzer(nl)
        tr = _activity(nl, [[0, 0, 0]])
        with pytest.raises(ValueError, match="mode"):
            _aps(an, tr, 1000.0, mode="bogus")


class TestRiskyEndpoints:
    def test_risky_set_shrinks_with_period(self, pipeline, library):
        from repro.variation import ProcessVariationModel

        an = StageDTSAnalyzer(
            pipeline.netlist,
            library,
            ProcessVariationModel(pipeline.netlist, library),
        )
        tight = an.risky_endpoints(3, clock_period=1100.0)
        loose = an.risky_endpoints(3, clock_period=2500.0)
        assert len(loose) <= len(tight)
        assert set(loose) <= set(tight)

    def test_all_analyzed_endpoints_in_stage(self, pipeline, library):
        from repro.variation import ProcessVariationModel

        an = StageDTSAnalyzer(
            pipeline.netlist,
            library,
            ProcessVariationModel(pipeline.netlist, library),
            endpoint_kind=EndpointKind.DATA,
        )
        for e in an.endpoints(3):
            g = pipeline.netlist.gate(e)
            assert g.stage == 3
            assert g.endpoint_kind == EndpointKind.DATA


class TestStatisticalAgainstMonteCarlo:
    def test_stage_dts_distribution_vs_chips(self, two_path_netlist):
        """Statistical stage DTS matches per-chip deterministic analysis."""
        from repro._util import as_rng

        nl = two_path_netlist
        lib = TimingLibrary()
        pv = ProcessVariationModel(nl, lib)
        an = StageDTSAnalyzer(nl, lib, pv)
        tr = _activity(nl, [[0, 0, 0], [1, 1, 0]])  # both paths activated
        period = 600.0
        stat = stage_dts(an, 0, tr, period, include_safe=True)[1]
        # Ground truth: sample chips, compute min slack over the two
        # activated paths per chip.
        chips = pv.sample_chips(4000, as_rng(3))
        gid = {g.name: g.gid for g in nl.gates}
        long_path = [gid["in_a"], gid["n1"], gid["n2"], gid["or"]]
        short_path = [gid["in_b"], gid["or"]]
        slacks = np.minimum(
            period - chips[:, long_path].sum(axis=1) - lib.setup_time,
            period - chips[:, short_path].sum(axis=1) - lib.setup_time,
        )
        assert stat.mean == pytest.approx(slacks.mean(), abs=2.0)
        assert stat.std == pytest.approx(slacks.std(), rel=0.2)


class TestSharedRegistry:
    def test_concurrent_registration_keeps_ids_and_moments_paired(
        self, small_pipeline
    ):
        """Every operating point of a processor shares one analyzer, so
        threads register new paths at once.  Under a tiny switch
        interval, each id must still map to its own path's moments."""
        import sys
        import threading

        nl = small_pipeline.netlist
        lib = TimingLibrary()
        an = StageDTSAnalyzer(
            nl, lib, ProcessVariationModel(nl, lib),
            paths_per_endpoint=2, endpoint_kind=EndpointKind.CONTROL,
        )
        endpoints = [
            e for s in range(nl.num_stages) for e in an.endpoints(s)
        ]
        enumerator = an._enumerator
        # Deeper paths than the constructor registered, split over more
        # threads than cores; each thread also re-registers its
        # neighbour's endpoints so threads race on the same new paths.
        work = [
            [enumerator.critical_paths(e, k=10) for e in endpoints[i::4]]
            for i in range(4)
        ]
        errors = []

        def register(i):
            try:
                for paths in work[i] + work[(i + 1) % 4]:
                    an.combine_grid([paths], [400.0])
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=register, args=(i,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        n = len(an._registered)
        assert len(an._path_mean) == len(an._path_var) == n
        assert sorted(an._path_ids.values()) == list(range(n))
        means, variances = an.variation.path_delay_moments_many(
            [p.gates for p in an._registered]
        )
        for pid, path in enumerate(an._registered):
            assert an._path_ids[(path.gates, path.sink)] == pid
            assert an._path_mean[pid] == pytest.approx(means[pid], rel=1e-12)
            assert an._path_var[pid] == pytest.approx(
                variances[pid], rel=1e-12
            )
