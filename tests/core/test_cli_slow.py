"""End-to-end CLI tests (reduced instruction budgets)."""

import io

import pytest

from repro.cli import main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSweep:
    def test_sweep_output_structure(self):
        code, text = _run(
            [
                "sweep",
                "tiff2bw",
                "--points",
                "1.05,1.20",
                "--max-instructions",
                "60000",
            ]
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        assert lines[0].split() == [
            "spec", "MHz", "ER%", "perf%", "skipped", "cache"
        ]
        # header + two sweep points + "# summary" trailer
        assert len(lines) == 4
        assert lines[3].startswith("# ")
        # Error rate grows with speculation.
        er_low = float(lines[1].split()[2])
        er_high = float(lines[2].split()[2])
        assert er_high >= er_low
        # Two points over one workload form a grid batch: the second
        # point reuses the first point's evaluation simulation.
        assert int(lines[2].split()[4]) >= 1

    def test_sweep_grid_spec(self):
        code, text = _run(
            [
                "sweep",
                "tiff2bw",
                "--grid",
                "1.05:1.20:2",
                "--max-instructions",
                "60000",
            ]
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        specs = [float(l.split()[0]) for l in lines[1:3]]
        assert specs == [1.05, 1.20]

    def test_sweep_rejects_empty_points(self):
        code, text = _run(
            ["sweep", "tiff2bw", "--points", ",", "--max-instructions",
             "1000"]
        )
        assert code == 2
        assert "no sweep points" in text


class TestMonteCarlo:
    def test_montecarlo_json(self):
        import json

        code, text = _run(
            [
                "montecarlo", "bitcount",
                "--chips", "4",
                "--windows-per-block", "2",
                "--max-instructions", "3000",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["benchmark"] == "bitcount"
        assert len(doc["chip_error_rates_percent"]) == 4
        assert doc["windows_analyzed"] > 0

    def test_montecarlo_human(self):
        code, text = _run(
            [
                "montecarlo", "bitcount",
                "--chips", "4",
                "--windows-per-block", "2",
                "--max-instructions", "3000",
            ]
        )
        assert code == 0
        assert "MC ER" in text and "bitcount" in text
