"""Tier-1 smoke test: the batch CLI end to end on the full processor."""

import io
import json

import pytest

from repro.cli import main


@pytest.mark.slow
class TestBatchSmoke:
    def test_two_workloads(self):
        out = io.StringIO()
        code = main(
            [
                "batch", "bitcount", "stringsearch",
                "--max-instructions", "20000",
                "--json",
            ],
            out=out,
        )
        assert code == 0
        doc = json.loads(out.getvalue())
        assert doc["schema"] == "repro.run-summary/1"
        assert doc["jobs"] == 2
        assert doc["succeeded"] == 2
        assert doc["failed"] == 0
        assert doc["total_instructions"] > 0
        assert [r["workload"] for r in doc["results"]] == [
            "bitcount", "stringsearch",
        ]
        for result in doc["results"]:
            assert result["status"] == "ok"
            report = result["report"]
            assert report["schema"] == "repro.error-rate-report/1"
            assert 0.0 <= report["error_rate_mean_pct"] <= 100.0

    def test_unknown_benchmark_exits_2(self):
        out = io.StringIO()
        code = main(["batch", "doom3"], out=out)
        assert code == 2
        assert "doom3" in out.getvalue()
