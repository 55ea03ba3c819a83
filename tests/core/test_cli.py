"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "doom3"])

    def test_removed_fan_out_flags_are_exit_2(self):
        """Window analysis and the engine's request groups run
        in-process: fan-out flags are rejected, not silently ignored."""
        commands = (
            ["table2"], ["sweep", "bitcount"], ["batch"],
            ["montecarlo", "bitcount"], ["serve"],
        )
        for command in commands:
            for flag in (["--window-workers", "2"], ["--executor", "auto"]):
                with pytest.raises(SystemExit) as exc:
                    main(command + flag, out=io.StringIO())
                assert exc.value.code == 2
        for command in (["table2"], ["sweep", "bitcount"], ["batch"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--workers", "2"], out=io.StringIO())
            assert exc.value.code == 2

    def test_serve_workers_still_parses(self):
        """``serve --workers`` sizes the dispatch threads and stays."""
        args = build_parser().parse_args(["serve", "--workers", "2"])
        assert args.workers == 2

    def test_serve_worker_processes_is_exit_2(self):
        """Service batches run on dispatch threads: there is no spawned
        job pool to size, so the flag is rejected."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--worker-processes", "2"], out=io.StringIO())
        assert exc.value.code == 2

    def test_montecarlo_defaults(self):
        args = build_parser().parse_args(["montecarlo", "bitcount"])
        assert args.chips == 16
        assert args.windows_per_block == 6


class TestLightCommands:
    def test_list(self):
        code, text = _run(["list"])
        assert code == 0
        names = text.split()
        assert len(names) == 12
        assert "gsm.decode" in names

    def test_info(self):
        code, text = _run(["info"])
        assert code == 0
        assert "working_frequency_mhz" in text
        assert "penalty_cycles" in text
        rows = dict(line.split(None, 1) for line in text.splitlines())
        assert rows["speculation"] == "1.15"


class TestPipelineInspect:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline"])

    def test_table_lists_one_implementation_per_stage(self):
        code, text = _run(["pipeline", "inspect"])
        assert code == 0
        rows = {
            line.split()[0]: line.split()[1]
            for line in text.splitlines()[1:8]
        }
        assert rows == {
            "netlist": "generator",
            "datapath": "trainer",
            "dta": "kernels",
            "statmin": "clark",
            "errormodel": "joint",
            "estimate": "analytic",
            "validate": "montecarlo",
        }
        assert "store: (none" in text

    def test_unknown_backend_is_exit_2(self):
        """Each stage has one implementation, so no ``--backend`` is
        known: the flag is rejected, not silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main(
                ["pipeline", "inspect", "--backend", "statmin=montecarlo"],
                out=io.StringIO(),
            )
        assert exc.value.code == 2

    def test_json_document(self, tmp_path):
        code, text = _run(
            ["pipeline", "inspect", "--json", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["schema"] == "repro.pipeline/1"
        assert len(doc["stages"]) >= 5
        for stage in doc["stages"]:
            assert [b["name"] for b in stage["backends"]] == [
                doc["plan"][stage["stage"]]
            ]
        assert doc["plan"]["dta"] == "kernels"
        assert doc["plan"]["statmin"] == "clark"
        assert doc["store"]["location"] == str(tmp_path)

    def test_reports_store_entry_counts(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        ArtifactStore(tmp_path).put_entry(
            "control", "ab" + "0" * 62, {"x": 1}
        )
        code, text = _run(
            ["pipeline", "inspect", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert f"store: {tmp_path}" in text
        assert "control" in text and "1 entries" in text


@pytest.mark.slow
class TestEstimate:
    def test_estimate_json(self):
        code, text = _run(
            ["estimate", "stringsearch", "--max-instructions", "60000",
             "--json"]
        )
        assert code == 0
        row = json.loads(text)
        assert row["benchmark"] == "stringsearch"
        assert 0.0 <= row["error_rate_mean_pct"] <= 5.0

    def test_estimate_human(self):
        code, text = _run(
            ["estimate", "stringsearch", "--max-instructions", "60000"]
        )
        assert code == 0
        assert "stringsearch" in text
        assert "net performance" in text
