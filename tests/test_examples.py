"""Smoke tests for the example scripts.

Each example must import cleanly (no missing symbols) and expose a
``main``.  Most full executions take minutes, so only the documentation-
level contract is checked for them; the benchmark harness exercises the
same code paths end to end.  ``netlist_inspection.py`` takes about a
second and is run to the end.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name[:-3]}", EXAMPLES_DIR / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expected_examples_present():
    assert "quickstart.py" in EXAMPLES
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_and_has_main(name):
    module = _load(name)
    assert callable(getattr(module, "main", None)), name


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_has_usage_docstring(name):
    module = _load(name)
    assert module.__doc__ and "Run:" in module.__doc__, name


def test_netlist_inspection_runs(tmp_path, monkeypatch, capsys):
    """The Verilog, VCD, library-JSON and yield round trips run to the end."""
    monkeypatch.setattr("sys.argv", ["netlist_inspection.py", str(tmp_path)])
    _load("netlist_inspection.py").main()
    out = capsys.readouterr().out
    assert "re-import OK" in out
    assert out.count("round trip OK") == 2
    assert "endpoint criticality" in out
    for name in ("ts_pipeline.v", "burst.vcd", "library.json"):
        assert (tmp_path / name).stat().st_size > 0
