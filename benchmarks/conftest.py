"""Shared fixtures for the reproduction benchmark harness.

The expensive full-suite estimation (all 12 benchmarks end to end) runs
once per session and is shared by the Table 2 and Figure 3 benches; its
results are also dumped to ``benchmarks/results/table2.json`` so
EXPERIMENTS.md can be regenerated from a single run.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core import EstimationRequest, ProcessorModel
from repro.runner import EstimationEngine, ProcessorConfig
from repro.workloads import list_workloads

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Paper Table 2 reference values: benchmark -> (ER mean %, ER SD %,
#: d_K(lambda), d_K(R_E)).
PAPER_TABLE2 = {
    "basicmath": (0.406, 0.074, 0.023, 0.020),
    "bitcount": (0.339, 0.102, 0.035, 0.037),
    "dijkstra": (0.441, 0.012, 0.022, 0.020),
    "patricia": (0.131, 0.017, 0.007, 0.005),
    "pgp.encode": (0.241, 0.049, 0.012, 0.011),
    "pgp.decode": (0.661, 0.110, 0.042, 0.039),
    "tiff2bw": (0.457, 0.131, 0.040, 0.032),
    "typeset": (0.532, 0.022, 0.030, 0.022),
    "ghostscript": (0.133, 0.052, 0.015, 0.014),
    "stringsearch": (0.351, 0.010, 0.019, 0.015),
    "gsm.encode": (0.753, 0.053, 0.036, 0.032),
    "gsm.decode": (1.068, 0.213, 0.056, 0.054),
}


@pytest.fixture(scope="session")
def processor() -> ProcessorModel:
    """The paper's processor configuration (Section 6.1 analogue)."""
    return ProcessorModel()


@pytest.fixture(scope="session")
def full_results():
    """Reports for all 12 benchmarks (the data behind Table 2 / Figure 3).

    Runs on the batch estimation engine; set ``REPRO_CACHE_DIR`` to
    reuse trained artifacts across sessions.
    """
    engine = EstimationEngine(
        ProcessorConfig(),
        cache_dir=os.environ.get("REPRO_CACHE_DIR"),
    )
    summary = engine.run(
        EstimationRequest(workload=name, seed=0)
        for name in list_workloads()
    )
    failed = summary.failed
    assert not failed, f"estimation failed: {failed[0].error}"
    reports = {
        result.request.workload_name: result.report
        for result in summary.results
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    rows = [r.table_row() for r in reports.values()]
    (RESULTS_DIR / "table2.json").write_text(json.dumps(rows, indent=2))
    return reports


def print_table(header: list[str], rows: list[list], title: str) -> None:
    """Monospace table printer for regenerated paper artifacts."""
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(r, widths)))
