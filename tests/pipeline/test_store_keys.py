"""Pinned store keys and stage-event strings of the golden request.

The composed ``(stage, implementation, input IR hash)`` keys address
every on-disk artifact store, and the ``(stage, backend)`` strings of
:class:`~repro.pipeline.pipeline.StageEvent` appear in every job result.
Both are literal values here: a change that re-keys existing stores or
renames a stage's implementation fails this file.
"""

import pytest

from repro.core import EstimationRequest
from repro.pipeline import stages
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline
from repro.pipeline.store import ArtifactStore

#: The golden request of ``test_golden_report.py``.
GOLDEN_REQUEST = EstimationRequest(
    workload="bitcount",
    max_instructions=20_000,
    train_instructions=20_000,
    seed=0,
)

DATAPATH_KEY = (
    "fd501c5ce7a96a5ff8c98363389d0882099fd02f9e51f721321f7be2f72c24d4"
)
WINDOWS_KEY = (
    "dcadec817983299bfbf77931417055c3cd0b2d7a7227ed8a2b57c9cfd75b5bcb"
)
CONTROL_KEY = (
    "2a7e97e35c7416bba9b5d4e1056d957d0301fa2d78eb36dc141a14df56b76714"
)


@pytest.fixture(scope="module")
def golden_runs():
    """A cold and a warm execution of the golden request on one store."""
    store = ArtifactStore()
    pipeline = EstimationPipeline(ProcessorConfig(), store=store)
    cold = pipeline.execute(GOLDEN_REQUEST)
    warm = EstimationPipeline(ProcessorConfig(), store=store).execute(
        GOLDEN_REQUEST
    )
    return store, cold, warm


class TestPinnedKeys:
    def test_datapath_key(self):
        assert stages.datapath_key(ProcessorConfig()) == DATAPATH_KEY

    def test_stored_entries(self, golden_runs):
        store = golden_runs[0]
        assert store.entries() == sorted(
            [
                ("control", CONTROL_KEY),
                ("datapath", DATAPATH_KEY),
                ("windows", WINDOWS_KEY),
            ]
        )


class TestPinnedEvents:
    def test_cold_events(self, golden_runs):
        cold = golden_runs[1]
        assert [(e.stage, e.backend, e.status) for e in cold.events] == [
            ("netlist", "generator", "computed"),
            ("datapath", "trainer", "computed"),
            ("dta", "kernels", "computed"),
            ("estimate", "analytic", "computed"),
            ("windows", "kernels", "computed"),
        ]

    def test_warm_events(self, golden_runs):
        warm = golden_runs[2]
        assert [(e.stage, e.backend, e.status) for e in warm.events] == [
            ("netlist", "generator", "computed"),
            ("datapath", "trainer", "hit"),
            ("windows", "kernels", "hit"),
            ("dta", "kernels", "hit"),
            ("estimate", "analytic", "computed"),
        ]
