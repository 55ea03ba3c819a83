"""No estimate loads ``scipy.stats``.

Importing ``scipy.stats`` costs over a second, which every CLI call,
spawned service worker and cold estimate would pay.  The package uses
``scipy.special`` instead; only the test-side references
(``tests/_reference.py``) and parity tests import ``scipy.stats``.  The
check runs in a fresh interpreter, since the test process itself may
have loaded the module.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro
import repro.cli
import repro.pipeline.pipeline
import repro.service
from repro.core import EstimationRequest
from repro.pipeline.ir import ProcessorConfig
from repro.pipeline.pipeline import EstimationPipeline

loaded_by_import = "scipy.stats" in sys.modules
EstimationPipeline(ProcessorConfig()).execute(
    EstimationRequest(
        workload="bitcount",
        train_instructions=2_000,
        max_instructions=2_000,
        seed=0,
    )
)
print(loaded_by_import, "scipy.stats" in sys.modules)
"""


def test_estimate_does_not_import_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_CACHE_DIR", None)  # run every stage, not a store hit
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"], done.stdout
