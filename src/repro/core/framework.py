"""The end-to-end error-rate estimation flow (legacy composition root).

Two phases, mirroring Section 6.2:

* **Training** — execute the program on its *training* (small) dataset,
  capture one pipeline window per (basic block, incoming edge), and run the
  gate-level control-network characterization; fit the datapath timing
  model (once per processor).
* **Simulation** — execute the program on its *evaluation* (large) dataset
  at architecture level, collect the profile and joint operand samples,
  evaluate the instruction error model, solve the CFG linear systems for
  marginal probabilities, and assemble the statistical estimate: Gaussian
  lambda (CLT + Stein bound), Poisson mixture (Eq. 14 + Chen–Stein bound),
  and the bound CDFs of Section 6.4.

The flow itself now lives in the staged pipeline
(:class:`repro.pipeline.pipeline.EstimationPipeline`), where each phase
is a registered backend with a typed contract.  This module keeps the
original :class:`ErrorRateEstimator` surface as a thin shim over that
pipeline: constructing it still works everywhere, every method delegates,
and outputs are byte-identical — but the keyword paths the pipeline
absorbed (``window_workers``, ``activity_cache``) emit a
``DeprecationWarning`` pointing at their pipeline spelling.
"""

from __future__ import annotations

import warnings

from repro.core.processor import ProcessorModel
from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport
from repro.cpu.program import Program
from repro.dta.characterize import ControlCharacterizer
from repro.dta.windowpool import ActivityCache
from repro.pipeline.ir import TrainingArtifacts

__all__ = ["ErrorRateEstimator", "TrainingArtifacts"]


class ErrorRateEstimator:
    """The paper's framework, end to end (shim over the staged pipeline).

    Args:
        processor: Hardware configuration under analysis.
        n_data_samples: Data-variation sample count used to represent the
            probability random variables.
        window_workers: *Deprecated* — pass ``window_workers`` to an
            :class:`~repro.pipeline.pipeline.EstimationPipeline`
            instead.  Fork-pool width for the intra-job window-analysis
            fan-out; ``1`` runs serially, and parallel results are
            byte-identical to serial.
        activity_cache: *Deprecated* — pass the cache to the pipeline
            instead.  Content-addressed window activity cache shared by
            training, on-demand characterization, and breakdowns (a
            fresh one is built when omitted).
    """

    def __init__(
        self,
        processor: ProcessorModel,
        n_data_samples: int = 128,
        window_workers: int | None = None,
        activity_cache: ActivityCache | None = None,
    ) -> None:
        if window_workers is not None:
            warnings.warn(
                "ErrorRateEstimator(window_workers=...) is deprecated; "
                "use EstimationPipeline(..., window_workers=...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        if activity_cache is not None:
            warnings.warn(
                "ErrorRateEstimator(activity_cache=...) is deprecated; "
                "use EstimationPipeline(..., activity_cache=...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        # Validation stays here so the legacy error contract is exact
        # even though the pipeline re-validates.
        if n_data_samples < 2:
            raise ValueError("n_data_samples must be >= 2")
        workers = 1 if window_workers is None else window_workers
        if workers < 1:
            raise ValueError("window_workers must be >= 1")
        from repro.pipeline.pipeline import EstimationPipeline

        self._pipeline = EstimationPipeline(
            processor,
            store=None,
            n_data_samples=n_data_samples,
            window_workers=workers,
            activity_cache=activity_cache,
        )

    # ------------------------------------------------------------------ #
    # Legacy attribute surface
    # ------------------------------------------------------------------ #

    @property
    def processor(self) -> ProcessorModel:
        return self._pipeline.processor

    @property
    def n_data_samples(self) -> int:
        return self._pipeline.n_data_samples

    @property
    def window_workers(self) -> int:
        return self._pipeline.window_workers

    @property
    def activity_cache(self) -> ActivityCache:
        return self._pipeline.activity_cache

    def _build_characterizer(self, program: Program) -> ControlCharacterizer:
        """A characterizer wired to this estimator's cache and pool width."""
        return self._pipeline.build_characterizer(program)

    # ------------------------------------------------------------------ #
    # Period-independent window artifacts (frequency-sweep reuse)
    # ------------------------------------------------------------------ #

    def window_doc(self) -> dict:
        """Persistable period-independent window artifacts.

        Bundles the content-addressed activity traces with the stage
        analyzer's path-moment registry; see
        :meth:`EstimationPipeline.window_doc`.
        """
        return self._pipeline.window_doc()

    def preload_windows(self, doc: dict) -> int:
        """Load a :meth:`window_doc` document; returns entries added."""
        return self._pipeline.preload_windows(doc)

    # ------------------------------------------------------------------ #
    # Phase 1: training
    # ------------------------------------------------------------------ #

    def train(
        self,
        program: Program,
        setup=None,
        max_instructions: int = 2_000_000,
    ) -> TrainingArtifacts:
        """Characterize the program's control network on a training run."""
        return self._pipeline.train(
            program, setup=setup, max_instructions=max_instructions
        )

    def load_artifacts(self, program: Program, path) -> TrainingArtifacts:
        """Reload artifacts persisted by :meth:`TrainingArtifacts.save`."""
        return self._pipeline.load_artifacts(program, path)

    def artifacts_from_doc(
        self, program: Program, doc: dict
    ) -> TrainingArtifacts:
        """Rebuild :class:`TrainingArtifacts` from a persisted document."""
        return self._pipeline.artifacts_from_doc(program, doc)

    # ------------------------------------------------------------------ #
    # Phase 2: simulation + estimation
    # ------------------------------------------------------------------ #

    def estimate(
        self,
        program: Program,
        artifacts: TrainingArtifacts,
        setup=None,
        max_instructions: int = 5_000_000,
        reservoir_size: int = 160,
        seed: int = 0,
    ) -> ErrorRateReport:
        """Estimate the program's error-rate distribution on a dataset."""
        return self._pipeline.estimate(
            program,
            artifacts,
            setup=setup,
            max_instructions=max_instructions,
            reservoir_size=reservoir_size,
            seed=seed,
        )

    def _characterize_missing(self, artifacts, samples) -> None:
        """On-demand characterization for blocks/edges unseen in training."""
        self._pipeline._dta.characterize_missing(artifacts, samples)

    # ------------------------------------------------------------------ #

    def run(
        self,
        request: EstimationRequest,
        artifacts: TrainingArtifacts | None = None,
    ) -> ErrorRateReport:
        """Execute one :class:`EstimationRequest` end to end.

        Resolves the workload, trains on the request's training dataset
        (unless pre-trained ``artifacts`` are supplied), and estimates on
        the evaluation dataset.  A request carrying a ``speculation``
        different from this estimator's processor runs on a derived
        operating point that shares the period-independent trained
        engines and the activity cache.
        """
        return self._pipeline.run(request, artifacts)

    def instruction_breakdown(
        self,
        program: Program,
        artifacts: TrainingArtifacts,
        setup=None,
        max_instructions: int = 1_000_000,
        seed: int = 0,
    ) -> list[dict]:
        """Per-static-instruction contribution to the expected error count."""
        return self._pipeline.instruction_breakdown(
            program,
            artifacts,
            setup=setup,
            max_instructions=max_instructions,
            seed=seed,
        )
