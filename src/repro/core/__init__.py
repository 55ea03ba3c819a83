"""The error-rate estimation framework — the paper's primary contribution.

``ProcessorModel`` bundles the hardware side (netlist, timing library,
process variation, error correction, operating frequencies); the staged
``repro.pipeline.pipeline.EstimationPipeline`` runs the two-phase flow —
training (control-network characterization + datapath model fitting)
and simulation (architecture-level execution with the trained models)
— and produces ``ErrorRateReport`` objects carrying the error-rate
distribution, its lower/upper bounds, and the Stein / Chen–Stein
approximation errors.
"""

from repro.core.processor import ProcessorModel, default_processor
from repro.core.collect import SimulationCollector, BlockExecutionSample
from repro.core.errormodel import InstructionErrorModel
from repro.core.request import EstimationRequest
from repro.core.results import ErrorRateReport
from repro.core.montecarlo import MonteCarloValidator, MonteCarloResult
from repro.pipeline.ir import TrainingArtifacts

__all__ = [
    "MonteCarloValidator",
    "MonteCarloResult",
    "ProcessorModel",
    "default_processor",
    "SimulationCollector",
    "BlockExecutionSample",
    "InstructionErrorModel",
    "EstimationRequest",
    "TrainingArtifacts",
    "ErrorRateReport",
]
