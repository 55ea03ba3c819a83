"""Timing-speculative performance modelling (Sections 6.1 and 6.3)."""

from repro.perf.model import TSPerformanceModel
from repro.perf.voltage import VoltageScalingModel

__all__ = [
    "TSPerformanceModel",
    "VoltageScalingModel",
]
