"""Dynamic timing analysis (Section 3) and DTS characterization (Section 4).

``StageDTSAnalyzer`` implements Algorithm 1: the DTS of a pipeline stage at
a clock cycle is the timing slack of the most critical *activated* path,
computed deterministically (STA) or statistically (SSTA with the two-pass
1st/99th-percentile critical-path scan and a greedy statistical minimum).

``InstructionDTSAnalyzer`` implements Algorithm 2: an instruction's DTS is
the minimum over the pipeline stages it traverses.

``ControlCharacterizer`` performs the paper's control-network DTS
characterization — gate-level analysis run once per basic block per
incoming edge — and ``DatapathTimingModel`` is the trained higher-level
datapath timing model of [2], fitted from gate-level measurements and
evaluated from architecturally visible values only.
"""

from repro.dta.algorithm1 import StageDTSAnalyzer
from repro.dta.algorithm2 import InstructionDTSAnalyzer
from repro.dta.characterize import (
    ControlCharacterizer,
    ControlTimingModel,
    ControlKey,
)
from repro.dta.datapath import DatapathTimingModel, DatapathSample, extract_features
from repro.dta.trainer import DatapathTrainer
from repro.dta.graphdta import GraphDTSAnalyzer
from repro.dta.windowpool import ActivityCache

__all__ = [
    "ActivityCache",
    "DatapathTrainer",
    "GraphDTSAnalyzer",
    "StageDTSAnalyzer",
    "InstructionDTSAnalyzer",
    "ControlCharacterizer",
    "ControlTimingModel",
    "ControlKey",
    "DatapathTimingModel",
    "DatapathSample",
    "extract_features",
]
