"""The processor-under-analysis bundle.

Collects everything hardware-side in one object: the synthetic pipeline
netlist (LEON3 integer-unit stand-in), the timing library, the correlated
process-variation model, the STA/SSTA engines, the DTA analyzers split into
control and data endpoint sets, the error-correction scheme, and the
operating frequencies (guardbanded baseline and speculative working point,
Section 6.1).
"""

from __future__ import annotations

import threading
from functools import cached_property

from repro._util import check_positive
from repro.core.family import CoreFamily, resolve_core_family
from repro.cpu.correction import CorrectionScheme, ReplayHalfFrequency
from repro.dta.algorithm1 import StageDTSAnalyzer
from repro.dta.algorithm2 import InstructionDTSAnalyzer
from repro.dta.datapath import DatapathTimingModel
from repro.dta.trainer import DatapathTrainer
from repro.logicsim.simulator import LevelizedSimulator
from repro.logicsim.stimulus import StimulusEncoder
from repro.netlist.gates import EndpointKind
from repro.netlist.generator import PipelineConfig, PipelineNetlist, generate_pipeline
from repro.netlist.library import TimingLibrary
from repro.netlist.paths import PathEnumerator
from repro.perf.model import TSPerformanceModel
from repro.sta.sta import StaticTimingAnalysis
from repro.sta.ssta import StatisticalTimingAnalysis
from repro.variation.process import ProcessVariationModel, VariationConfig

__all__ = ["ProcessorModel", "default_processor"]


class _engine:
    """A period-independent engine: built once, on the base processor.

    The first access from any operating point of one hardware design
    (the base or a point :meth:`ProcessorModel.derive` made from it)
    builds the engine on the base, under the base's lock for that
    engine, and every later access reads that one copy.  Engines have
    one lock each, so a build waits only for a concurrent build of the
    same engine (or of one it uses), never for unrelated training.
    Assigning the attribute attaches a prebuilt engine to that
    processor alone.
    """

    def __init__(self, build) -> None:
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, processor, owner=None):
        if processor is None:
            return self
        base = processor.base
        engines = base.__dict__
        if self.name not in engines:
            lock = base._engine_locks.setdefault(self.name, threading.Lock())
            with lock:
                if self.name not in engines:
                    engines[self.name] = self.build(base)
        return engines[self.name]


class ProcessorModel:
    """A timing-speculative processor configuration.

    Args:
        pipeline: Generated pipeline netlist (default configuration when
            omitted).
        library: Timing library.
        variation_config: Process-variation decomposition parameters.
        scheme: Error-correction scheme (replay at half frequency by
            default, as in Section 6.1).
        speculation: Working-frequency ratio over the guardbanded baseline
            (1.15 in the paper).
        yield_quantile: SSTA timing-yield target defining the baseline
            frequency.
        droop_guardband: Delay derate applied when computing the baseline
            frequency, modelling the low-voltage corner PrimeTime signs off
            at (the paper guardbands for a 10% droop at 0.81 V while the
            chip runs at 0.9 V).  The derate inflates the baseline period,
            which is exactly the pessimism timing speculation reclaims.
        clock_period_override: Explicit speculative clock period (ps),
            bypassing the baseline/speculation derivation (for sweeps).
        paths_per_endpoint: Path-enumeration depth for the DTA analyzers.
        core_family: The pipeline organization under analysis — a
            registered family name, a :class:`CoreFamily` descriptor, or
            ``None`` for the default in-order core.  The family supplies
            the netlist generator (when ``pipeline`` is omitted), the
            occupancy scheduler, and the correction-penalty composition.
    """

    def __init__(
        self,
        pipeline: PipelineNetlist | None = None,
        library: TimingLibrary | None = None,
        variation_config: VariationConfig | None = None,
        scheme: CorrectionScheme | None = None,
        speculation: float = 1.15,
        yield_quantile: float = 0.9987,
        droop_guardband: float = 1.04,
        clock_period_override: float | None = None,
        paths_per_endpoint: int = 12,
        core_family: "CoreFamily | str | None" = None,
    ) -> None:
        check_positive("speculation", speculation)
        check_positive("droop_guardband", droop_guardband)
        self.core_family = resolve_core_family(core_family)
        self.pipeline = pipeline or self.core_family.build_netlist(None)
        self.library = library or TimingLibrary()
        self.variation_config = variation_config
        self.scheme = scheme or ReplayHalfFrequency()
        self.speculation = speculation
        self.yield_quantile = yield_quantile
        self.droop_guardband = droop_guardband
        self.clock_period_override = clock_period_override
        self.paths_per_endpoint = paths_per_endpoint
        self._base: ProcessorModel | None = None
        self._engine_locks: dict[str, threading.Lock] = {}

    @property
    def base(self) -> "ProcessorModel":
        """The processor whose engines this one uses: itself, or the
        processor it was derived from."""
        return self if self._base is None else self._base

    def has_engine(self, name: str) -> bool:
        """Whether engine ``name`` (say ``"datapath_model"``) is built,
        on the base or attached to this processor."""
        return name in vars(self) or name in vars(self.base)

    # ------------------------------------------------------------------ #
    # Timing engines
    # ------------------------------------------------------------------ #

    @_engine
    def variation(self) -> ProcessVariationModel:
        """The correlated process-variation model."""
        return ProcessVariationModel(
            self.pipeline.netlist, self.library, self.variation_config
        )

    @_engine
    def enumerator(self) -> PathEnumerator:
        """The critical-path enumerator every timing engine shares."""
        netlist = self.pipeline.netlist
        return PathEnumerator(netlist, netlist.nominal_delays(self.library))

    @_engine
    def sta(self) -> StaticTimingAnalysis:
        return StaticTimingAnalysis(
            self.pipeline.netlist, self.library, self.enumerator
        )

    @_engine
    def ssta(self) -> StatisticalTimingAnalysis:
        return StatisticalTimingAnalysis(
            self.pipeline.netlist, self.library, self.variation,
            self.enumerator,
        )

    @cached_property
    def baseline_period(self) -> float:
        """Guardbanded (droop-derated SSTA timing-yield) clock period, ps.

        A derived point with the base's yield target and droop derate
        reads the base's period; any other point solves its own.
        """
        base = self.base
        if base is not self and (
            base.yield_quantile == self.yield_quantile
            and base.droop_guardband == self.droop_guardband
        ):
            return base.baseline_period
        return self.droop_guardband * self.ssta.min_clock_period(
            self.yield_quantile
        )

    @property
    def baseline_frequency_mhz(self) -> float:
        return 1.0e6 / self.baseline_period

    @property
    def clock_period(self) -> float:
        """Speculative working clock period in ps."""
        if self.clock_period_override is not None:
            return self.clock_period_override
        return self.baseline_period / self.speculation

    @property
    def working_frequency_mhz(self) -> float:
        return 1.0e6 / self.clock_period

    # ------------------------------------------------------------------ #
    # Family-derived structure
    # ------------------------------------------------------------------ #

    @property
    def num_stages(self) -> int:
        """Pipeline depth — the single accessor every depth consumer
        (performance, penalties, describe, derive) goes through."""
        return self.pipeline.num_stages

    @property
    def penalty_cycles(self) -> float:
        """Cycles lost per corrected error: the scheme's replay/flush
        penalty composed with the family's recovery cost."""
        return self.core_family.correction_penalty(
            self.scheme, self.num_stages
        )

    def make_scheduler(self, program):
        """The family's occupancy scheduler for ``program``."""
        return self.core_family.make_scheduler(program, self.pipeline)

    # ------------------------------------------------------------------ #
    # DTA analyzers
    # ------------------------------------------------------------------ #

    @_engine
    def control_analyzer(self) -> InstructionDTSAnalyzer:
        """Algorithm 2 over the control endpoints (Section 4)."""
        return InstructionDTSAnalyzer(
            StageDTSAnalyzer(
                self.pipeline.netlist,
                self.library,
                self.variation,
                paths_per_endpoint=self.paths_per_endpoint,
                endpoint_kind=EndpointKind.CONTROL,
                enumerator=self.enumerator,
            )
        )

    @_engine
    def data_analyzer(self) -> InstructionDTSAnalyzer:
        """Algorithm 2 over the data endpoints (datapath training)."""
        return InstructionDTSAnalyzer(
            StageDTSAnalyzer(
                self.pipeline.netlist,
                self.library,
                self.variation,
                paths_per_endpoint=self.paths_per_endpoint,
                endpoint_kind=EndpointKind.DATA,
                enumerator=self.enumerator,
            )
        )

    # ------------------------------------------------------------------ #
    # Shared models
    # ------------------------------------------------------------------ #

    @_engine
    def logic_simulator(self) -> LevelizedSimulator:
        """The levelized logic simulator of control characterization and
        datapath training."""
        return LevelizedSimulator(self.pipeline.netlist)

    @_engine
    def stimulus_encoder(self) -> StimulusEncoder:
        """The stimulus encoder of control characterization and datapath
        training (its memo tables do not depend on the period)."""
        return StimulusEncoder(self.pipeline)

    @_engine
    def datapath_model(self) -> DatapathTimingModel:
        """Trained datapath timing model (fitted once per processor)."""
        trainer = DatapathTrainer(
            self.pipeline,
            self.data_analyzer,
            self.library.setup_time,
            self.logic_simulator,
            self.stimulus_encoder,
            scheduler_factory=self.core_family.make_scheduler,
        )
        model, _ = trainer.train()
        return model

    @cached_property
    def performance(self) -> TSPerformanceModel:
        return self.core_family.make_performance(
            self.speculation, self.scheme, self.num_stages
        )

    # ------------------------------------------------------------------ #
    # Derived operating points
    # ------------------------------------------------------------------ #

    def derive(
        self,
        speculation: float | None = None,
        clock_period_override: float | None = None,
        scheme: CorrectionScheme | None = None,
        yield_quantile: float | None = None,
        droop_guardband: float | None = None,
    ) -> "ProcessorModel":
        """A new operating point of this processor's hardware.

        Sweeps re-analyze the same hardware at many clock periods.  The
        engines that do not depend on the period live on the base
        processor (:attr:`base`): the variation model, path enumerator,
        (S)STA engines, DTA analyzers, logic simulator, stimulus encoder
        and trained datapath model.  Each is built there once, on first
        use from any point, and a derived point builds none of its own.
        The point holds only its period-dependent scalars: speculation,
        scheme, period override, and the baseline period (read from the
        base when the yield target and droop derate match).

        Args:
            speculation: New working-frequency ratio (default: keep).
            clock_period_override: Explicit speculative period in ps; not
                inherited — pass it again if the derived point needs one.
            scheme: New correction scheme (default: keep).
            yield_quantile: New timing-yield target (default: keep).
            droop_guardband: New baseline derate (default: keep).
        """
        clone = ProcessorModel(
            pipeline=self.pipeline,
            library=self.library,
            variation_config=self.variation_config,
            scheme=self.scheme if scheme is None else scheme,
            speculation=(
                self.speculation if speculation is None else speculation
            ),
            yield_quantile=(
                self.yield_quantile
                if yield_quantile is None
                else yield_quantile
            ),
            droop_guardband=(
                self.droop_guardband
                if droop_guardband is None
                else droop_guardband
            ),
            clock_period_override=clock_period_override,
            paths_per_endpoint=self.paths_per_endpoint,
            core_family=self.core_family,
        )
        clone._base = self.base
        return clone

    def control_data_covariance(self, sigma_c: float, sigma_d: float) -> float:
        """Approximate slack covariance between control and data Gaussians.

        The control network and datapath share the chip-global variation
        component; their spatial components are largely independent
        (different placement regions).
        """
        return self.variation.config.global_fraction * sigma_c * sigma_d

    def describe(self) -> dict:
        """Operating-point summary (the Section 6.1 numbers)."""
        return {
            "core_family": self.core_family.name,
            "gates": len(self.pipeline.netlist),
            "stages": self.num_stages,
            "baseline_frequency_mhz": self.baseline_frequency_mhz,
            "working_frequency_mhz": self.working_frequency_mhz,
            "speculation": self.speculation,
            "clock_period_ps": self.clock_period,
            "correction": self.scheme.name,
            "penalty_cycles": self.penalty_cycles,
        }


def default_processor(**overrides) -> ProcessorModel:
    """The paper's experimental configuration (Section 6.1 analogue)."""
    return ProcessorModel(**overrides)
