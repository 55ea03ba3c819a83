"""Monte Carlo chip-sampling estimator — the baseline the paper lacked.

The paper validates its limit-theorem estimates with analytic bounds
because "our baseline simulator is too slow to handle large input
datasets" (Section 5).  At reproduction scale the brute-force baseline is
feasible: sample manufactured chips from the process-variation model, run
*deterministic* gate-level DTA per chip over the collected execution
windows, and read each chip's error rate directly.  The result is an
empirical error-rate distribution the statistical framework can be checked
against — per-chip analysis is exact (no Gaussians, no Clark, no limit
theorems), only data variation is subsampled through the window
reservoirs.

This estimator is orders of magnitude slower per program than the
framework (that is the paper's point), but it is the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.cfg.cfg import build_cfg
from repro.core.collect import collect_evaluation
from repro.core.processor import ProcessorModel
from repro.cpu.pipeline import InstructionWindow
from repro.dta.algorithm2 import entry_pairs
from repro.dta.graphdta import GraphDTSAnalyzer
from repro.dta.windowpool import ActivityCache
from repro.logicsim.simulator import LevelizedSimulator
from repro.logicsim.stimulus import StimulusEncoder

__all__ = ["MonteCarloValidator", "MonteCarloResult"]


@dataclass(slots=True)
class MonteCarloResult:
    """Empirical per-chip error rates.

    Attributes:
        chip_error_rates: Error rate (fraction, not percent) per sampled
            chip.
        total_instructions: Dynamic instructions of the profiled run.
        windows_analyzed: Number of (block execution) windows evaluated.
    """

    chip_error_rates: np.ndarray
    total_instructions: int
    windows_analyzed: int

    @property
    def mean_percent(self) -> float:
        return 100.0 * float(self.chip_error_rates.mean())

    @property
    def sd_percent(self) -> float:
        return 100.0 * float(self.chip_error_rates.std())

    def to_json(self, benchmark: str | None = None) -> dict:
        """Versioned JSON document (the ``montecarlo --json`` payload)."""
        doc: dict = {"schema": "repro.montecarlo-result/1"}
        if benchmark is not None:
            doc["benchmark"] = benchmark
        doc.update(
            {
                "chips": int(self.chip_error_rates.shape[0]),
                "mean_percent": self.mean_percent,
                "sd_percent": self.sd_percent,
                "chip_error_rates_percent": [
                    100.0 * float(x) for x in self.chip_error_rates
                ],
                "total_instructions": self.total_instructions,
                "windows_analyzed": self.windows_analyzed,
            }
        )
        return doc


class MonteCarloValidator:
    """Brute-force per-chip error-rate measurement.

    Args:
        processor: The processor configuration (supplies netlist, library,
            variation model, and working clock period).
        n_chips: Manufactured chips to sample.
        windows_per_block: Execution windows analyzed per basic block
            (data-variation subsampling; the activity of each window is
            simulated once and reused for every chip).
        activity_cache: Content-addressed activity cache; pass the
            estimator's cache to share logic simulations with the
            framework run being validated (a fresh one is built when
            omitted).
    """

    def __init__(
        self,
        processor: ProcessorModel,
        n_chips: int = 16,
        windows_per_block: int = 6,
        activity_cache: ActivityCache | None = None,
    ) -> None:
        if n_chips < 2:
            raise ValueError("n_chips must be >= 2")
        self.processor = processor
        self.n_chips = n_chips
        self.windows_per_block = windows_per_block
        self.activity_cache = (
            activity_cache if activity_cache is not None else ActivityCache()
        )
        self.graph = GraphDTSAnalyzer(
            processor.pipeline.netlist,
            processor.library,
            processor.variation,
        )

    def estimate(
        self,
        program,
        setup=None,
        max_instructions: int = 1_000_000,
        seed=0,
    ) -> MonteCarloResult:
        """Measure the per-chip error-rate distribution for a program."""
        rng = as_rng(seed)
        cfg = build_cfg(program)
        profile, samples = collect_evaluation(
            program, cfg, setup=setup, max_instructions=max_instructions,
            reservoir_size=64,
        )

        runtime = _MCRuntime(
            cfg=cfg,
            scheduler=self.processor.make_scheduler(program),
            simulator=LevelizedSimulator(self.processor.pipeline.netlist),
            encoder=StimulusEncoder(self.processor.pipeline),
            cache=self.activity_cache,
            chips=self.processor.variation.sample_chips(self.n_chips, rng),
            period=self.processor.clock_period,
            setup_time=self.processor.library.setup_time,
        )

        # The per-block window subsample must be drawn with the seeded
        # rng: the reservoir's first-k entries over-represent early
        # executions (reservoir sampling only randomizes *which* k
        # survive eviction, not their order).
        lam = np.zeros(self.n_chips)
        windows = 0
        for bid, block_samples in sorted(samples.items()):
            executions = int(profile.block_counts[bid])
            if executions == 0:
                continue
            if len(block_samples) > self.windows_per_block:
                picked = rng.choice(
                    len(block_samples),
                    size=self.windows_per_block,
                    replace=False,
                )
                chosen = [block_samples[i] for i in np.sort(picked)]
            else:
                chosen = list(block_samples)
            n_i = cfg.block(bid).size
            # error fraction per chip, averaged over this block's windows.
            err = np.zeros((self.n_chips, n_i))
            for sample in chosen:
                err += self._window_error(runtime, bid, sample)
                windows += 1
            err /= max(len(chosen), 1)
            lam += executions * err.sum(axis=1)
        rates = lam / max(profile.total_instructions, 1)
        return MonteCarloResult(
            chip_error_rates=rates,
            total_instructions=profile.total_instructions,
            windows_analyzed=windows,
        )

    def _window_error(self, rt: "_MCRuntime", bid: int, sample) -> np.ndarray:
        """Per-chip error counts ``(n_chips, n_i)`` for one window."""
        n_i = rt.cfg.block(bid).size
        tail = [sample.entry_prev] if sample.entry_prev else []
        window = InstructionWindow(list(tail) + list(sample.records))
        schedule = rt.scheduler.schedule(window)
        activity = rt.cache.activity(
            rt.encoder.encode_schedule(schedule), rt.simulator.activity
        )
        entries = rt.scheduler.entries(
            window, [len(tail) + k for k in range(n_i)]
        )
        # One propagation covers every sampled chip.
        arrivals = self.graph.activated_arrivals_multi(activity, rt.chips)
        n_stages = self.processor.num_stages
        err = np.zeros((self.n_chips, n_i))
        for k, entry in enumerate(entries):
            worst = np.full(self.n_chips, -np.inf)
            for s, t in entry_pairs(entry, n_stages):
                if not 0 <= t < activity.n_cycles:
                    continue
                drivers = self.graph.stage_drivers(s)
                if drivers:
                    np.maximum(
                        worst,
                        arrivals[:, t, drivers].max(axis=1),
                        out=worst,
                    )
            dts = rt.period - rt.setup_time - worst
            err[:, k] += (np.isfinite(worst) & (dts < 0.0)).astype(float)
        return err


@dataclass(slots=True)
class _MCRuntime:
    """Per-estimate machinery shared by every window of one run."""

    cfg: object
    scheduler: object
    simulator: LevelizedSimulator
    encoder: StimulusEncoder
    cache: ActivityCache
    chips: np.ndarray
    period: float
    setup_time: float

