"""Instruction error probabilities (Section 4.1).

Combines the two characterized halves of an instruction's DTS — the
per-(block, edge, position) control-network Gaussian and the per-dynamic-
instance datapath Gaussian predicted by the trained timing model — into the
instruction's DTS via a Clark minimum, and converts DTS to error
probability ``p = P(DTS < 0)`` under process variation.

Each sampled block execution yields one *joint* row of conditional
probabilities: p^c from the observed pipeline flow, p^e from the
error-correction emulation (flushed previous state).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro._util import as_rng
from repro.cfg.marginal import BlockProbabilities
from repro.core.collect import BlockExecutionSample
from repro.dta.datapath import feature_matrix, record_arrays
from repro.sta.clark import clark_min_arrays

__all__ = ["InstructionErrorModel"]

#: Stand-in mean for an absent (never-risky) slack contribution, in ps.
_SAFE_SLACK = 1.0e9


class InstructionErrorModel:
    """Turns collected execution samples into conditional probabilities.

    Args:
        processor: The :class:`~repro.core.processor.ProcessorModel`.
        program: The program under analysis.
        cfg: Its CFG.
        control_model: Characterized control timing
            (:class:`~repro.dta.characterize.ControlTimingModel`).
    """

    def __init__(self, processor, program, cfg, control_model) -> None:
        self.processor = processor
        self.program = program
        self.cfg = cfg
        self.control_model = control_model
        self.datapath = processor.datapath_model
        self.clock_period = processor.clock_period
        self.setup_time = processor.library.setup_time

    # ------------------------------------------------------------------ #

    @staticmethod
    def _probability(mean: np.ndarray, var: np.ndarray) -> np.ndarray:
        """``P(slack < 0)`` elementwise, handling zero variance."""
        sd = np.sqrt(var)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0, -mean / np.where(sd > 0, sd, 1.0), 0.0)
        p = ndtr(z)  # scipy.stats.norm.cdf(z), without the import
        p = np.where(sd > 0, p, (mean < 0).astype(float))
        return np.clip(p, 0.0, 1.0)

    def _control_arrays(
        self, bid: int, k: int, preds: list[int], corrected: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample control slack (mean, var) for instruction k."""
        means = np.empty(len(preds))
        variances = np.empty(len(preds))
        for i, pred in enumerate(preds):
            normal, corr = self.control_model.get(bid, pred, k)
            g = corr if corrected else normal
            if g is None:
                means[i] = _SAFE_SLACK
                variances[i] = 0.0
            else:
                means[i] = g.mean
                variances[i] = g.var
        return means, variances

    def block_probabilities(
        self,
        bid: int,
        samples: list[BlockExecutionSample],
        n_samples: int,
        seed=0,
    ) -> BlockProbabilities:
        """Conditional probability rows ``(n_i, n_samples)`` for a block.

        Executions are resampled with replacement to the common sample
        count; each resampled execution stays *joint* across the block's
        instructions (preserving adjacent-instruction correlation).
        """
        if not samples:
            raise ValueError(f"block {bid} has no execution samples")
        block = self.cfg.block(bid)
        rng = as_rng(seed + bid)
        chosen = [
            samples[int(i)]
            for i in rng.integers(len(samples), size=n_samples)
        ]
        preds = [s.pred for s in chosen]
        n_i = block.size
        pc = np.empty((n_i, n_samples))
        pe = np.empty((n_i, n_samples))
        g_frac = self.processor.variation.config.global_fraction
        flushed = np.zeros(n_samples, dtype=np.int64)
        for k in range(n_i):
            ins = self.program[block.start + k]
            klass = ins.op_class
            a, b, r = record_arrays([sample.records[k] for sample in chosen])
            pa, pb, pr = record_arrays(
                [
                    sample.records[k - 1] if k > 0 else sample.entry_prev
                    for sample in chosen
                ]
            )
            feats_c = feature_matrix(ins, a, b, r, pa, pb, pr)
            # Correction emulation: previous pipeline state flushed.
            feats_e = feature_matrix(ins, a, b, r, flushed, flushed, flushed)
            dp_mean_c, dp_sd_c = self.datapath.predict_arrival(klass, feats_c)
            dp_mean_e, dp_sd_e = self.datapath.predict_arrival(klass, feats_e)
            slack_base = self.clock_period - self.setup_time
            for corrected, dp_mean, dp_sd, out in (
                (False, dp_mean_c, dp_sd_c, pc),
                (True, dp_mean_e, dp_sd_e, pe),
            ):
                ctrl_mean, ctrl_var = self._control_arrays(
                    bid, k, preds, corrected
                )
                dpm = slack_base - dp_mean
                dpv = dp_sd**2
                cov = g_frac * np.sqrt(ctrl_var) * dp_sd
                mean, var = clark_min_arrays(ctrl_mean, ctrl_var, dpm, dpv, cov)
                out[k] = self._probability(mean, var)
        return BlockProbabilities(pc=pc, pe=pe)

    def all_block_probabilities(
        self,
        samples: dict[int, list[BlockExecutionSample]],
        n_samples: int = 128,
        seed=0,
    ) -> dict[int, BlockProbabilities]:
        """Conditional probabilities for every sampled block."""
        return {
            bid: self.block_probabilities(bid, blk, n_samples, seed)
            for bid, blk in sorted(samples.items())
        }
