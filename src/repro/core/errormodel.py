"""Instruction error probabilities (Section 4.1).

Combines the two characterized halves of an instruction's DTS — the
per-(block, edge, position) control-network Gaussian and the per-dynamic-
instance datapath Gaussian predicted by the trained timing model — into the
instruction's DTS via a Clark minimum, and converts DTS to error
probability ``p = P(DTS < 0)`` under process variation.

Each sampled block execution yields one *joint* row of conditional
probabilities: p^c from the observed pipeline flow, p^e from the
error-correction emulation (flushed previous state).

The clock period enters only through the slack base ``period - setup``
and the per-point control model.  So the model runs in two parts:
:class:`DatapathArrivals`, the period-independent half (the resampled
executions and their datapath arrival Gaussians, one tree prediction per
op class over every block), and the per-point tail of
:meth:`InstructionErrorModel.all_block_probabilities` (control slack
gather, Clark minimum, probability).  A caller that keeps the half and
passes it back (``half=``) has it reused by every operating point with
its seed and sample count; the pipeline keeps it with the program's pass
inputs (:class:`~repro.pipeline.stages.PassInputs`), so later passes
reuse it too.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro._util import as_rng
from repro.cfg.marginal import BlockProbabilities
from repro.core.collect import BlockExecutionSample
from repro.dta.datapath import feature_matrix, record_arrays
from repro.sta.clark import clark_min_arrays

__all__ = ["DatapathArrivals", "InstructionErrorModel"]

#: Stand-in mean for an absent (never-risky) slack contribution, in ps.
_SAFE_SLACK = 1.0e9


class DatapathArrivals:
    """The period-independent half of the error model.

    Resamples each block's executions with replacement to ``n_samples``
    (each resampled execution stays *joint* across the block's
    instructions, preserving adjacent-instruction correlation) and
    predicts the datapath arrival Gaussian of every (instruction,
    execution), under the observed flow and with the previous pipeline
    state flushed (the correction emulation).  The feature rows of all
    blocks go through one :meth:`DatapathTimingModel.predict_arrival`
    call per op class.

    Attributes:
        datapath: The datapath timing model the arrivals came from.
        samples: The ``bid -> executions`` dict that was resampled.
        n_samples: The resampled execution count per block.
        seed: The resampling seed.
        preds: ``bid -> (S,)`` incoming edge of each resampled execution.
        rows: ``bid -> slice`` of the block's instruction rows.
        mean: ``(2, R, S)`` arrival means over the ``R`` instruction rows
            of all blocks; ``[0]`` observed flow, ``[1]`` flushed.
        sd: Arrival sds, same shape.
        var: ``sd**2``.
    """

    def __init__(
        self,
        datapath,
        program,
        cfg,
        samples: dict[int, list[BlockExecutionSample]],
        n_samples: int,
        seed=0,
    ) -> None:
        self.datapath = datapath
        self.samples = samples
        self.n_samples = n_samples
        self.seed = seed
        self.preds: dict[int, np.ndarray] = {}
        self.rows: dict[int, slice] = {}
        by_class: dict = {}  # op class -> ([row], [features (2S, F)])
        flushed = np.zeros((n_samples, 3), dtype=np.int64)
        n_rows = 0
        for bid, block_samples in sorted(samples.items()):
            if not block_samples:
                raise ValueError(f"block {bid} has no execution samples")
            block = cfg.block(bid)
            n_i = block.size
            rng = as_rng(seed + bid)
            chosen = rng.integers(len(block_samples), size=n_samples)
            distinct, which = np.unique(chosen, return_inverse=True)
            picked = [block_samples[int(i)] for i in distinct]
            self.preds[bid] = np.array([s.pred for s in picked])[which]
            # (S, n_i + 1, 3): the pre-entry record, then the block's.
            records = [
                r for s in picked for r in [s.entry_prev, *s.records[:n_i]]
            ]
            ops = np.stack(record_arrays(records), axis=-1).reshape(
                len(picked), n_i + 1, 3
            )[which]
            for k in range(n_i):
                ins = program[block.start + k]
                # Rows [observed flow; previous state flushed].
                cur = np.concatenate([ops[:, k + 1], ops[:, k + 1]])
                prev = np.concatenate([ops[:, k], flushed])
                rows, feats = by_class.setdefault(ins.op_class, ([], []))
                rows.append(n_rows + k)
                feats.append(feature_matrix(ins, *cur.T, *prev.T))
            self.rows[bid] = slice(n_rows, n_rows + n_i)
            n_rows += n_i
        self.mean = np.empty((2, n_rows, n_samples))
        self.sd = np.empty((2, n_rows, n_samples))
        for klass, (rows, feats) in by_class.items():
            mean, sd = datapath.predict_arrival(klass, np.concatenate(feats))
            shape = (len(rows), 2, n_samples)
            self.mean[:, rows] = mean.reshape(shape).transpose(1, 0, 2)
            self.sd[:, rows] = sd.reshape(shape).transpose(1, 0, 2)
        self.var = self.sd**2

    def built_from(self, datapath, samples, n_samples: int, seed) -> bool:
        """Whether these are the arrivals of ``datapath`` over
        ``samples`` at ``(n_samples, seed)``.  The model and the samples
        are compared by identity: the half holds both alive."""
        return (
            self.datapath is datapath
            and self.samples is samples
            and self.n_samples == n_samples
            and self.seed == seed
        )


class InstructionErrorModel:
    """Turns collected execution samples into conditional probabilities.

    Args:
        processor: The :class:`~repro.core.processor.ProcessorModel`.
        program: The program under analysis.
        cfg: Its CFG.
        control_model: Characterized control timing
            (:class:`~repro.dta.characterize.ControlTimingModel`).
        datapath_half: The :class:`DatapathArrivals` the last
            :meth:`all_block_probabilities` call used (``None`` before
            one).
    """

    def __init__(self, processor, program, cfg, control_model) -> None:
        self.processor = processor
        self.program = program
        self.cfg = cfg
        self.control_model = control_model
        self.datapath_half: DatapathArrivals | None = None
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
        self, bid: int, n_i: int, preds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Control slack (mean, var) of a block, each ``(2, n_i, S)``:
        ``[0]`` normal flow, ``[1]`` corrected.  Each distinct edge of
        ``preds`` is looked up once."""
        distinct, which = np.unique(preds, return_inverse=True)
        means = np.empty((2, n_i, len(distinct)))
        variances = np.empty((2, n_i, len(distinct)))
        for j, pred in enumerate(distinct.tolist()):
            for k in range(n_i):
                for c, g in enumerate(self.control_model.get(bid, pred, k)):
                    if g is None:
                        means[c, k, j] = _SAFE_SLACK
                        variances[c, k, j] = 0.0
                    else:
                        means[c, k, j] = g.mean
                        variances[c, k, j] = g.var
        return means[:, :, which], variances[:, :, which]

    def block_probabilities(
        self,
        bid: int,
        samples: list[BlockExecutionSample],
        n_samples: int,
        seed=0,
    ) -> BlockProbabilities:
        """Conditional probability rows ``(n_i, n_samples)`` for a block."""
        return self.all_block_probabilities(
            {bid: samples}, n_samples, seed
        )[bid]

    def all_block_probabilities(
        self,
        samples: dict[int, list[BlockExecutionSample]],
        n_samples: int = 128,
        seed=0,
        half: DatapathArrivals | None = None,
    ) -> dict[int, BlockProbabilities]:
        """Conditional probabilities for every sampled block.

        ``half`` is a kept period-independent half: it is used when it
        was built from these samples, sample count and seed and this
        datapath model, otherwise a new one is computed.  The half used
        is left in :attr:`datapath_half`.
        """
        if half is None or not half.built_from(
            self.datapath, samples, n_samples, seed
        ):
            half = DatapathArrivals(
                self.datapath, self.program, self.cfg, samples,
                n_samples, seed,
            )
        self.datapath_half = half
        ctrl_mean = np.empty_like(half.mean)
        ctrl_var = np.empty_like(half.mean)
        for bid, rows in half.rows.items():
            ctrl_mean[:, rows], ctrl_var[:, rows] = self._control_arrays(
                bid, rows.stop - rows.start, half.preds[bid]
            )
        g_frac = self.processor.variation.config.global_fraction
        slack_base = self.clock_period - self.setup_time
        cov = g_frac * np.sqrt(ctrl_var) * half.sd
        mean, var = clark_min_arrays(
            ctrl_mean, ctrl_var, slack_base - half.mean, half.var, cov
        )
        p = self._probability(mean, var)
        return {
            bid: BlockProbabilities(pc=p[0, rows], pe=p[1, rows])
            for bid, rows in half.rows.items()
        }
