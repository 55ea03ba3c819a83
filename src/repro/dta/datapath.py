"""The trained datapath timing model ([2], Section 4).

Gate-level DTA of the datapath is only needed during *training*: Algorithm 1
measures the DTS of the data endpoints while the pipeline executes sampled
instruction pairs with sampled operands, and a per-opcode-class regression
is fitted from architecturally visible features (carry-chain length,
operand toggle counts, magnitudes, shift amounts).  During program
simulation the model predicts each dynamic instruction's datapath arrival
time — and hence its slack Gaussian — at native speed, no simulator in the
loop (the paper's LLVM instrumentation plays this role).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng
from repro.cpu.interpreter import StepRecord
from repro.cpu.isa import Instruction, Opcode, OpClass, WORD_BITS, WORD_MASK, op_class
from repro.sta.gaussian import Gaussian

__all__ = [
    "extract_features",
    "feature_matrix",
    "record_arrays",
    "DatapathSample",
    "DatapathTimingModel",
    "carry_chain_length",
    "FEATURE_NAMES",
]

FEATURE_NAMES = (
    "bias",
    "carry_chain",
    "msb_a",
    "msb_b",
    "toggle_a",
    "toggle_b",
    "shamt",
    "pop_a",
    "pop_b",
    "toggle_r",
    "msb_r",
    "pop_r",
    # Transition-depth features: activated-path depth tracks how high the
    # *changed* bits reach, not the static operand shape.
    "flip_msb_a",
    "flip_msb_b",
    "flip_msb_r",
    "carry_flip_msb",
)


#: Popcount and bit length of every word value, and the feature columns
#: each table fills: popcounts of (toggle_a, toggle_b, pop_a, pop_b,
#: toggle_r, pop_r) and bit lengths of (msb_a, msb_b, msb_r, the four
#: flip_msb columns).
_WORDS = np.arange(1 << WORD_BITS, dtype=np.uint16)
_POPCOUNT = sum((_WORDS >> i) & 1 for i in range(WORD_BITS)).astype(np.uint8)
_BIT_LENGTH = np.frexp(_WORDS)[1].astype(np.uint8)
_POP_COLUMNS = [4, 5, 7, 8, 9, 11]
_BIT_LENGTH_COLUMNS = [2, 3, 10, 12, 13, 14, 15]
del _WORDS

_SHIFTS = np.arange(WORD_BITS)


def _carry_chains(a: np.ndarray, b: np.ndarray, cin) -> np.ndarray:
    """:func:`carry_chain_length` of word arrays ``a + b + cin``."""
    carry_in = ((a + b + cin) ^ a ^ b) & WORD_MASK
    extends = (((a ^ b) & carry_in)[:, None] >> _SHIFTS) & 1
    generate = ((a & b)[:, None] >> _SHIFTS) & 1
    # A bit that propagates an incoming carry extends the chain ending
    # below it; any other bit ends the chain there, and starts a new
    # one of length 1 if it generates a carry.  So the chain through bit
    # i is i - (j - generate[j]), j the last bit <= i that does not
    # extend, or i + 1 when every bit up to i extends.  j - generate[j]
    # never decreases with j, so a running maximum finds it.
    start = np.where(extends == 1, -1, _SHIFTS - generate)
    return (_SHIFTS - np.maximum.accumulate(start, axis=1)).max(axis=1)


def carry_chain_length(a: int, b: int, cin: int = 0) -> int:
    """Length of the longest carry-propagation chain of ``a + b + cin``.

    The dominant value dependence of ripple-carry delay: the number of bit
    positions the longest carry ripple traverses.
    """
    return int(
        _carry_chains(np.array([a & WORD_MASK]), np.array([b & WORD_MASK]), cin & 1)[0]
    )


def _carry_bits(a, b, cin: int = 0):
    """Bit vectors of carries *into* each position of ``a + b + cin``."""
    # carry into bit i equals sum_bit xor a xor b at bit i.
    return ((a + b + cin) ^ a ^ b ^ cin) & WORD_MASK


def feature_matrix(ins, a, b, r, pa, pb, pr) -> np.ndarray:
    """Feature rows of many dynamic instructions.

    Row ``i`` is :func:`extract_features` of instruction ``ins`` (one
    :class:`Instruction` for every row, or a sequence of one per row)
    with operands ``a[i]``, ``b[i]`` and result ``r[i]``, after a
    previous instruction with operands ``pa[i]``, ``pb[i]`` and result
    ``pr[i]`` (zeros for a flushed pipeline).  Returns a float64
    ``(n, len(FEATURE_NAMES))`` array.
    """
    a, b, r, pa, pb, pr = (
        np.asarray(v, dtype=np.int64) & WORD_MASK for v in (a, b, r, pa, pb, pr)
    )
    instrs = [ins] if isinstance(ins, Instruction) else ins
    klass = [i.op_class for i in instrs]
    sub = np.array([i.op == Opcode.SUB for i in instrs])
    mem = np.array([k in (OpClass.LOAD, OpClass.STORE) for k in klass])
    shift = np.array([k == OpClass.SHIFT for k in klass])
    chain = mem | np.array([k == OpClass.ADDER for k in klass])
    imm = np.array([i.imm for i in instrs], dtype=np.int64) & WORD_MASK
    # The adder sees b inverted with a carry-in for SUB and the offset
    # for memory ops.  Other ops have no carry-chain feature, but the EX
    # adder still computes (no operand isolation): its carry activity
    # follows the raw operand change.
    cin = sub.astype(np.int64)
    b_eff = np.where(sub, ~b & WORD_MASK, np.where(mem, imm, b))
    pb_eff = np.where(sub, ~pb & WORD_MASK, np.where(mem, imm, pb))
    carry = np.where(chain, _carry_chains(a, b_eff, cin), 0) if chain.any() else 0
    flips = _carry_bits(a, b_eff, cin) ^ _carry_bits(pa, pb_eff, cin)
    ta, tb, tr = a ^ pa, b ^ pb, r ^ pr
    out = np.empty((len(a), len(FEATURE_NAMES)))
    out[:, 0] = 1.0
    out[:, 1] = carry
    out[:, 6] = np.where(shift, b & (WORD_BITS - 1), 0)
    out[:, _POP_COLUMNS] = _POPCOUNT[np.stack([ta, tb, a, b, tr, r], axis=1)]
    out[:, _BIT_LENGTH_COLUMNS] = _BIT_LENGTH[
        np.stack([a, b, r, ta, tb, tr, flips], axis=1)
    ]
    return out


def extract_features(
    ins: Instruction,
    record: StepRecord,
    prev: StepRecord | None,
) -> np.ndarray:
    """Feature vector of one dynamic instruction.

    Only architecturally visible values are used: the operands, the
    previous dynamic instruction's operands (register toggles drive which
    datapath gates switch), and the instruction fields.  This is the
    one-row case of :func:`feature_matrix`.
    """
    return feature_matrix(
        ins, *record_arrays([record]), *record_arrays([prev])
    )[0]


def record_arrays(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, result)`` int64 arrays of step records, with zeros for a
    ``None`` record (a flushed pipeline)."""
    return tuple(
        np.array(
            [getattr(rec, f) if rec is not None else 0 for rec in records],
            dtype=np.int64,
        )
        for f in ("a", "b", "result")
    )


@dataclass(slots=True)
class DatapathSample:
    """One training observation.

    Attributes:
        op_class: Datapath class of the instruction.
        features: Feature vector (see :data:`FEATURE_NAMES`).
        arrival: Measured critical activated data-endpoint arrival (ps).
        arrival_sd: One-sigma process variability of that arrival (ps).
    """

    op_class: OpClass
    features: np.ndarray
    arrival: float
    arrival_sd: float


class DatapathTimingModel:
    """Per-class regression from operand features to datapath arrival.

    Predicts, per dynamic instruction, the Gaussian arrival time of the
    most critical activated data path; the instruction's datapath slack is
    ``clock_period - setup - arrival``.

    Two mean predictors are available: a bagged regression-tree ensemble
    (default — the feature/arrival relation is strongly piecewise, see
    :mod:`repro.dta.regression` and related work [18]) and a ridge linear
    model (``model_kind="linear"``; kept for the ablation study).  The
    prediction sigma combines the fitted process-variation sd with the
    model's residual uncertainty in quadrature.
    """

    def __init__(self, model_kind: str = "tree") -> None:
        if model_kind not in ("tree", "linear"):
            raise ValueError(f"unknown model_kind {model_kind!r}")
        self.model_kind = model_kind
        self._mean_coef: dict[OpClass, np.ndarray] = {}
        self._trees: dict[OpClass, "BaggedTrees"] = {}
        self._sd_coef: dict[OpClass, np.ndarray] = {}
        self._residual_sd: dict[OpClass, float] = {}
        self._range: dict[OpClass, tuple[float, float]] = {}
        self._fallback_arrival: float = 0.0
        self._fallback_sd: float = 0.0
        self.trained = False

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(self, samples: list[DatapathSample]) -> None:
        """Fit the per-class regressions from training observations."""
        if not samples:
            raise ValueError("no training samples")
        by_class: dict[OpClass, list[DatapathSample]] = {}
        for s in samples:
            by_class.setdefault(s.op_class, []).append(s)
        arrivals = np.array([s.arrival for s in samples])
        sds = np.array([s.arrival_sd for s in samples])
        self._fallback_arrival = float(arrivals.mean())
        self._fallback_sd = float(sds.mean())
        data = {}
        for klass, rows in by_class.items():
            x = np.stack([r.features for r in rows])
            y = np.array([r.arrival for r in rows])
            sd = np.array([r.arrival_sd for r in rows])
            # Ridge-regularized least squares keeps degenerate feature
            # columns (all-zero shamt for non-shift classes) harmless.
            d = x.shape[1]
            reg = 1e-6 * np.eye(d)
            gram = x.T @ x + reg
            self._mean_coef[klass] = np.linalg.solve(gram, x.T @ y)
            self._sd_coef[klass] = np.linalg.solve(gram, x.T @ sd)
            data[klass] = (x, y)
        if self.model_kind == "tree":
            from repro.dta.regression import BaggedTrees, fit_bagged

            ensembles = [
                BaggedTrees(
                    n_trees=7, max_depth=6, min_leaf=max(2, len(y) // 24)
                )
                for _, y in data.values()
            ]
            # Every class's trees grow in one forest.
            fit_bagged(ensembles, list(data.values()))
            self._trees.update(zip(data, ensembles))
        for klass, (x, y) in data.items():
            if self.model_kind == "tree":
                resid = y - self._trees[klass].predict(x)
            else:
                resid = y - x @ self._mean_coef[klass]
            self._residual_sd[klass] = float(resid.std())
            # Predictions are clamped to the observed arrival range: no
            # activated path can be longer than the longest path seen for
            # the class, so extrapolation outside the training envelope is
            # physically meaningless.
            self._range[klass] = (float(y.min()), float(y.max()))
        self.trained = True

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def classes(self) -> list[OpClass]:
        return sorted(self._mean_coef, key=lambda c: c.value)

    def residual_sd(self, klass: OpClass) -> float:
        return self._residual_sd.get(klass, 0.0)

    def predict_arrival(
        self, klass: OpClass, features: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predicted (arrival mean, arrival sd) for feature rows.

        ``features`` is ``(n, d)`` (a single vector is promoted).  The
        returned sd combines the fitted process-variation sd with the
        model's residual sd in quadrature.
        """
        if not self.trained:
            raise RuntimeError("model is not fitted")
        f = np.atleast_2d(np.asarray(features, dtype=float))
        coef = self._mean_coef.get(klass)
        if coef is None:
            n = f.shape[0]
            return (
                np.full(n, self._fallback_arrival),
                np.full(n, max(self._fallback_sd, 1.0)),
            )
        lo, hi = self._range[klass]
        if self.model_kind == "tree":
            raw, spread = self._trees[klass].predict_with_spread(f)
        else:
            raw, spread = f @ coef, np.zeros(f.shape[0])
        mean = np.clip(raw, lo, hi)
        sd = np.clip(f @ self._sd_coef[klass], 0.5, None)
        resid = self._residual_sd[klass]
        return mean, np.sqrt(sd**2 + resid**2 + spread**2)

    def predict_slack(
        self,
        klass: OpClass,
        features: np.ndarray,
        clock_period: float,
        setup_time: float,
    ) -> list[Gaussian]:
        """Datapath slack Gaussians for feature rows at a clock period."""
        mean, sd = self.predict_arrival(klass, features)
        return [
            Gaussian(clock_period - setup_time - m, s * s)
            for m, s in zip(mean, sd)
        ]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_json(self) -> str:
        """Serialize the fitted model (both regressor kinds) to JSON."""
        import json

        if not self.trained:
            raise RuntimeError("model is not fitted")
        doc = {
            "model_kind": self.model_kind,
            "fallback_arrival": self._fallback_arrival,
            "fallback_sd": self._fallback_sd,
            "classes": {
                klass.value: {
                    "mean_coef": self._mean_coef[klass].tolist(),
                    "sd_coef": self._sd_coef[klass].tolist(),
                    "residual_sd": self._residual_sd[klass],
                    "range": list(self._range[klass]),
                    "trees": (
                        self._trees[klass].to_dict()
                        if klass in self._trees
                        else None
                    ),
                }
                for klass in self._mean_coef
            },
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "DatapathTimingModel":
        """Rebuild a model serialized by :meth:`to_json`."""
        import json

        from repro.dta.regression import BaggedTrees

        doc = json.loads(text)
        model = cls(doc["model_kind"])
        model._fallback_arrival = float(doc["fallback_arrival"])
        model._fallback_sd = float(doc["fallback_sd"])
        for name, spec in doc["classes"].items():
            klass = OpClass(name)
            model._mean_coef[klass] = np.asarray(spec["mean_coef"])
            model._sd_coef[klass] = np.asarray(spec["sd_coef"])
            model._residual_sd[klass] = float(spec["residual_sd"])
            model._range[klass] = (
                float(spec["range"][0]), float(spec["range"][1]),
            )
            if spec["trees"] is not None:
                model._trees[klass] = BaggedTrees.from_dict(spec["trees"])
        model.trained = True
        return model
