"""A tiny Gaussian random-variable value type used throughout SSTA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["Gaussian"]


@dataclass(frozen=True, slots=True)
class Gaussian:
    """A normal random variable N(mean, var).

    ``var`` may be zero, in which case the variable is deterministic and the
    probability queries degenerate to step functions.
    """

    mean: float
    var: float

    def __post_init__(self) -> None:
        if self.var < 0:
            if self.var > -1e-12:  # tolerate tiny negative from round-off
                object.__setattr__(self, "var", 0.0)
            else:
                raise ValueError(f"variance must be non-negative, got {self.var}")

    @property
    def std(self) -> float:
        return float(np.sqrt(self.var))

    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        if self.var == 0.0:
            return 1.0 if x >= self.mean else 0.0
        # What ``scipy.stats.norm.cdf(x, loc, scale)`` evaluates, without
        # importing ``scipy.stats`` (1.4 s) for it.
        return float(ndtr((x - self.mean) / self.std))

    def sf(self, x: float) -> float:
        """P(X > x)."""
        return 1.0 - self.cdf(x)

    def ppf(self, q: float) -> float:
        """Quantile function (inverse CDF)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        if self.var == 0.0:
            return self.mean
        # ``scipy.stats.norm.ppf(q, loc, scale)``'s own formula.
        return float(ndtri(q) * self.std + self.mean)

    def pr_negative(self) -> float:
        """P(X < 0) — the probability a slack Gaussian signals a timing error."""
        return self.cdf(0.0)

    def shifted(self, delta: float) -> "Gaussian":
        """Return N(mean + delta, var)."""
        return Gaussian(self.mean + delta, self.var)

    def scaled(self, factor: float) -> "Gaussian":
        """Return the distribution of ``factor * X``."""
        return Gaussian(factor * self.mean, factor * factor * self.var)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw samples."""
        if self.var == 0.0:
            return (
                self.mean if size is None else np.full(size, self.mean)
            )
        return rng.normal(self.mean, self.std, size=size)
