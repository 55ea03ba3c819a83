"""Per-gate delay variation model.

Gate ``g``'s delay is ``d_g = mu_g + sigma_g * (sqrt(a)*G + sqrt(b)*S_g +
sqrt(c)*R_g)`` where ``G`` is a chip-global standard normal shared by all
gates, ``S_g`` the spatially correlated field value at ``g``'s placement,
``R_g`` an independent standard normal, and ``a + b + c = 1``.  ``sigma_g``
is the per-cell variability fraction times the nominal delay.

The model supports both *analytic* use (covariances between gate and path
delays, feeding SSTA) and *Monte Carlo* use (sampling whole chips, feeding
validation experiments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_nonnegative
from repro.netlist.library import TimingLibrary
from repro.netlist.netlist import Netlist
from repro.variation.spatial import SpatialCorrelationModel

__all__ = ["VariationConfig", "ProcessVariationModel", "gate_table"]

#: Cells per block (128 KB per float64 temporary) of the batched
#: moment and covariance kernels.
_BLOCK_CELLS = 1 << 14


def gate_table(gate_seqs) -> tuple[np.ndarray, np.ndarray]:
    """Gate sequences as a zero-padded ``(n, max_len)`` id table plus
    their lengths: row ``i`` holds sequence ``i`` in its first
    ``lengths[i]`` columns."""
    lengths = np.fromiter(map(len, gate_seqs), dtype=np.intp)
    width = int(lengths.max(initial=0))
    table = np.zeros((len(lengths), width), dtype=np.int32)
    table[np.arange(width) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(gate_seqs), dtype=np.int32
    )
    return table, lengths


def _groups(keys: np.ndarray) -> list[np.ndarray]:
    """Indices of ``keys`` grouped by equal key."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


@dataclass(frozen=True, slots=True)
class VariationConfig:
    """Variance decomposition and spatial-kernel parameters.

    Attributes:
        global_fraction: Share of delay variance from die-to-die variation.
        spatial_fraction: Share from the spatially correlated within-die
            component.
        random_fraction: Share from independent per-gate randomness.
        cell_size: Spatial grid cell size (placement units).
        correlation_length: Exponential kernel length.
        sigma_scale: Extra multiplier on all sigmas (1.0 = library values).
    """

    global_fraction: float = 0.35
    spatial_fraction: float = 0.40
    random_fraction: float = 0.25
    cell_size: float = 25.0
    correlation_length: float = 100.0
    sigma_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("global_fraction", "spatial_fraction", "random_fraction"):
            check_nonnegative(name, getattr(self, name))
        check_nonnegative("sigma_scale", self.sigma_scale)
        total = self.global_fraction + self.spatial_fraction + self.random_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"variance fractions must sum to 1, got {total}"
            )


class ProcessVariationModel:
    """Analytic and sampling interface to correlated gate-delay variation.

    Args:
        netlist: The placed netlist.
        library: Timing library supplying nominal delays and sigma fractions.
        config: Variance decomposition parameters.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TimingLibrary,
        config: VariationConfig | None = None,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.config = config or VariationConfig()
        self.mu = netlist.nominal_delays(library)
        self.sigma = (
            self.config.sigma_scale * netlist.sigma_fractions(library) * self.mu
        )
        self.spatial = SpatialCorrelationModel(
            netlist.placements(),
            cell_size=self.config.cell_size,
            correlation_length=self.config.correlation_length,
        )

    # ------------------------------------------------------------------ #
    # Monte Carlo interface
    # ------------------------------------------------------------------ #

    def sample_chip(self, seed_or_rng=None) -> np.ndarray:
        """Sample per-gate delays (ps) for one manufactured chip."""
        rng = as_rng(seed_or_rng)
        cfg = self.config
        g = rng.standard_normal()
        s = self.spatial.sample_field(rng)
        r = rng.standard_normal(len(self.mu))
        z = (
            np.sqrt(cfg.global_fraction) * g
            + np.sqrt(cfg.spatial_fraction) * s
            + np.sqrt(cfg.random_fraction) * r
        )
        return np.maximum(self.mu + self.sigma * z, 0.0)

    def sample_chips(self, n: int, seed_or_rng=None) -> np.ndarray:
        """Sample ``n`` chips; returns an ``(n, n_gates)`` delay array.

        One batched draw replaces the per-chip Python loop: the
        ``n * (1 + n_cells + n_gates)`` standard normals are drawn in a
        single generator call (consuming the stream in the same per-chip
        order as :meth:`sample_chip`) and mixed with vectorized
        broadcasting, which is what keeps Monte Carlo validation runs out
        of the interpreter.
        """
        rng = as_rng(seed_or_rng)
        cfg = self.config
        n_cells = self.spatial.n_cells
        n_gates = len(self.mu)
        z = rng.standard_normal((n, 1 + n_cells + n_gates))
        g = z[:, :1]
        s = self.spatial.fields_from_normals(z[:, 1 : 1 + n_cells])
        r = z[:, 1 + n_cells :]
        mix = (
            np.sqrt(cfg.global_fraction) * g
            + np.sqrt(cfg.spatial_fraction) * s
            + np.sqrt(cfg.random_fraction) * r
        )
        return np.maximum(self.mu + self.sigma * mix, 0.0)

    # ------------------------------------------------------------------ #
    # Analytic interface
    # ------------------------------------------------------------------ #

    def gate_cov(self, i: int, j: int) -> float:
        """Covariance between the delays of gates ``i`` and ``j`` (ps^2)."""
        cfg = self.config
        rho = (
            cfg.global_fraction
            + cfg.spatial_fraction * self.spatial.gate_correlation(i, j)
            + (cfg.random_fraction if i == j else 0.0)
        )
        return float(self.sigma[i] * self.sigma[j] * rho)

    def cov_matrix(self, gate_ids) -> np.ndarray:
        """Delay covariance matrix for a list of gate ids."""
        ids = np.asarray(gate_ids, dtype=int)
        cfg = self.config
        rho = cfg.global_fraction + cfg.spatial_fraction * (
            self.spatial.correlation_matrix(ids)
        )
        cov = np.outer(self.sigma[ids], self.sigma[ids]) * rho
        cov[np.diag_indices_from(cov)] = self.sigma[ids] ** 2
        return cov

    def path_delay_moments(self, gate_ids) -> tuple[float, float]:
        """Mean and variance of the summed delay of a gate sequence."""
        ids = np.asarray(gate_ids, dtype=int)
        mean = float(self.mu[ids].sum())
        var = float(self.cov_matrix(ids).sum())
        return mean, var

    def path_delay_moments_many(
        self, gate_seqs
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`path_delay_moments` of many gate sequences, bit for bit.

        Returns ``(means, variances)`` arrays.  Sequences are grouped by
        length; each group's covariance matrices are built as one
        ``(k, L, L)`` block with :meth:`cov_matrix`'s element-wise op
        sequence and summed row-wise.
        """
        table, lengths = gate_table(gate_seqs)
        means = np.empty(len(lengths))
        variances = np.empty(len(lengths))
        cfg = self.config
        cells = self.spatial.cell_index
        for rows in _groups(lengths):
            n = int(lengths[rows[0]])
            diag = np.arange(n)
            step = max(1, _BLOCK_CELLS // max(1, n * n))
            for start in range(0, len(rows), step):
                chunk = rows[start : start + step]
                ids = table[chunk, :n]
                means[chunk] = self.mu[ids].sum(axis=1)
                c = cells[ids]
                rho = cfg.global_fraction + cfg.spatial_fraction * (
                    self.spatial.cell_correlation[c[:, :, None], c[:, None, :]]
                )
                sig = self.sigma[ids]
                cov = sig[:, :, None] * sig[:, None, :] * rho
                cov[:, diag, diag] = sig**2
                variances[chunk] = cov.reshape(len(chunk), -1).sum(axis=1)
        return means, variances

    def path_cov(self, gates_a, gates_b) -> float:
        """Covariance between the summed delays of two gate sequences.

        Shared gates contribute their full delay variance; distinct gates
        contribute through the global and spatial components.
        """
        a = np.asarray(gates_a, dtype=int)
        b = np.asarray(gates_b, dtype=int)
        cfg = self.config
        cells_a = self.spatial.cell_index[a]
        cells_b = self.spatial.cell_index[b]
        rho = cfg.global_fraction + cfg.spatial_fraction * (
            self.spatial.cell_correlation[np.ix_(cells_a, cells_b)]
        )
        cov = np.outer(self.sigma[a], self.sigma[b]) * rho
        # Shared gates: add the independent random component they share.
        shared = np.equal.outer(a, b)
        cov = cov + shared * np.outer(self.sigma[a], self.sigma[b]) * (
            cfg.random_fraction
        )
        return float(cov.sum())

    def path_cov_pairs(self, pairs) -> list[float]:
        """``[self.path_cov(a, b) for a, b in pairs]``, bit for bit."""
        table, lengths = gate_table([seq for pair in pairs for seq in pair])
        firsts = np.arange(0, 2 * len(pairs), 2)
        return self.path_cov_rows(table, lengths, firsts, firsts + 1).tolist()

    def path_cov_rows(self, table, lengths, a, b) -> np.ndarray:
        """:meth:`path_cov` of gate-table rows ``a[i]`` and ``b[i]``.

        ``table``/``lengths`` come from :func:`gate_table`.  Pairs are
        grouped by ``(len(a), len(b))`` and each group is evaluated as
        ``(k, len(a), len(b))`` blocks with the element-wise operation
        sequence of :meth:`path_cov`, then summed row-wise
        (``tests/variation/test_moments_many.py`` checks that the
        row-wise sum adds each pair's cells as ``.sum()`` does).
        """
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        out = np.empty(len(a))
        cfg = self.config
        cells = self.spatial.cell_index
        len_a, len_b = lengths[a], lengths[b]
        shapes = len_a * (int(lengths.max(initial=0)) + 1) + len_b
        for members in _groups(shapes):
            na, nb = int(len_a[members[0]]), int(len_b[members[0]])
            step = max(1, _BLOCK_CELLS // max(1, na * nb))
            for start in range(0, len(members), step):
                chunk = members[start : start + step]
                a3 = table[a[chunk], :na][:, :, None]
                b3 = table[b[chunk], :nb][:, None, :]
                rho = cfg.global_fraction + cfg.spatial_fraction * (
                    self.spatial.cell_correlation[cells[a3], cells[b3]]
                )
                outer = self.sigma[a3] * self.sigma[b3]
                cov = outer * rho
                cov = cov + np.equal(a3, b3) * outer * cfg.random_fraction
                out[chunk] = cov.reshape(len(chunk), -1).sum(axis=1)
        return out

    def path_cov_matrix(self, gate_seqs) -> np.ndarray:
        """Pairwise covariance matrix of many summed path delays.

        Equivalent to filling an ``(n, n)`` matrix with :meth:`path_cov`
        over every pair, but computed as one blocked gather +
        segment-reduce: all gate sequences are concatenated, per-path
        sigma totals, per-(path, cell) sigma aggregates, and
        per-(path, gate) sigma indicators are segment-reduced from the
        flat buffer, and the three variance components become three small
        matrix products.  Diagonal entries equal each path's delay
        variance.
        """
        seqs = [np.asarray(s, dtype=int) for s in gate_seqs]
        n = len(seqs)
        if n == 0:
            return np.zeros((0, 0))
        cfg = self.config
        lengths = np.array([len(s) for s in seqs], dtype=int)
        if lengths.min() == 0:
            raise ValueError("gate sequences must be non-empty")
        gather = np.concatenate(seqs)
        segments = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        sig = self.sigma[gather]
        path_of = np.repeat(np.arange(n), lengths)
        # Chip-global component: outer product of per-path sigma totals.
        totals = np.add.reduceat(sig, segments)
        # Spatial component: aggregate sigmas onto the correlation grid.
        cells = self.spatial.cell_index[gather]
        per_cell = np.zeros((n, self.spatial.n_cells))
        np.add.at(per_cell, (path_of, cells), sig)
        spatial = per_cell @ self.spatial.cell_correlation @ per_cell.T
        # Independent component: only gates shared between paths survive.
        per_gate = np.zeros((n, len(self.sigma)))
        np.add.at(per_gate, (path_of, gather), sig)
        return (
            cfg.global_fraction * np.outer(totals, totals)
            + cfg.spatial_fraction * spatial
            + cfg.random_fraction * (per_gate @ per_gate.T)
        )
