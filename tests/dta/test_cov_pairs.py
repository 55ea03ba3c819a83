"""Exact-float parity of the blocked cross-endpoint covariance fill.

``StageDTSAnalyzer._cov_block`` fills all of an AP set's missing
covariance cells in one ``ProcessVariationModel.path_cov_rows`` call.
Each value must be bitwise the scalar ``path_cov`` of the same canonical
``(low id, high id)`` pair, and the cache, the persisted registry and
the ``cov_cells_computed`` / ``cov_cache_hits`` counters must evolve
exactly as under the per-pair fill.
"""

import json

import numpy as np
import pytest

from repro.dta import StageDTSAnalyzer
from repro.kernels import kernel_stats
from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline

CONFIG = PipelineConfig(
    data_width=8, mult_width=4, ctrl_regs=8, cloud_gates=40, seed=1
)


@pytest.fixture(scope="module")
def pipe():
    return generate_pipeline(CONFIG)


def _analyzer(pipe):
    return StageDTSAnalyzer(
        pipe.netlist, TimingLibrary(), paths_per_endpoint=6
    )


@pytest.fixture(scope="module")
def analyzer(pipe):
    return _analyzer(pipe)


def test_blocked_fill_equals_path_cov(analyzer):
    registered = analyzer._registered
    pairs = [
        (a.gates, b.gates)
        for i, a in enumerate(registered)
        for b in registered[i + 1 :]
        if a.sink != b.sink
    ]
    # Single-gate sequences, a path against itself, and a gate shared
    # with a longer path.
    longest = max(registered, key=lambda p: len(p.gates)).gates
    pairs += [
        ((longest[0],), (longest[0],)),
        ((longest[0],), (longest[-1],)),
        ((longest[1],), longest),
        (longest, longest),
    ]
    assert any(set(a) & set(b) for a, b in pairs)
    model = analyzer.variation
    blocked = model.path_cov_pairs(pairs)
    assert len(blocked) == len(pairs)
    reference = [model.path_cov(a, b) for a, b in pairs]
    assert all(type(v) is float for v in blocked)
    assert blocked == reference
    assert model.path_cov_pairs([]) == []


def _blocked_cov(self, pids):
    """An AP set's covariance matrix from the blocked fill, each path's
    variance on the diagonal."""
    (slot,), cov = self._cov_block([pids])
    cov = cov[slot[:, None], slot]
    np.fill_diagonal(cov, [self._path_var[p] for p in pids])
    return cov


def _per_pair_cov(self, pids):
    """The per-cell fill the blocked one replaced (the reference)."""
    n = len(pids)
    stats = kernel_stats()
    cov = np.zeros((n, n))
    for i in range(n):
        cov[i, i] = self._path_var[pids[i]]
        for j in range(i + 1, n):
            a, b = pids[i], pids[j]
            key = (a, b) if a < b else (b, a)
            value = self._cov_cache.get(key)
            if value is None:
                value = self.variation.path_cov(
                    self._registered[key[0]].gates,
                    self._registered[key[1]].gates,
                )
                self._cov_cache[key] = value
                stats.cov_cells_computed += 1
            else:
                stats.cov_cache_hits += 1
            cov[i, j] = cov[j, i] = value
    return cov


def _run(analyzer, cov_for, ap_sets):
    before = kernel_stats().snapshot()
    matrices = [cov_for(analyzer, pids) for pids in ap_sets]
    delta = kernel_stats().delta(before)
    return (
        matrices,
        (delta.cov_cells_computed, delta.cov_cache_hits),
        json.dumps(analyzer.registry_doc()),
        list(analyzer._cov_cache),
    )


def test_ap_set_sequence_matches_per_pair_fill(pipe):
    n = len(_analyzer(pipe)._registered)
    rng = np.random.default_rng(7)
    ap_sets = [
        tuple(int(p) for p in rng.choice(n, size=size, replace=False))
        for size in (1, 2, 5, 9, 17, 9, 30)
    ]
    # Repeated ids inside one AP set, and sets already fully cached.
    ap_sets += [
        (ap_sets[2][0], ap_sets[3][1], ap_sets[2][0]),
        ap_sets[4],
        (ap_sets[6][0],) * 3 + ap_sets[6][1:4],
    ]
    got = _run(_analyzer(pipe), _blocked_cov, ap_sets)
    want = _run(_analyzer(pipe), _per_pair_cov, ap_sets)
    for a, b in zip(got[0], want[0]):
        assert np.array_equal(a, b)
    assert got[1] == want[1]
    assert got[1][0] > 0 and got[1][1] > 0
    assert got[2] == want[2]
    assert got[3] == want[3]
