"""Exact-float parity of the batched path-moment and pair-covariance kernels.

``path_delay_moments_many`` builds each length group's covariance
matrices as one ``(k, L, L)`` block and ``path_cov_pairs`` /
``path_cov_rows`` sum every pair's ``(k, len_a, len_b)`` block row-wise
(``reshape(k, -1).sum(axis=1)``).  Both must equal the scalar
``path_delay_moments`` / ``path_cov`` they replace bit for bit, over
every length from 1 to 40 and over random sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import PipelineConfig, TimingLibrary, generate_pipeline
from repro.variation import ProcessVariationModel
from repro.variation.process import gate_table

LENGTHS = range(1, 41)


@pytest.fixture(scope="module")
def model():
    pipe = generate_pipeline(
        PipelineConfig(
            data_width=8, mult_width=4, ctrl_regs=8, cloud_gates=40, seed=3
        )
    )
    return ProcessVariationModel(pipe.netlist, TimingLibrary())


def _seqs(model, rng, lengths, repeats=1):
    n_gates = len(model.mu)
    return [
        tuple(int(g) for g in rng.integers(0, n_gates, n))
        for n in lengths
        for _ in range(repeats)
    ]


def test_moments_many_dense_length_grid(model):
    rng = np.random.default_rng(1)
    seqs = _seqs(model, rng, LENGTHS, repeats=3)
    # Repeated gates inside one sequence.
    seqs += [(seqs[5][0],) * 4, seqs[40] + seqs[40][:3]]
    means, variances = model.path_delay_moments_many(seqs)
    assert means.shape == variances.shape == (len(seqs),)
    for seq, mean, var in zip(seqs, means.tolist(), variances.tolist()):
        assert (mean, var) == model.path_delay_moments(seq)


def test_cov_pairs_dense_length_grid(model):
    rng = np.random.default_rng(2)
    pairs = [
        (_seqs(model, rng, [la])[0], _seqs(model, rng, [lb])[0])
        for la in LENGTHS
        for lb in LENGTHS
    ]
    # A path with itself and sequences sharing gates.
    pairs += [(a, a) for a, _ in pairs[::97]]
    pairs += [(a, a[1:] + b) for a, b in pairs[::131] if len(a) > 1]
    got = model.path_cov_pairs(pairs)
    assert all(type(v) is float for v in got)
    assert got == [model.path_cov(a, b) for a, b in pairs]


def test_cov_rows_from_a_gate_table(model):
    rng = np.random.default_rng(3)
    seqs = _seqs(model, rng, rng.integers(1, 30, size=25))
    table, lengths = gate_table(seqs)
    a = rng.integers(0, len(seqs), size=60)
    b = rng.integers(0, len(seqs), size=60)
    got = model.path_cov_rows(table, lengths, a, b)
    want = [model.path_cov(seqs[i], seqs[j]) for i, j in zip(a, b)]
    assert got.tolist() == want


def test_empty_inputs(model):
    means, variances = model.path_delay_moments_many([])
    assert means.shape == variances.shape == (0,)
    assert model.path_cov_pairs([]) == []


sequences = st.lists(st.integers(0, 10_000), min_size=1, max_size=45)


@settings(max_examples=60, deadline=None)
@given(st.lists(sequences, min_size=1, max_size=8), st.data())
def test_property_batched_equals_scalar(model, raw, data):
    n_gates = len(model.mu)
    seqs = [tuple(g % n_gates for g in seq) for seq in raw]
    means, variances = model.path_delay_moments_many(seqs)
    for seq, mean, var in zip(seqs, means.tolist(), variances.tolist()):
        assert (mean, var) == model.path_delay_moments(seq)
    picks = st.integers(0, len(seqs) - 1)
    pairs = [
        (seqs[data.draw(picks)], seqs[data.draw(picks)])
        for _ in range(data.draw(st.integers(1, 8)))
    ]
    assert model.path_cov_pairs(pairs) == [
        model.path_cov(a, b) for a, b in pairs
    ]
