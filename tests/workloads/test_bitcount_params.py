"""Parity of the vectorized ``bitcount`` dataset draw with its frozen
per-value loop (``tests/_reference.py``)."""

from unittest import mock

import numpy as np
import pytest

from repro._util import as_rng
from repro.workloads import SCALES, automotive
from repro.workloads.base import Dataset
from tests import _reference


def _draw(module, params_fn, dataset):
    """``params_fn(dataset)`` plus the next draw of the generator it used."""
    made = []

    def capture(seed):
        rng = as_rng(seed)
        made.append(rng)
        return rng

    with mock.patch.object(module, "as_rng", capture):
        params = params_fn(dataset)
    (rng,) = made
    return params, int(rng.integers(1 << 62))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", [0, 1, 7, 11, 97, 12345])
def test_vectorized_draw_matches_per_value_loop(scale, seed):
    dataset = Dataset(scale=scale, seed=seed)
    fast, fast_next = _draw(automotive, automotive._bitcount_params, dataset)
    slow, slow_next = _draw(_reference, _reference.bitcount_params, dataset)
    assert fast["n"] == slow["n"]
    assert fast["values"].dtype == slow["values"].dtype == np.int64
    np.testing.assert_array_equal(fast["values"], slow["values"])
    # The generator is left in the same state.
    assert fast_next == slow_next
