"""Tests for the SVG chart's subsample grid."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefopt.svgchart import MAX_POINTS, _subsample


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.integers(MAX_POINTS + 1, 10**7))
def test_a_long_series_keeps_max_points_strictly_increasing_indices_end_to_end(n):
    # A zero-stride view: _subsample reads only the length.
    idx = _subsample(np.broadcast_to(0.0, (n,)))
    assert idx.shape == (MAX_POINTS,)
    assert idx[0] == 0 and idx[-1] == n - 1
    assert np.all(np.diff(idx) > 0)


def test_a_short_series_keeps_every_index():
    assert np.array_equal(_subsample(np.zeros(MAX_POINTS)), np.arange(MAX_POINTS))
