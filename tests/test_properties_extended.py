"""Property-based tests for row packing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.placement import pack_rows


@given(widths=st.lists(st.floats(min_value=0.01, max_value=1.0),
                       min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_pack_rows_places_everything_once(widths):
    items = [(f"c{i}", w) for i, w in enumerate(widths)]
    placement = pack_rows(items, row_width=1.0, row_height=1.0)
    placed = [name for row in placement.rows for name, _ in row]
    assert sorted(placed) == sorted(name for name, _ in items)


@given(widths=st.lists(st.floats(min_value=0.01, max_value=1.0),
                       min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_pack_rows_respects_capacity(widths):
    items = [(f"c{i}", w) for i, w in enumerate(widths)]
    placement = pack_rows(items, row_width=1.0, row_height=1.0)
    for row in placement.rows:
        assert sum(w for _, w in row) <= 1.0 + 1e-12


@given(widths=st.lists(st.floats(min_value=0.01, max_value=1.0),
                       min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_pack_rows_at_most_optimal_times_two(widths):
    """FFD is within 2x of the area lower bound (loose but universal)."""
    items = [(f"c{i}", w) for i, w in enumerate(widths)]
    placement = pack_rows(items, row_width=1.0, row_height=1.0)
    lower_bound = max(1, int(np.ceil(sum(widths) - 1e-12)))
    assert placement.n_rows <= 2 * lower_bound
