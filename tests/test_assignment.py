"""`stitch.min_cost_assignment` against scipy's `linear_sum_assignment`,
the implementation whose tie rules it ports, as an in-test oracle: the
(rows, cols) must be equal, not only the total cost."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mvtrack.stitch import UNAVAILABLE_COST, min_cost_assignment

# A small integer grid makes ties common; UNAVAILABLE_COST is what NaN
# becomes in `assign`; +inf (rare) makes some matrices infeasible.
ENTRIES = st.one_of(st.integers(0, 3).map(float), st.just(UNAVAILABLE_COST),
                    st.floats(0.0, 10.0))
SHAPE = st.integers(0, 12)


@st.composite
def cost_matrices(draw):
    rows, cols = draw(SHAPE), draw(SHAPE)
    if draw(st.integers(0, 4)) == 0:  # all one value
        value = draw(ENTRIES)
        return rows, cols, [[value] * cols for _ in range(rows)]
    entries = st.one_of(ENTRIES, st.just(math.inf)) if draw(st.integers(0, 9)) == 0 \
        else ENTRIES
    row = st.lists(entries, min_size=cols, max_size=cols)
    return rows, cols, draw(st.lists(row, min_size=rows, max_size=rows))


def oracle(rows, cols, cost):
    """scipy's (rows, cols) as lists, or ValueError's type."""
    try:
        r, c = linear_sum_assignment(np.array(cost, dtype=float).reshape(rows, cols))
    except ValueError:
        return ValueError
    return r.tolist(), c.tolist()


def solve(cost):
    try:
        return min_cost_assignment(cost)
    except ValueError:
        return ValueError


class TestMatchesLinearSumAssignment:
    @settings(max_examples=600, deadline=None)
    @given(cost_matrices())
    @example((0, 4, []))
    @example((4, 0, [[], [], [], []]))
    @example((1, 5, [[2.0, 1.0, 1.0, 3.0, 1.0]]))
    @example((5, 1, [[2.0], [1.0], [1.0], [3.0], [1.0]]))
    @example((3, 3, [[1.0] * 3] * 3))
    @example((4, 6, [[UNAVAILABLE_COST] * 6] * 4))
    @example((6, 4, [[0.0, 1.0, 1.0, 0.0]] * 6))
    def test_same_rows_and_cols(self, case):
        rows, cols, cost = case
        assert solve(cost) == oracle(rows, cols, cost)


class TestInvalidInput:
    def test_row_of_inf_is_infeasible(self):
        cost = [[1.0, 2.0], [math.inf, math.inf]]
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment(cost)
        assert oracle(2, 2, cost) is ValueError

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_nan_or_minus_inf_entry_raises(self, bad):
        cost = [[1.0, 2.0], [3.0, bad]]
        with pytest.raises(ValueError, match="NaN or -inf"):
            min_cost_assignment(cost)
        assert oracle(2, 2, cost) is ValueError
