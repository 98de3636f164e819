from fractions import Fraction

import pytest

from misdpkit.errors import DimensionMismatch
from misdpkit.exactlp import solve_feasibility


class TestSolveFeasibility:
    def test_equalities(self):
        # x0 + 2 x1 == 3 and x1 == 1 with x >= 0: x = (1, 1)
        res = solve_feasibility([[1, 0], [2, 1]], [3, 1])
        assert res.feasible and res.x == [1, 1]

    def test_farkas_certificate(self):
        # x0 == -1 has no x0 >= 0; y = (-1) certifies y.A <= 0 < y.b
        res = solve_feasibility([[1]], [-1])
        assert not res.feasible and res.farkas == [-1]

    def test_trailing_rows_are_inequalities(self):
        # x0 == 1 and x0 <= 2 hold at x0 = 1; x0 <= 1/2 does not
        assert solve_feasibility([[1, 1]], [1, 2], n_le=1).feasible
        assert not solve_feasibility([[1, 1]], [1, Fraction(1, 2)], n_le=1).feasible

    @pytest.mark.parametrize("columns, rhs", [
        ([[1, 2, 3]], [1]),     # two entries were dropped and the answer was feasible
        ([[1]], [1, 2]),        # a short column raised IndexError
        ([[1, 0], [1]], [1, 1]),
    ])
    def test_column_length_must_match_rhs(self, columns, rhs):
        with pytest.raises(DimensionMismatch):
            solve_feasibility(columns, rhs)

    @pytest.mark.parametrize("n_le", [-1, 2])
    def test_inequality_count_must_lie_in_range(self, n_le):
        # n_le = 2 on one row added that row's slack twice; -1 was read as 0
        with pytest.raises(ValueError, match=r"n_le must lie in \[0, 1\]"):
            solve_feasibility([[1]], [1], n_le=n_le)
