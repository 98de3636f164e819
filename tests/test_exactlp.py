"""The int-tableau simplex against the Fraction simplex it replaced.

`reference_solve_feasibility` is the phase-1 simplex with Bland's rule over
`Fraction` as `misdpkit.exactlp` had it, kept verbatim as the reference:
the int tableau must pick the same pivots and so return the same weights and
certificates, of the same types.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit.errors import DimensionMismatch
from misdpkit.exactlp import FeasResult, solve_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)


def reference_solve_feasibility(columns, rhs, n_le=0):
    """Decide existence of x >= 0 with  A x (=|<=) b.

    `columns` is a list of column vectors (each a list of Fractions of length
    m).  The first (m - n_le) rows are equalities; the last `n_le` rows are
    <= rows, handled by appended slack columns.  Returns a FeasResult.  A
    column whose length is not m raises DimensionMismatch, and an `n_le`
    outside 0..m raises ValueError.
    """
    m = len(rhs)
    for j, col in enumerate(columns):
        if len(col) != m:
            raise DimensionMismatch(f"column {j} has {len(col)} entries, rhs has {m}")
    if not 0 <= n_le <= m:
        raise ValueError(f"n_le must lie in [0, {m}], got {n_le}")
    b = [Fraction(v) for v in rhs]
    cols = [[Fraction(v) for v in col] for col in columns]
    n_struct = len(cols)
    # slack columns for the trailing <= rows
    for i in range(m - n_le, m):
        e = [ZERO] * m
        e[i] = ONE
        cols.append(e)
    n = len(cols)

    # sign-normalize so b >= 0, then add one artificial per row
    row_sign = [ONE] * m
    for i in range(m):
        if b[i] < 0:
            row_sign[i] = -ONE
            b[i] = -b[i]
            for col in cols:
                col[i] = -col[i]

    # tableau T: m rows of [A | I_art | b]; objective = sum of artificials
    width = n + m + 1
    t = [[ZERO] * width for _ in range(m)]
    for j, col in enumerate(cols):
        for i in range(m):
            t[i][j] = col[i]
    for i in range(m):
        t[i][n + i] = ONE
        t[i][width - 1] = b[i]
    basis = [n + i for i in range(m)]

    # reduced-cost row for min sum(artificials): z_j - c_j = sum over rows
    obj = [ZERO] * width
    for i in range(m):
        for j in range(width):
            obj[j] += t[i][j]
    for j in range(n, n + m):
        obj[j] -= ONE

    while True:
        enter = -1
        for j in range(n + m):  # Bland: smallest eligible index
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            a = t[i][enter]
            if a > 0:
                ratio = t[i][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            break  # unbounded cannot happen in phase 1, defensive
        piv = t[leave][enter]
        trow = t[leave]
        for j in range(width):
            trow[j] /= piv
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                row = t[i]
                for j in range(width):
                    row[j] -= f * trow[j]
        if obj[enter] != 0:
            f = obj[enter]
            for j in range(width):
                obj[j] -= f * trow[j]
        basis[leave] = enter

    opt = obj[width - 1]
    if opt == 0:
        x = [ZERO] * n_struct
        for i, bv in enumerate(basis):
            if bv < n_struct:
                x[bv] = t[i][width - 1]
        return FeasResult(True, x, None)

    # infeasible: obj[n+i] holds z_j - c_j of artificial i, i.e. y_i - 1;
    # undo the row sign normalization to certify the original system
    y = [row_sign[i] * (obj[n + i] + ONE) for i in range(m)]
    return FeasResult(False, None, y)


def _check_certificate(columns, rhs, n_le, res):
    """Check a FeasResult by itself: A x (=|<=) b with x >= 0, or a Farkas
    vector y with y.A_j <= 0 for every column, y_i <= 0 on the <= rows and
    y.b > 0."""
    m = len(rhs)
    if res.feasible:
        lhs = [sum(Fraction(col[i]) * w for col, w in zip(columns, res.x)) for i in range(m)]
        return (all(w >= 0 for w in res.x)
                and all(lhs[i] == rhs[i] if i < m - n_le else lhs[i] <= rhs[i] for i in range(m)))
    y = res.farkas
    return (all(sum(Fraction(c) * v for c, v in zip(col, y)) <= 0 for col in columns)
            and all(y[i] <= 0 for i in range(m - n_le, m))
            and sum(Fraction(b) * v for b, v in zip(rhs, y)) > 0)


@st.composite
def _systems(draw):
    """Small systems whose entries repeat, so that ratio-test ties, zero and
    degenerate rows and negative right-hand sides come up often."""
    m = draw(st.integers(0, 5))
    entry = st.sampled_from([0, 0, 0, 1, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)])
    columns = draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=8))
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return columns, rhs, draw(st.integers(0, m))


def _typed(values):
    return None if values is None else [(type(v), v) for v in values]


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

    @settings(max_examples=1500, deadline=None)
    @given(_systems())
    def test_same_results_as_the_fraction_simplex(self, system):
        columns, rhs, n_le = system
        got = solve_feasibility(columns, rhs, n_le)
        ref = reference_solve_feasibility(columns, rhs, n_le)
        assert isinstance(got, FeasResult) and got.feasible == ref.feasible
        assert _typed(got.x) == _typed(ref.x) and _typed(got.farkas) == _typed(ref.farkas)
        assert _check_certificate(columns, rhs, n_le, got)

    def test_ties_go_to_the_smaller_basic_index(self):
        # both rows tie on the ratio 1; Bland's rule leaves the row whose
        # artificial has the smaller index, so x0 enters on row 0
        columns, rhs = [[1, 1], [1, 0]], [1, 1]
        got = solve_feasibility(columns, rhs)
        assert got == reference_solve_feasibility(columns, rhs)
        assert got.feasible and got.x == [1, 0]

    def test_denominators_of_columns_and_rhs_mix(self):
        # x0 / 2 + x1 / 3 == 5 / 6 and x1 == 1: x0 = 1
        columns, rhs = [[Fraction(1, 2), 0], [Fraction(1, 3), 1]], [Fraction(5, 6), 1]
        got = solve_feasibility(columns, rhs)
        assert got.x == [1, 1] and all(type(v) is Fraction for v in got.x)
        assert got == reference_solve_feasibility(columns, rhs)
