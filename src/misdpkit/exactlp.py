"""Exact rational LP feasibility via a textbook phase-1 primal simplex.

All arithmetic is over `fractions.Fraction` (arbitrary-precision integers),
so feasibility answers and Farkas certificates are exact.  Bland's rule
guarantees termination.  Intended for the small membership systems of the
discrete-PSD polytopes (a few hundred columns); no attempt at efficiency.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass
class FeasResult:
    feasible: bool
    # column weights on success (length = number of structural columns)
    x: list | None
    # Farkas certificate on infeasibility: y with y.A_j <= 0 for every
    # structural column j, y.slack-columns <= 0, and y.b > 0
    farkas: list | None


def solve_feasibility(columns, rhs, n_le=0):
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
