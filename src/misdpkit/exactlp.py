"""Exact rational LP feasibility via a textbook phase-1 primal simplex.

The tableau holds Python ints: the system is scaled to integers by the lcm
of its denominators, and every pivot is `linalg.pivot`'s fraction-free update
(Edmonds 1967; the "Q-pivot" of Azulay & Pique, CP 1998), so each row is the
current basis solution times the last pivot d, which stays positive.  No
Fraction is made until the answer, so feasibility answers and Farkas
certificates are exact.  Bland's rule, which reads only signs, and a ratio
test by cross-multiplication pick the pivots a Fraction tableau picks and
guarantee termination.  Intended for the small membership systems of the
discrete-PSD polytopes (a few hundred columns).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .linalg import pivot


@dataclass
class FeasResult:
    feasible: bool
    # column weights on success (length = number of structural columns)
    x: list | None
    # Farkas certificate on infeasibility: y with y.A_j <= 0 for every
    # structural column j, y.slack-columns <= 0, and y.b > 0
    farkas: list | None


def _rational(v):
    return v if type(v) is int else Fraction(v)


def solve_feasibility(columns, rhs, n_le=0):
    """Decide existence of x >= 0 with  A x (=|<=) b.

    `columns` is a list of column vectors (each a list of ints or Fractions
    of length m).  The first (m - n_le) rows are equalities; the last `n_le`
    rows are <= rows, handled by appended slack columns.  Returns a FeasResult
    whose weights and certificate are Fractions.  A column whose length is
    not m raises DimensionMismatch, and an `n_le` outside 0..m raises
    ValueError.
    """
    m = len(rhs)
    for j, col in enumerate(columns):
        if len(col) != m:
            raise DimensionMismatch(f"column {j} has {len(col)} entries, rhs has {m}")
    if not 0 <= n_le <= m:
        raise ValueError(f"n_le must lie in [0, {m}], got {n_le}")
    b = [_rational(v) for v in rhs]
    cols = [[_rational(v) for v in col] for col in columns]
    n_struct = len(cols)
    # slack columns for the trailing <= rows
    cols += [[int(i == k) for i in range(m)] for k in range(m - n_le, m)]
    n = len(cols)
    den = math.lcm(*(v.denominator for v in b), *(v.denominator for col in cols for v in col))

    # tableau [den A | I_art | den b], each row signed so that b >= 0; the last
    # row is the reduced-cost row of min sum(artificials): z_j - c_j, the row sum
    # less 1 on the artificials.  The initial basis, the artificials, is I.
    row_sign = [-1 if v < 0 else 1 for v in b]
    t = []
    for i, s in enumerate(row_sign):
        row = [s * v.numerator * (den // v.denominator) for v in (*(col[i] for col in cols), b[i])]
        t.append(row[:-1] + [int(i == k) for k in range(m)] + row[-1:])
    obj = [sum(col) for col in zip(*t)] if t else [0] * (n + 1)
    for i in range(m):
        obj[n + i] -= 1
    t.append(obj)
    basis = [n + i for i in range(m)]

    d = 1
    while True:
        # Bland: smallest eligible index
        enter = next((j for j in range(n + m) if obj[j] > 0), -1)
        if enter < 0:
            break
        # ratio test: t[i][-1] / a against the best row's, cross-multiplied
        leave = -1
        for i in range(m):
            a = t[i][enter]
            if a > 0:
                if leave >= 0:
                    here, best = t[i][-1] * t[leave][enter], t[leave][-1] * a
                if leave < 0 or here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            break  # unbounded cannot happen in phase 1, defensive
        d = pivot(t, leave, enter, d)
        obj = t[m]
        basis[leave] = enter

    if obj[-1] == 0:
        x = [Fraction(0)] * n_struct
        for i, bv in enumerate(basis):
            if bv < n_struct:
                x[bv] = Fraction(t[i][-1], d)
        return FeasResult(True, x, None)

    # infeasible: obj[n+i] / d holds z_j - c_j of artificial i, i.e. y_i - 1;
    # undo the row sign normalization to certify the original system
    y = [s * (Fraction(obj[n + i], d) + 1) for i, s in enumerate(row_sign)]
    return FeasResult(False, None, y)
