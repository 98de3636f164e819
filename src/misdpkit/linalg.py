"""Dense symmetric-matrix numerics: eigenvalues, PSD tests, numerical rank,
the exact PSD test and rank of integer matrices, and the fraction-free pivot
that every exact elimination of the package shares.

`SymMat` is the universal carrier for every symmetric matrix in the package.
Integer-valued matrices keep an exact int64 shadow copy so that discrete
checks (binarity, sign patterns, triangle inequalities) never go through
floating point.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DimensionMismatch, NonConvergence, ParseError
from ._kernels import JACOBI_OFF, JACOBI_SWEEPS, jacobi_eigh

class SymMat:
    """Immutable dense real symmetric matrix.

    The full array is materialized by mirroring the lower triangle, so reading
    (i, j) and (j, i) always returns the identical stored value.  When every
    entry is integer-valued an exact ``ints`` shadow is kept alongside the
    float storage.
    """

    __slots__ = ("n", "_a", "ints")

    def __init__(self, data, check_symmetry=True):
        a = np.array(data, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if check_symmetry and not np.array_equal(a, a.T):
            raise DimensionMismatch("matrix is not exactly symmetric")
        lower = np.tril(a)
        a = lower + np.tril(a, -1).T
        a.setflags(write=False)
        self.n = a.shape[0]
        self._a = a
        self.ints = None
        r = np.rint(a)
        if np.array_equal(r, a) and np.all(np.abs(a) < 2**53):
            self.ints = r.astype(np.int64)
            self.ints.setflags(write=False)

    @classmethod
    def _of_ints(cls, ints):
        """A SymMat of a symmetric int64 array that the package built itself,
        kept as the `ints` shadow: no float round trip and no checks."""
        m = cls.__new__(cls)
        m.n, m._a, m.ints = ints.shape[0], ints.astype(np.float64), ints
        m._a.setflags(write=False)
        ints.setflags(write=False)
        return m

    # -- constructors -------------------------------------------------------
    @staticmethod
    def identity(n):
        return SymMat(np.eye(n, dtype=np.int64))

    @staticmethod
    def zeros(n):
        return SymMat(np.zeros((n, n), dtype=np.int64))

    @staticmethod
    def ones(n):
        return SymMat(np.ones((n, n), dtype=np.int64))

    # -- access --------------------------------------------------------------
    def __getitem__(self, key):
        return self._a[key]

    @property
    def array(self):
        """Read-only view of the float storage."""
        return self._a

    def diag(self):
        return np.diag(self._a).copy()

    def inf_norm(self):
        return _inf_norm(self._a)

    def values_in(self, allowed) -> bool:
        """True when every entry lies in the given set of integers."""
        if self.ints is None:
            return False
        return set(np.unique(self.ints).tolist()) <= set(allowed)

    def __eq__(self, other):
        if not isinstance(other, SymMat):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._a, other._a)

    def __hash__(self):
        return hash((self.n, self._a.tobytes()))

    def __repr__(self):
        return f"SymMat(n={self.n}, integral={self.ints is not None})"


@dataclass(frozen=True)
class EigenResult:
    """Spectral decomposition A = V diag(w) V^T, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_array(a):
    return a.array if isinstance(a, SymMat) else np.asarray(a, dtype=np.float64)


def _jacobi(arr):
    w, v, sweeps = jacobi_eigh(arr, JACOBI_OFF, JACOBI_SWEEPS)
    if sweeps < 0:
        raise NonConvergence(
            f"Jacobi did not converge in {JACOBI_SWEEPS} sweeps, or the matrix norm "
            f"is not finite (n={arr.shape[0]})"
        )
    return w, v


def eigen_values(a):
    """Eigenvalues (descending) of a symmetric matrix or SymMat, no vectors."""
    return _jacobi(_as_array(a))[0]


def eigensym(a):
    """Full spectral decomposition by cyclic Jacobi rotations.

    Raises NonConvergence when the Frobenius norm is not finite, or when the
    sweep budget is exhausted before the off-diagonal Frobenius norm drops
    below the threshold.
    """
    arr = _as_array(a)
    if arr.shape[0] < 1:
        raise DimensionMismatch("eigensym requires n >= 1")
    return EigenResult(*_jacobi(arr))


def _inf_norm(arr):
    if arr.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(arr), axis=1)))


def is_psd(a):
    """True iff lambda_min(a) >= -tol, tol = psd_scale * max(1, ||a||_inf)."""
    arr = _as_array(a)
    w = eigen_values(arr)
    return bool(w.size == 0 or w[-1] >= -config.DEFAULT.psd_tol(_inf_norm(arr)))


def num_rank(a):
    """Numerical rank: count of eigenvalues with |lambda| > tol.

    tol is rank_scale * max(1, max|lambda|).
    """
    w = eigen_values(a)
    tol = config.DEFAULT.rank_tol(float(np.max(np.abs(w))) if w.size else 0.0)
    return int(np.sum(np.abs(w) > tol))


# -- exact kernels on integer data --------------------------------------------
# Fraction-free (Edmonds 1967, Bareiss 1968) elimination on lists of Python-int
# lists.  After pivoting on a set S, entry (i, j) is the minor on rows S+{i},
# columns S+{j}, so each update divides exactly by the previous pivot.

def pivot(rows, r, c, prev):
    """Fraction-free pivot on rows[r][c] = p: every other row i becomes
    (p * rows[i] - rows[i][c] * rows[r]) // prev, an exact division when prev
    is the previous pivot (1 at the start).  Returns p, the next prev."""
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
    return p


def eliminate(rows, width):
    """Fraction-free Gauss-Jordan reduction of int `rows` in place over their
    first `width` columns, pivoting on the first nonzero entry of each column;
    returns (pivot columns, d).  Row k < rank is then d at pivots[k] and 0 in
    the other pivot columns, later rows are 0 in the first `width` columns, and
    every row is d times the row a reduction over Fractions gives."""
    pivots, d = [], 1
    for c in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is not None:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            d = pivot(rows, rank, c, d)
            pivots.append(c)
    return pivots, d


def is_psd_exact(rows):
    """Exact PSD test of a symmetric integer matrix, given as a square list of
    Python-int lists; only the upper triangle is read, and `rows` is consumed.
    The entries may also lie in another ordered ring whose `//` is exact
    division, as `cosring.CosInt` does for Z[2cos(2pi/n)], since the
    elimination is fraction-free.

    Symmetric elimination with diagonal pivots: a negative pivot rejects, and
    so does a zero pivot whose remaining row has a nonzero entry; a zero pivot
    with a zero row drops its index.  The update is `pivot`'s, kept to the
    upper triangle below the pivot row.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        top = rows[k]
        p = top[k]
        if p < 0:
            return False
        if p == 0:
            if any(top[k + 1:]):
                return False
            continue
        for i in range(k + 1, n):
            f = top[i]
            row = rows[i]
            row[i:] = [(p * x - f * y) // prev for x, y in zip(row[i:], top[i:])]
        prev = p
    return True


def rank_exact(rows):
    """Exact rank of an integer matrix given as a list of Python-int lists; consumes `rows`."""
    return len(eliminate(rows, len(rows[0]) if rows else 0)[0])


# -- dense matrix text format ------------------------------------------------
# First line: n.  Then n lines of n whitespace-separated numbers.

def dumps_matrix(a) -> str:
    arr = _as_array(a)
    ints = a.ints if isinstance(a, SymMat) else None
    lines = [str(arr.shape[0])]
    for i in range(arr.shape[0]):
        if ints is not None:
            lines.append(" ".join(str(int(x)) for x in ints[i]))
        else:
            lines.append(" ".join(f"{x:.17g}" for x in arr[i]))
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> SymMat:
    """Parse the dense text format; symmetry is validated with zero tolerance."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file", line=1)
    try:
        n = int(lines[0].split()[0])
    except ValueError:
        raise ParseError(f"expected matrix order, got {lines[0]!r}", line=1)
    if n < 0:
        raise ParseError(f"matrix order {n} is negative", line=1)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}", line=len(lines))
    rows = []
    for i in range(n):
        parts = lines[1 + i].split()
        if len(parts) != n:
            raise ParseError(f"row has {len(parts)} entries, expected {n}", line=i + 2)
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(str(exc), line=i + 2)
        bad = next((p for p, x in zip(parts, row) if not math.isfinite(x)), None)
        if bad is not None:
            raise ParseError(f"entry {bad!r} is not a finite number", line=i + 2)
        rows.append(row)
    a = np.array(rows, dtype=np.float64) if n else np.zeros((0, 0))
    if not np.array_equal(a, a.T):
        raise ParseError("matrix is not symmetric (validated with zero tolerance)")
    return SymMat(a, check_symmetry=False)


def load_matrix(path) -> SymMat:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())
