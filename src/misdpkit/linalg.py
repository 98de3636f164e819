"""Dense symmetric-matrix numerics: eigenvalues, PSD tests, numerical rank.

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
from ._kernels import jacobi_eigh

# entry character sets
BINARY = "binary"        # {0,1}
PM_ONE = "pm1"           # {+1,-1}
TERNARY = "ternary"      # {0,+1,-1}
GENERAL = "general"


class SymMat:
    """Immutable dense real symmetric matrix.

    The full array is materialized by mirroring the lower triangle, so reading
    (i, j) and (j, i) always returns the identical stored value.  When every
    entry is integer-valued an exact ``ints`` shadow is kept alongside the
    float storage.
    """

    __slots__ = ("n", "_a", "ints", "charset")

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
        ints = None
        if a.size == 0:
            ints = np.zeros((0, 0), dtype=np.int64)
        else:
            r = np.rint(a)
            if np.array_equal(r, a) and np.all(np.abs(a) < 2**53):
                ints = r.astype(np.int64)
                ints.setflags(write=False)
        self.ints = ints
        self.charset = _charset(ints)

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
        return f"SymMat(n={self.n}, charset={self.charset})"


def _charset(ints):
    if ints is None:
        return GENERAL
    vals = set(np.unique(ints).tolist())
    if vals <= {0, 1}:
        return BINARY
    if vals <= {-1, 1}:
        return PM_ONE
    if vals <= {-1, 0, 1}:
        return TERNARY
    return GENERAL


@dataclass(frozen=True)
class EigenResult:
    """Spectral decomposition A = V diag(w) V^T, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float
    sweeps: int


def _as_array(a):
    return a.array if isinstance(a, SymMat) else np.asarray(a, dtype=np.float64)


def _jacobi(arr, tols):
    w, v, sweeps = jacobi_eigh(arr, tols.jacobi_off, tols.jacobi_sweeps)
    if sweeps < 0:
        raise NonConvergence(
            f"Jacobi did not converge in {tols.jacobi_sweeps} sweeps, or the matrix norm "
            f"is not finite (n={arr.shape[0]})"
        )
    return w, v, sweeps


def eigen_values(a, tols=None):
    """Eigenvalues (descending) of a symmetric matrix or SymMat, no vectors."""
    return _jacobi(_as_array(a), tols or config.DEFAULT)[0]


def eigensym(a, tols=None):
    """Full spectral decomposition by cyclic Jacobi rotations.

    Raises NonConvergence when the Frobenius norm is not finite, or when the
    sweep budget is exhausted before the off-diagonal Frobenius norm drops
    below the threshold.
    """
    arr = _as_array(a)
    if arr.shape[0] < 1:
        raise DimensionMismatch("eigensym requires n >= 1")
    w, v, sweeps = _jacobi(arr, tols or config.DEFAULT)
    residual = float(np.max(np.abs(arr @ v - v * w))) if arr.size else 0.0
    return EigenResult(w, v, residual, sweeps)


def _inf_norm(arr):
    if arr.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(arr), axis=1)))


def is_psd(a, tol=None, tols=None):
    """True iff lambda_min(a) >= -tol.

    Default tol is psd_scale * max(1, ||a||_inf).
    """
    tols = tols or config.DEFAULT
    arr = _as_array(a)
    if tol is None:
        tol = tols.psd_tol(_inf_norm(arr))
    w = eigen_values(arr, tols)
    return bool(w.size == 0 or w[-1] >= -tol)


def num_rank(a, tol=None, tols=None):
    """Numerical rank: count of eigenvalues with |lambda| > tol.

    Default tol is rank_scale * max(1, max|lambda|).
    """
    tols = tols or config.DEFAULT
    arr = _as_array(a)
    w = eigen_values(arr, tols)
    if tol is None:
        tol = tols.rank_tol(float(np.max(np.abs(w))) if w.size else 0.0)
    return int(np.sum(np.abs(w) > tol))


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
