"""Hot numeric kernels: cyclic Jacobi sweeps for dense symmetric matrices.

The same source is used twice: compiled with numba's @njit (default) and as a
plain NumPy/Python function.  Set MISDPKIT_PURE_NUMPY=1 to force the fallback;
the fallback is also selected automatically when numba is unavailable.  Both
paths execute the identical operation sequence.  `benchmarks/bench_eigen.py`
compares them.
"""

import math
import os

import numpy as np


def _jacobi_cycle(a, v, fro, off_target, max_sweeps):
    """Diagonalize symmetric `a` in place, accumulating rotations into `v`.

    Returns the number of completed sweeps, or -1 when the off-diagonal
    Frobenius norm is still above `off_target` after `max_sweeps` sweeps, or
    when `fro`, the Frobenius norm of the input (rotation-invariant), is not
    finite: an overflowed or NaN norm would stop the sweeps at once.
    """
    if not math.isfinite(fro):
        return -1
    n = a.shape[0]
    if n < 2 or fro == 0.0:
        return 0
    sweeps = 0
    while True:
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        off = math.sqrt(2.0 * off)
        if off <= off_target:
            return sweeps
        if sweeps >= max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = 0.5 * (aqq - app) / apq
                # stable tangent of the rotation angle; the asymptotic form
                # avoids overflow of theta * theta for extreme ratios
                if abs(theta) > 1.0e150:
                    t = 0.5 / theta
                else:
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip = a[i, p]
                        aiq = a[i, q]
                        a[i, p] = aip - s * (aiq + tau * aip)
                        a[i, q] = aiq + s * (aip - tau * aiq)
                        a[p, i] = a[i, p]
                        a[q, i] = a[i, q]
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = vip - s * (viq + tau * vip)
                    v[i, q] = viq + s * (vip - tau * viq)
        sweeps += 1


jacobi_cycle_numpy = _jacobi_cycle

try:
    from numba import njit

    jacobi_cycle_numba = njit(cache=True)(_jacobi_cycle)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    jacobi_cycle_numba = None
    HAVE_NUMBA = False

_flag = os.environ.get("MISDPKIT_PURE_NUMPY", "").strip().lower()
USING_NUMBA = HAVE_NUMBA and _flag not in {"1", "true", "yes"}

jacobi_cycle = jacobi_cycle_numba if USING_NUMBA else jacobi_cycle_numpy


def jacobi_eigh(a, off_scale, max_sweeps):
    """Full eigen-decomposition of a symmetric ndarray by cyclic Jacobi.

    Returns (eigenvalues desc, eigenvector columns, sweeps) or sweeps=-1 on
    non-convergence.  `a` is not modified.
    """
    work = np.array(a, dtype=np.float64, order="C", copy=True)
    n = work.shape[0]
    v = np.eye(n)
    fro = math.sqrt(float(np.sum(work * work)))
    sweeps = jacobi_cycle(work, v, fro, off_scale * fro, max_sweeps)
    w = np.diag(work).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order], sweeps
