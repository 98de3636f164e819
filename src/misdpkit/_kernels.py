"""Hot numeric kernel: cyclic Jacobi sweeps for dense symmetric matrices.

This is the one eigensolver of the package: every eigenvalue and
eigenvector, and every float PSD test and numerical rank (`linalg.is_psd`,
`linalg.num_rank`), goes through `jacobi_eigh`, in plain Python over a
float64 array.  Exact data takes the exact kernels instead: the pencils of
`model` whose entries are ints or, as in the tour models, elements of
Z[2cos(2pi/n)] (`MatrixPencil.is_psd_at`), and `misdpkit check` on an
integer matrix, call `linalg.is_psd_exact` and `linalg.rank_exact`, which
use no eigensolver.  In the verification suites the kernel runs only for
the float pencils of `completion-2x2` (its nuclear hint); the `qbpp-random`
corner pencils are decided exactly at their boundary.  The convergence
threshold and sweep budget of `jacobi_eigh` are the constants below.
"""

import math

import numpy as np

# converged when the off-diagonal Frobenius norm is <= JACOBI_OFF * ||A||_F
JACOBI_OFF = 1e-12
JACOBI_SWEEPS = 100
USING_NUMBA = False  # read by perfbench/bench.py:environment


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


def jacobi_eigh(a, off_scale, max_sweeps):
    """Full eigen-decomposition of a symmetric ndarray by cyclic Jacobi.

    Returns (eigenvalues desc, eigenvector columns, sweeps) or sweeps=-1 on
    non-convergence.  `a` is not modified.
    """
    work = np.array(a, dtype=np.float64, order="C", copy=True)
    n = work.shape[0]
    v = np.eye(n)
    with np.errstate(over="ignore"):  # an overflowed norm is reported as sweeps=-1
        fro = math.sqrt(float(np.sum(work * work)))
    sweeps = _jacobi_cycle(work, v, fro, off_scale * fro, max_sweeps)
    w = np.diag(work).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order], sweeps
