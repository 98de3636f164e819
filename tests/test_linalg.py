import math

import numpy as np
import pytest

from misdpkit import config
from misdpkit.errors import DimensionMismatch, NonConvergence, ParseError
from misdpkit.linalg import (
    BINARY,
    GENERAL,
    PM_ONE,
    TERNARY,
    SymMat,
    dumps_matrix,
    eigen_values,
    eigensym,
    is_psd,
    loads_matrix,
    num_rank,
)


def bordered_counterexample():
    # (J_3 + 3 E_11) / 2: PSD, rank 2, not integer
    return SymMat(0.5 * (np.ones((3, 3)) + 3 * np.outer([1.0, 0, 0], [1.0, 0, 0])))


class TestSymMat:
    def test_mirrored_storage(self):
        m = SymMat([[1, 2], [2, 5]])
        assert m[0, 1] == m[1, 0]
        assert m.charset == GENERAL
        assert m.ints is not None

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            SymMat([[1, 2], [3, 4]])

    def test_charsets(self):
        assert SymMat.identity(3).charset == BINARY
        assert SymMat([[1, -1], [-1, 1]]).charset == PM_ONE
        assert SymMat([[1, 0], [0, -1]]).charset == TERNARY
        assert SymMat([[0.5, 0], [0, 1]]).charset == GENERAL
        assert SymMat([[0.5, 0], [0, 1]]).ints is None

    def test_text_round_trip(self):
        m = SymMat([[2, 1, 0], [1, 3, -1], [0, -1, 4]])
        again = loads_matrix(dumps_matrix(m))
        assert again == m
        assert again.ints is not None

    def test_load_rejects_asymmetric(self):
        with pytest.raises(ParseError):
            loads_matrix("2\n0 1\n0 0\n")

    @pytest.mark.parametrize("entry", ["inf", "-inf", "nan", "1e400"])
    def test_load_rejects_non_finite(self, entry):
        with pytest.raises(ParseError, match=f"line 3: entry '{entry}' is not a finite number"):
            loads_matrix(f"2\n1 0\n0 {entry}\n")


class TestEigensym:
    def test_identity(self):
        r = eigensym(SymMat.identity(3))
        assert np.allclose(r.eigenvalues, [1, 1, 1], atol=0)

    def test_all_ones(self):
        r = eigensym(SymMat.ones(3))
        assert np.allclose(r.eigenvalues, [3, 0, 0], atol=1e-12)

    def test_analytic_2x2(self):
        r = eigensym(SymMat([[2, 1], [1, 2]]))
        assert np.allclose(r.eigenvalues, [3, 1], atol=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            a = rng.integers(-8, 9, size=(n, n))
            m = SymMat(np.tril(a) + np.tril(a, -1).T)
            r = eigensym(m)
            v = r.eigenvectors
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-9
            recon = v @ np.diag(r.eigenvalues) @ v.T
            assert np.max(np.abs(m.array - recon)) <= 1e-8 * max(1.0, m.inf_norm())
            assert list(r.eigenvalues) == sorted(r.eigenvalues, reverse=True)

    def test_trace_equals_eigen_sum(self):
        # randomized suite: >= 1000 draws of small integer matrices
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            a = rng.integers(-8, 9, size=(n, n))
            m = SymMat(np.tril(a) + np.tril(a, -1).T)
            w = eigen_values(m)
            assert abs(np.trace(m.array) - w.sum()) <= 1e-8 * n * max(1.0, m.inf_norm())


def _min_eig_charpoly(a):
    """Smallest eigenvalue via closed-form characteristic polynomial roots (n<=3)."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    if n == 2:
        tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        d = math.sqrt(max(tr * tr - 4 * det, 0.0))
        return (tr - d) / 2.0
    # n == 3: trigonometric solution of the symmetric cubic
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p2 = float(np.sum(b * b)) / 6.0
    if p2 == 0.0:
        return q
    p = math.sqrt(p2)
    detb = float(np.linalg.det(b))
    r = detb / (2 * p2 * p)
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    # smallest root of the shifted cubic
    return q + 2 * p * math.cos(phi + 2 * math.pi / 3)


class TestPsdRank:
    def test_spec_examples(self):
        assert is_psd(SymMat.ones(3))
        assert not is_psd(SymMat([[1, 1], [1, 0]]))
        y = bordered_counterexample()
        assert is_psd(y)
        assert num_rank(y) == 2
        assert num_rank(SymMat.ones(4)) == 1
        m = SymMat(np.diag([1.0, 1.0, 0.0]))
        assert num_rank(m) == 2

    def test_is_psd_exhaustive_small_integer(self):
        # independent oracle: char-poly smallest eigenvalue, all 2x2 and 3x3
        # integer symmetric matrices with entries in {-2..2}
        vals = range(-2, 3)
        for a11 in vals:
            for a12 in vals:
                for a22 in vals:
                    a = np.array([[a11, a12], [a12, a22]], dtype=float)
                    tol = config.DEFAULT.psd_tol(float(np.max(np.sum(np.abs(a), 1))))
                    assert is_psd(SymMat(a)) == (_min_eig_charpoly(a) >= -tol)
        rng_entries = [(i, j) for i in range(3) for j in range(i, 3)]
        import itertools

        for combo in itertools.product(vals, repeat=6):
            a = np.zeros((3, 3))
            for (i, j), v in zip(rng_entries, combo):
                a[i, j] = a[j, i] = v
            tol = config.DEFAULT.psd_tol(float(np.max(np.sum(np.abs(a), 1))))
            assert is_psd(SymMat(a)) == (_min_eig_charpoly(a) >= -tol)

    def test_rank_permutation_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.integers(-4, 5, size=(n, n))
            m = SymMat(np.tril(a) + np.tril(a, -1).T)
            p = np.eye(n)[rng.permutation(n)]
            assert num_rank(SymMat(p.T @ m.array @ p)) == num_rank(m)


class TestAgainstLapack:
    def test_eigenvalues_match_lapack(self):
        # independent route: LAPACK's eigvalsh vs the cyclic Jacobi kernel
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = rng.integers(-9, 10, size=(n, n))
            m = SymMat(np.tril(a) + np.tril(a, -1).T)
            ours = eigen_values(m)
            lapack = np.linalg.eigvalsh(m.array)[::-1]
            assert np.max(np.abs(ours - lapack)) <= 1e-9 * max(1.0, m.inf_norm())


class TestNonFinite:
    # an overflowed or NaN Frobenius norm would end the sweeps at once and
    # hand back the diagonal as the spectrum
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_raises(self):
        with pytest.raises(NonConvergence):
            is_psd(np.array([[1.0, 1e200], [1e200, 1.0]]))
        with pytest.raises(NonConvergence):
            eigensym([[1, 1e300], [1e300, 1]])

    @pytest.mark.parametrize("a", [[[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]]])
    def test_non_finite_entries_raise(self, a):
        with pytest.raises(NonConvergence):
            eigen_values(a)
        with pytest.raises(NonConvergence):
            is_psd(a)
