import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit import config, dpsd
from misdpkit.errors import DimensionMismatch, NonConvergence, NotPsd, ParseError
from misdpkit.linalg import (
    SymMat,
    dumps_matrix,
    eigen_values,
    eigensym,
    eliminate,
    is_psd,
    is_psd_exact,
    loads_matrix,
    num_rank,
    rank_exact,
)


@st.composite
def _int_matrices(draw):
    """Integer matrices with small or huge entries, some rows combinations of others."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i, j, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(st.integers(-2, 2))
        rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
    return rows


def _fraction_gauss_jordan(rows, width):
    """Gauss-Jordan over Fractions in place, pivoting on the first nonzero
    entry of each column; pivot rows are scaled to 1 at their pivot."""
    pivots = []
    for c in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [v / rows[rank][c] for v in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank:
                rows[r] = [x - row[c] * y for x, y in zip(row, rows[rank])]
        pivots.append(c)
    return pivots


def bordered_counterexample():
    # (J_3 + 3 E_11) / 2: PSD, rank 2, not integer
    return SymMat(0.5 * (np.ones((3, 3)) + 3 * np.outer([1.0, 0, 0], [1.0, 0, 0])))


class TestSymMat:
    def test_mirrored_storage(self):
        m = SymMat([[1, 2], [2, 5]])
        assert m[0, 1] == m[1, 0]
        assert m.ints is not None
        assert SymMat([[0.5, 0], [0, 1]]).ints is None

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            SymMat([[1, 2], [3, 4]])

    def test_text_round_trip(self):
        m = SymMat([[2, 1, 0], [1, 3, -1], [0, -1, 4]])
        again = loads_matrix(dumps_matrix(m))
        assert again == m
        assert again.ints is not None

    def test_load_rejects_asymmetric(self):
        with pytest.raises(ParseError):
            loads_matrix("2\n0 1\n0 0\n")

    def test_load_rejects_negative_order(self):
        with pytest.raises(ParseError, match="^line 1: matrix order -1 is negative$"):
            loads_matrix("-1\n")

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


def _symmetric(rng, n, lo, hi):
    a = rng.integers(lo, hi + 1, size=(n, n))
    return np.triu(a) + np.triu(a, 1).T


class TestExactKernel:
    """is_psd_exact and rank_exact against Jacobi, LAPACK and the paper's recognisers."""

    def test_agrees_with_jacobi_where_the_spectrum_is_clear(self):
        rng = np.random.default_rng(11)
        compared = {True: 0, False: 0}
        for _ in range(600):
            n = int(rng.integers(1, 10))
            a = _symmetric(rng, n, -3, 3)
            if rng.random() < 0.5:  # push about half of them towards PSD
                a = a + 3 * n * np.eye(n, dtype=np.int64)
            lam = float(np.linalg.eigvalsh(a.astype(float))[0])
            if abs(lam) <= 1e-6 * max(1.0, float(np.abs(a).sum(axis=1).max())):
                continue
            exact = is_psd_exact(a.tolist())
            assert exact == is_psd(SymMat(a)) == (lam > 0)
            compared[exact] += 1
        assert min(compared.values()) > 150

    def test_singular_gram_matrices_and_lowered_diagonals(self):
        # B is n x r with r < n and row i an integer combination of the others,
        # so z = e_i - sum_j c_j e_j is a null vector of B B^T with z_i = 1 and
        # lowering (B B^T)_ii by one makes z^T A z = -1
        rng = np.random.default_rng(12)
        for _ in range(400):
            n = int(rng.integers(2, 10))
            r = int(rng.integers(1, n))
            b = rng.integers(-40, 41, size=(n, r))
            i = int(rng.integers(n))
            c = rng.integers(-2, 3, size=n)
            c[i] = 0
            b[i] = c @ b
            a = b @ b.T
            assert is_psd_exact(a.tolist())
            assert rank_exact(a.tolist()) == np.linalg.matrix_rank(b) < n
            a[i, i] -= 1
            assert not is_psd_exact(a.tolist())

    @pytest.mark.parametrize("values,recognise", [
        ((0, 1), dpsd.decompose01),
        ((-1, 1), dpsd.decompose_pm1),
        ((-1, 0, 1), dpsd.decompose_ternary),
    ], ids=["binary", "pm1", "ternary"])
    def test_paper_recognisers_are_a_second_oracle(self, values, recognise):
        for n in range(1, 4):
            upper = [(i, j) for i in range(n) for j in range(i, n)]
            for combo in itertools.product(values, repeat=len(upper)):
                a = np.zeros((n, n), dtype=np.int64)
                for (i, j), v in zip(upper, combo):
                    a[i, j] = a[j, i] = v
                try:
                    recognise(SymMat(a))
                    ok = True
                except NotPsd:
                    ok = False
                assert is_psd_exact(a.tolist()) == ok

    def test_pinned_disagreement_with_the_tolerance_test(self):
        # det = -1: indefinite and of rank 2, but lambda_min = -1e-8 is inside
        # the Jacobi test's tolerance
        a = [[1, 10000], [10000, 99999999]]
        assert is_psd(SymMat(a))
        assert num_rank(SymMat(a)) == 1
        assert not is_psd_exact([row[:] for row in a])
        assert rank_exact([row[:] for row in a]) == 2

    def test_rank_matches_lapack_on_rectangular_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            m, n, r = (int(v) for v in rng.integers(1, 8, size=3))
            a = rng.integers(-3, 4, size=(m, r)) @ rng.integers(-3, 4, size=(r, n))
            assert rank_exact(a.tolist()) == np.linalg.matrix_rank(a)
        assert rank_exact([]) == 0 and is_psd_exact([])

    def test_reads_only_the_upper_triangle(self):
        assert is_psd_exact([[1, 1], [99, 1]])
        assert not is_psd_exact([[1, 2], [0, 1]])

    @settings(max_examples=300, deadline=None)
    @given(_int_matrices())
    def test_rank_and_reduction_match_fractions(self, a):
        # entries up to 10**30 and dependent rows: eliminate's rows are d
        # times those of Gauss-Jordan over Fractions, with the same pivots
        ref = [[Fraction(x) for x in row] for row in a]
        ref_pivots = _fraction_gauss_jordan(ref, len(a[0]))
        assert rank_exact([row[:] for row in a]) == len(ref_pivots)
        rows = [row[:] for row in a]
        pivots, d = eliminate(rows, len(a[0]))
        assert pivots == ref_pivots and d != 0
        assert rows == [[d * x for x in row] for row in ref]
        assert all(type(x) is int for row in rows for x in row)


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
