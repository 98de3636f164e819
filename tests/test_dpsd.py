import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit.dpsd import (
    Packing,
    RankCertificate,
    bell,
    block_form01,
    count_Dnr,
    decompose01,
    decompose_pm1,
    decompose_ternary,
    enumerate_Dnr,
    iter_packings,
    membership_Pnr,
    membership_Rnr,
    pm1_to_01_rank2,
    rank1_iff_binary,
    rank_exact_certificate,
    rank_upper_certificate,
    stirling2,
    ternary_rank1_check,
    triangle_check01,
    upper_certificate,
)
from misdpkit.errors import NotPsd, PreconditionViolated, ShapeMismatch, SizeLimit
from misdpkit.exactlp import solve_feasibility
from misdpkit.linalg import SymMat, is_psd, is_psd_exact, num_rank, rank_exact


def sym_from_upper(n, vals):
    a = np.zeros((n, n), dtype=np.int64)
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = next(it)
    return SymMat(a, check_symmetry=False)


def all_symmetric_matrices(n, values):
    m = n * (n + 1) // 2
    for combo in itertools.product(values, repeat=m):
        yield sym_from_upper(n, combo)


class TestPacking:
    def test_round_trip_matrix(self):
        for n in range(1, 7):
            for p in iter_packings(n, n):
                assert decompose01(p.to_matrix()) == p

    def test_matrix_rank_is_part_count(self):
        for p in iter_packings(5, 5):
            m = p.to_matrix()
            assert num_rank(m) == len(p.parts)
            assert is_psd(m)

    def test_line_round_trip(self):
        p = Packing.make(5, [(2, 0), (1, 4)])
        assert p.parts == ((0, 2), (1, 4))
        assert Packing.from_line(p.to_line()) == p
        empty = Packing.make(3, [])
        assert Packing.from_line(empty.to_line()) == empty


def _ix_matrix(p):
    """A packing's characteristic matrix built one np.ix_ block per part."""
    x = np.zeros((p.n, p.n), dtype=np.int64)
    for part in p.parts:
        x[np.ix_(part, part)] = 1
    return SymMat(x, check_symmetry=False)


@st.composite
def _packings(draw):
    n = draw(st.integers(0, 8))
    labels = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    parts = {}
    for e, k in enumerate(labels):
        if k >= 0:
            parts.setdefault(k, []).append(e)
    return Packing.make(n, parts.values())


class TestPackingMatrices:
    """Matrices, upper triangles and LP columns built from part labels."""

    @settings(max_examples=300, deadline=None)
    @given(_packings())
    def test_matches_ix_construction(self, p):
        got, ref = p.to_matrix(), _ix_matrix(p)
        assert got == ref and got.n == ref.n == p.n
        assert got.ints.dtype == ref.ints.dtype == np.int64 and np.array_equal(got.ints, ref.ints)
        assert got.array.dtype == np.float64 and np.array_equal(got.array, ref.array)
        for a in (got.ints, got.array, ref.ints, ref.array):
            assert not a.flags.writeable
        assert p.upper() == [int(ref.ints[i, j]) for i in range(p.n) for j in range(i, p.n)]
        assert all(lab == next((k for k, part in enumerate(p.parts) if e in part), -1)
                   for e, lab in enumerate(p.labels()))

    def test_enumeration_is_the_sorted_brute_force_filter(self):
        # every symmetric binary matrix, without packings: PSD and rank <= r
        for n in range(5):
            cands = [x for x in all_symmetric_matrices(n, (0, 1)) if is_psd_exact(x.ints.tolist())]
            ranks = [rank_exact(x.ints.tolist()) for x in cands]
            for r in range(n + 1):
                want = sorted((x for x, k in zip(cands, ranks) if k <= r),
                              key=lambda x: [int(x.ints[i, j]) for i in range(n) for j in range(i, n)])
                got = enumerate_Dnr(n, r)
                assert got == want
                assert [m.ints.tolist() for m in got] == [m.ints.tolist() for m in want]

    def test_membership_matches_ix_columns(self, perfbench):
        # the theory-io membership points, against the LP built on np.ix_ matrices
        seeded = perfbench("workloads").membership_points(np.random.default_rng(0))
        points = [(x, r) for _, r, _, inside, outside in seeded for x in (inside, outside)]
        points += [([[Fraction(int(i == j), n) for j in range(n)] for i in range(n)], r)
                   for n in range(1, 5) for r in range(1, n + 1)]
        assert any(not membership_Pnr(x, r).member for x, r in points)
        for x, r in points:
            n = len(x)
            upper = [(i, j) for i in range(n) for j in range(i, n)]
            packings = list(iter_packings(n, r))
            columns = [[Fraction(int(_ix_matrix(p).ints[i, j])) for i, j in upper] + [Fraction(1)]
                       for p in packings]
            ref = solve_feasibility(columns, [x[i][j] for i, j in upper] + [Fraction(1)])
            got = membership_Pnr(x, r)
            assert got.member == ref.feasible
            if ref.feasible:
                assert got.weights == {p: w for p, w in zip(packings, ref.x) if w != 0}
            else:
                g, gamma = got.separating
                assert [g[i][j] for i, j in upper] + [-gamma] == ref.farkas
                assert all(g[i][j] == g[j][i] for i, j in upper)


class TestDecompose01:
    def test_identity(self):
        p = decompose01(SymMat.identity(3))
        assert p.parts == ((0,), (1,), (2,))

    def test_permuted_blocks(self):
        # J_2 (+) J_3 pushed through the permutation (0..4) -> (2,0,3,1,4)
        base = Packing.make(5, [(0, 1), (2, 3, 4)]).to_matrix().ints
        perm = [2, 0, 3, 1, 4]
        x = np.zeros((5, 5), dtype=np.int64)
        for i in range(5):
            for j in range(5):
                x[perm[i], perm[j]] = base[i, j]
        p = decompose01(SymMat(x))
        assert p.parts == ((0, 2), (1, 3, 4))

    def test_not_psd(self):
        with pytest.raises(NotPsd):
            decompose01(SymMat([[1, 1], [1, 0]]))


class TestBlockForm:
    def test_single_clique(self):
        perm, sizes, n_z = block_form01(SymMat.ones(4))
        assert sizes == (4,) and n_z == 0

    def test_zero(self):
        perm, sizes, n_z = block_form01(SymMat.zeros(3))
        assert sizes == () and n_z == 3

    def test_mixed(self):
        x = Packing.make(4, [(0,), (1,), (2, 3)]).to_matrix()
        perm, sizes, n_z = block_form01(x)
        assert sizes == (2, 1, 1) and n_z == 0
        blocks = x.array[np.ix_(perm, perm)]
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1
        expected[2, 2] = expected[3, 3] = 1
        assert np.array_equal(blocks, expected)


class TestTriangle:
    def test_spec_examples(self):
        assert triangle_check01(SymMat.ones(3)) == []
        assert triangle_check01(SymMat.identity(4)) == []
        bad = SymMat([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        assert (0, 1, 2) in triangle_check01(bad)

    def test_pair_violation_reported(self):
        x = SymMat([[0, 1], [1, 1]])
        v = triangle_check01(x)
        assert v and all(j == k for _, j, k in v)


class TestRankCertificates:
    def test_upper(self):
        assert rank_upper_certificate(SymMat.identity(2), 2)
        assert not rank_upper_certificate(SymMat.identity(2), 1)
        assert rank_upper_certificate(SymMat.zeros(2), 0)

    def test_upper_certificate_object(self):
        cert = upper_certificate(SymMat.identity(2), 2)
        assert isinstance(cert, RankCertificate)
        assert cert.bordered.array[0, 0] == 2

    def test_exact(self):
        assert rank_exact_certificate(SymMat.identity(2), np.eye(2, dtype=int))
        assert rank_exact_certificate(SymMat.ones(2), [[1], [1]])
        assert not rank_exact_certificate(SymMat.identity(2), [[1, 0], [0, 0]])
        with pytest.raises(ShapeMismatch):
            rank_exact_certificate(SymMat.identity(2), [[1, 0]])

    def test_minimal_t_is_rank(self):
        # smallest integer t making the bordered matrix PSD equals the rank
        for r in range(1, 5):
            for x in enumerate_Dnr(4, r):
                want = num_rank(x)
                got = next(t for t in range(5) if rank_upper_certificate(x, t))
                assert got == want


class TestRank1IffBinary:
    @staticmethod
    def lift(x):
        x = np.asarray(x, dtype=float)
        big = np.zeros((len(x) + 1, len(x) + 1))
        big[0, 0] = 1.0
        big[0, 1:] = x
        big[1:, 0] = x
        big[1:, 1:] = np.outer(x, x)
        big[np.diag_indices_from(big)] = np.concatenate([[1.0], x])
        return SymMat(big, check_symmetry=False)

    def test_binary_lift(self):
        assert rank1_iff_binary(self.lift([1, 0])) == (True, True)
        assert rank1_iff_binary(SymMat.ones(2)) == (True, True)

    def test_counterexample(self):
        y = SymMat(0.5 * (np.ones((3, 3)) + 3 * np.outer([1.0, 0, 0], [1.0, 0, 0])))
        assert rank1_iff_binary(y) == (False, False)

    def test_unit_corner_equivalence(self):
        # binary lifts under the precondition: predicates agree
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n):
                r1, bb = rank1_iff_binary(self.lift(bits))
                assert r1 and bb

    def test_grid_lifts(self):
        # fractional x: the rank-1 lift is rank 1 but not binary unless x is
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for n in (1, 2, 3):
            for x in itertools.product(grid, repeat=n):
                xv = np.array(x)
                y = np.zeros((n + 1, n + 1))
                y[0, 0] = 1.0
                y[0, 1:] = xv
                y[1:, 0] = xv
                y[1:, 1:] = np.outer(xv, xv)
                m = SymMat(y, check_symmetry=False)
                assert num_rank(m) == 1
                is_binary = bool(np.all((m.array == 0) | (m.array == 1)))
                assert is_binary == all(v in (0.0, 1.0) for v in x)

    def test_precondition(self):
        bad = SymMat([[1, 1], [1, 0]])
        with pytest.raises(PreconditionViolated):
            rank1_iff_binary(bad)


class TestPm1:
    def test_spec_examples(self):
        assert np.array_equal(decompose_pm1(SymMat.ones(3)), [1, 1, 1])
        assert np.array_equal(decompose_pm1(SymMat([[1, -1], [-1, 1]])), [1, -1])
        with pytest.raises(NotPsd):
            decompose_pm1(SymMat([[1, 1, -1], [1, 1, 1], [-1, 1, 1]]))

    def test_pm1_to_01(self):
        assert pm1_to_01_rank2(SymMat.ones(2)) == SymMat.ones(2)
        assert pm1_to_01_rank2(SymMat([[1, -1], [-1, 1]])) == SymMat.identity(2)
        x = np.outer([1, 1, -1], [1, 1, -1])
        y = pm1_to_01_rank2(SymMat(x))
        expected = Packing.make(3, [(0, 1), (2,)]).to_matrix()
        assert y == expected

    def test_exhaustive_psd_iff_decomposable(self):
        for n in range(1, 5):
            for x in all_symmetric_matrices(n, (-1, 1)):
                try:
                    s = decompose_pm1(x)
                    ok = True
                    assert np.array_equal(np.outer(s, s), x.ints)
                except NotPsd:
                    ok = False
                assert ok == is_psd(x)

    def test_prop4_transfer_exhaustive(self):
        # X psd  <=>  Y=(X+J)/2 has unit diagonal, is psd, and rank(Y) <= 2
        for n in range(1, 5):
            for x in all_symmetric_matrices(n, (-1, 1)):
                y = pm1_to_01_rank2(x)
                rhs = (
                    bool(np.all(np.diag(y.ints) == 1))
                    and is_psd(y)
                    and num_rank(y) <= 2
                )
                assert is_psd(x) == rhs


class TestTernary:
    def test_identity(self):
        b = decompose_ternary(SymMat.identity(2))
        assert len(b.blocks) == 2 and b.n_z == 0
        assert b.reconstruct() == SymMat.identity(2)

    def test_signed_block_plus_zero(self):
        x = SymMat([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
        b = decompose_ternary(x)
        assert len(b.blocks) == 1 and b.n_z == 1
        assert np.array_equal(b.blocks[0], [1, -1])
        assert b.reconstruct() == x

    def test_forbidden_pattern(self):
        with pytest.raises(NotPsd):
            decompose_ternary(SymMat([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))

    def test_exhaustive_psd_iff_decomposable(self):
        for n in range(1, 4):
            for x in all_symmetric_matrices(n, (-1, 0, 1)):
                try:
                    blocks = decompose_ternary(x)
                    ok = True
                    assert blocks.reconstruct() == x
                    assert len(blocks.blocks) == num_rank(x)
                except NotPsd:
                    ok = False
                assert ok == is_psd(x)

    def test_block_vectors_sum(self):
        x = SymMat([[1, 0, -1], [0, 1, 1], [-1, 1, 2]])  # not ternary
        with pytest.raises(PreconditionViolated):
            decompose_ternary(x)


class TestTernaryRank1:
    @staticmethod
    def lift(x):
        x = np.asarray(x, dtype=np.int64)
        n = len(x)
        y = np.zeros((n + 1, n + 1), dtype=np.int64)
        y[0, 0] = 1
        y[0, 1:] = x
        y[1:, 0] = x
        y[1:, 1:] = np.outer(x, x)
        return SymMat(y, check_symmetry=False)

    def test_explicit_lift(self):
        assert ternary_rank1_check(self.lift([1, -1, 0]))

    def test_support_mismatch(self):
        y = np.zeros((3, 3), dtype=np.int64)
        y[0, 0] = 1
        y[0, 1] = y[1, 0] = 1
        y[1, 1] = 1
        y[2, 2] = 1  # X_22 = 1 but border x_2 = 0
        with pytest.raises(PreconditionViolated):
            ternary_rank1_check(SymMat(y))

    def test_not_psd_bordered(self):
        y = np.array([
            [1, 1, 1],
            [1, 1, -1],
            [1, -1, 1],
        ])
        assert not ternary_rank1_check(SymMat(y))


class TestCounting:
    def test_stirling_bell(self):
        assert stirling2(5, 3) == 25
        assert [bell(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_spec_examples(self):
        assert count_Dnr(3, 3) == 15
        assert count_Dnr(4, 2) == 41
        for n in range(1, 21):
            assert count_Dnr(n, 1) == 2**n

    def test_counts_match_enumeration(self):
        for n in range(6):
            for r in range(n + 1):
                mats = enumerate_Dnr(n, r)
                assert len(mats) == count_Dnr(n, r)
                assert len({m for m in mats}) == len(mats)

    def test_enumerate_spec_examples(self):
        assert len(enumerate_Dnr(1, 1)) == 2
        assert len(enumerate_Dnr(3, 1)) == 8
        got = enumerate_Dnr(2, 2)
        expected = {
            SymMat.zeros(2),
            SymMat([[1, 0], [0, 0]]),
            SymMat([[0, 0], [0, 1]]),
            SymMat.identity(2),
            SymMat.ones(2),
        }
        assert set(got) == expected

    def test_rank_zero_is_the_zero_matrix(self):
        for n in range(5):
            assert enumerate_Dnr(n, 0) == [SymMat.zeros(n)] and count_Dnr(n, 0) == 1
        for n, r in ((3, -1), (3, 4)):
            with pytest.raises(PreconditionViolated):
                enumerate_Dnr(n, r)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            enumerate_Dnr(7, 2)


class TestMembership:
    def test_scaled_identity(self):
        for n in range(1, 5):
            for r in range(1, n + 1):
                x = [[Fraction(1, n) if i == j else Fraction(0) for j in range(n)]
                     for i in range(n)]
                assert membership_Pnr(x, r).member

    def test_identity_not_in_P21(self):
        res = membership_Pnr(SymMat.identity(2), 1)
        assert not res.member
        g, gamma = res.separating
        # exact separation: <G, E_F> <= gamma on every vertex, > gamma at I_2
        for p in iter_packings(2, 1):
            v = p.to_matrix().ints
            val = sum(g[i][j] * int(v[i, j]) for i in range(2) for j in range(2))
            assert val <= gamma
        at_x = g[0][0] + g[1][1]
        assert at_x > gamma

    def test_midpoint(self):
        x = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
        res = membership_Pnr(x, 1)
        assert res.member
        assert sum(res.weights.values()) == 1

    def test_Rnr_contains_Dnr(self):
        for x in enumerate_Dnr(4, 2):
            assert membership_Rnr(x, 2).member

    def test_Rnr_spec_examples(self):
        n = 3
        x = [[Fraction(1, n) if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        assert membership_Rnr(x, 1).member
        assert not membership_Rnr(SymMat.identity(2), 1).member

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = [[Fraction(1, 2), Fraction(1, 4), Fraction(0)],
             [Fraction(1, 4), Fraction(1, 2), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(1, 3)]]
        base = membership_Pnr(x, 2).member
        for _ in range(4):
            perm = rng.permutation(3)
            px = [[x[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
            assert membership_Pnr(px, 2).member == base

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            membership_Pnr(SymMat.identity(6), 2)

    @pytest.mark.parametrize("r", [-1, 3])
    @pytest.mark.parametrize("membership", [membership_Pnr, membership_Rnr])
    def test_rank_outside_zero_to_n_raises(self, membership, r):
        # at r = -1 the zero matrix used to be in P (the empty packing is a
        # column) but not in R (the total weight had to be -1)
        with pytest.raises(PreconditionViolated, match="need 0 <= r <= n"):
            membership([[0, 0], [0, 0]], r)

    def test_rank_zero_holds_only_the_zero_matrix(self):
        zero, one = [[0, 0], [0, 0]], [[1, 0], [0, 0]]
        assert membership_Pnr(zero, 0).member and membership_Rnr(zero, 0).member
        assert not membership_Pnr(one, 0).member and not membership_Rnr(one, 0).member

    @pytest.mark.parametrize("seed, digest", [
        (0, "6ea1e43f6435266ae3143515543e57da8de8ac2ad0c98d96ff8cfa669ec22165"),
        (1, "022e4b7e814cc152e15df9eb68f90635c3fbf4d005160a87a1ae0f780f2e6c97"),
    ])
    def test_weights_and_separating_functionals_are_pinned(self, perfbench, seed, digest):
        # the theory-io membership points; digests of the Fraction simplex's answers
        seeded = perfbench("workloads").membership_points(np.random.default_rng(seed))
        points = [(x, r) for _, r, _, inside, outside in seeded for x in (inside, outside)]
        points += [([[Fraction(int(i == j), n) for j in range(n)] for i in range(n)], r)
                   for n in range(1, 5) for r in range(1, n + 1)]
        h = hashlib.sha256()
        for x, r in points:
            for membership in (membership_Pnr, membership_Rnr):
                res = membership(x, r)
                h.update(repr((res.member, res.weights and list(res.weights.items()), res.separating)).encode())
        assert h.hexdigest() == digest


class TestCharacterizationEquivalence:
    def test_four_predicates_agree(self):
        # exhaustive over all symmetric binary matrices up to n = 3 here;
        # n = 4 is covered by the acceptance suite
        for n in range(1, 4):
            for x in all_symmetric_matrices(n, (0, 1)):
                try:
                    packing = decompose01(x)
                    p1 = True
                except NotPsd:
                    packing, p1 = None, False
                p2 = is_psd(x)
                if triangle_check01(x):
                    p3 = False
                else:
                    p3 = num_rank(x) == len(decompose01(x).parts)
                p4 = rank_upper_certificate(x, num_rank(x)) and p2
                assert p1 == p2 == p3 == p4
                if p1:
                    assert num_rank(x) == len(packing.parts)


class TestMembershipCrossChecks:
    def test_r1_descriptions_coincide(self):
        # at rank bound 1 the packing hull and the subset-weight set agree
        rng = np.random.default_rng(13)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            num = rng.integers(0, 3, (n, n))
            x = [[Fraction(int(num[min(i, j), max(i, j)]), 4) for j in range(n)]
                 for i in range(n)]
            assert membership_Pnr(x, 1).member == membership_Rnr(x, 1).member

    def test_convex_combinations_are_members(self):
        # random convex combinations of the rank<=2 vertices stay inside both
        # hull descriptions; weights are exact rationals
        rng = np.random.default_rng(21)
        vertices = enumerate_Dnr(4, 2)
        for _ in range(6):
            picks = rng.choice(len(vertices), size=3, replace=False)
            raw = [int(v) for v in rng.integers(1, 5, 3)]
            total = sum(raw)
            x = [[Fraction(0)] * 4 for _ in range(4)]
            for p, w in zip(picks, raw):
                mat = vertices[p].ints
                for i in range(4):
                    for j in range(4):
                        x[i][j] += Fraction(w, total) * int(mat[i, j])
            assert membership_Pnr(x, 2).member
            assert membership_Rnr(x, 2).member

    def test_scaled_vertex_outside_for_small_r(self):
        # I_3 needs three packing parts; with r = 2 the exact LP separates it
        res = membership_Pnr(SymMat.identity(3), 2)
        assert not res.member
        g, gamma = res.separating
        for p in iter_packings(3, 2):
            v = p.to_matrix().ints
            val = sum(g[i][j] * int(v[i, j]) for i in range(3) for j in range(3))
            assert val <= gamma
        assert sum(g[i][i] for i in range(3)) > gamma
