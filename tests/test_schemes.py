import numpy as np
import pytest

from misdpkit.errors import AxiomViolation, Disconnected, EvenOrder, PreconditionViolated
from misdpkit.linalg import SymMat
from misdpkit.problems import Graph
from misdpkit.schemes import (
    distance_matrices,
    idempotents,
    kep_scheme_eigen,
    kep_scheme_matrices,
    lee_scheme,
    scheme_report,
    verify_axioms,
)


def complete_scheme(n):
    return [SymMat.identity(n), SymMat(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))]


class TestVerifyAxioms:
    def test_complete_graph_scheme(self):
        s = verify_axioms(complete_scheme(4))
        assert s.r == 1
        assert s.p_numbers[0, 1, 1] == 3  # each vertex has 3 neighbours

    def test_cycle_distance_scheme(self):
        s = verify_axioms(distance_matrices(Graph.cycle(5)))
        assert s.r == 2
        assert s.valencies == [1, 2, 2]

    def test_path_family_fails(self):
        a = Graph.path(3).adjacency()
        comp = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int) - a
        with pytest.raises(AxiomViolation) as err:
            verify_axioms([SymMat.identity(3), SymMat(a), SymMat(comp)])
        assert err.value.axiom == "iv"

    def test_axiom_i_failures(self):
        with pytest.raises(AxiomViolation):
            verify_axioms([SymMat.ones(2)])
        with pytest.raises(AxiomViolation):
            verify_axioms([SymMat.identity(2), SymMat.identity(2)])


class TestDistanceMatrices:
    def test_c5(self):
        mats = distance_matrices(Graph.cycle(5))
        assert len(mats) == 3
        assert np.array_equal(mats[1].ints, Graph.cycle(5).adjacency())

    def test_k4(self):
        mats = distance_matrices(Graph.complete(4))
        assert len(mats) == 2

    def test_c6_antipodal(self):
        mats = distance_matrices(Graph.cycle(6))
        assert len(mats) == 4
        assert np.array_equal(mats[3].ints.sum(axis=1), np.ones(6, dtype=int))

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            distance_matrices(Graph.empty(3))


class TestIdempotents:
    def test_complete_graph(self):
        s = verify_axioms(complete_scheme(3))
        es, residuals = idempotents(s)
        assert np.max(np.abs(es[0].array - np.ones((3, 3)) / 3)) < 1e-12
        assert np.max(np.abs(es[1].array - (np.eye(3) - np.ones((3, 3)) / 3))) < 1e-12
        assert all(v <= 1e-8 for v in residuals.values())

    def test_cycle_ranks(self):
        s = verify_axioms(distance_matrices(Graph.cycle(5)))
        assert s.multiplicities == [1, 2, 2]
        _, residuals = idempotents(s)
        assert all(v <= 1e-8 for v in residuals.values())

    def test_c7_sum_identity(self):
        s = verify_axioms(distance_matrices(Graph.cycle(7)))
        _, residuals = idempotents(s)
        assert len(s.projectors) == 4
        assert residuals["sum_to_identity"] <= 1e-8


class TestLeeScheme:
    def test_n5_duals(self):
        s = lee_scheme(5)
        assert s.r == 2
        assert np.allclose(s.eigen_q[0, 1:], 2.0, atol=1e-8)
        assert np.allclose(s.eigen_q[:, 0], 1.0, atol=1e-8)

    def test_n7(self):
        assert lee_scheme(7).r == 3

    def test_even_rejected(self):
        with pytest.raises(EvenOrder):
            lee_scheme(4)

    def test_matches_distance_construction(self):
        for n in (5, 7, 9):
            s = lee_scheme(n)
            direct = verify_axioms(distance_matrices(Graph.cycle(n)))
            assert np.max(np.abs(s.eigen_q - direct.eigen_q)) < 1e-8

    def test_cycle_recurrence(self):
        # X_2 = X_1^2 - 2I and X_1 X_i = X_{i+1} + X_{i-1} reproduce the
        # distance matrices exactly
        for n in (5, 7, 9, 11):
            mats = [m.ints for m in distance_matrices(Graph.cycle(n))]
            x1 = mats[1]
            assert np.array_equal(mats[2], x1 @ x1 - 2 * np.eye(n, dtype=np.int64))
            for i in range(2, len(mats) - 1):
                assert np.array_equal(x1 @ mats[i], mats[i + 1] + mats[i - 1])


class TestKepScheme:
    @pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 2)])
    def test_q_matches_closed_form(self, m, k):
        s = verify_axioms(kep_scheme_matrices(m, k))
        assert np.max(np.abs(s.eigen_q - kep_scheme_eigen(m, k))) < 1e-8

    def test_closed_form_examples(self):
        assert kep_scheme_eigen(2, 2).tolist() == [[1, 2, 1], [1, 0, -1], [1, -2, 1]]
        for m, k in [(2, 2), (4, 3), (3, 5)]:
            assert all(kep_scheme_eigen(m, k)[:, 0] == 1)

    @pytest.mark.parametrize("m,k", [(-1, 2), (0, 2), (2, 0)])
    def test_needs_a_class_of_one_vertex_or_more(self, m, k):
        # m = -1 raised a numpy ValueError; m = 0 or k = 0 gave empty matrices
        with pytest.raises(PreconditionViolated):
            kep_scheme_matrices(m, k)

    def test_duality_orthogonality(self):
        # columns of Q are orthogonal under the valency weights:
        # Q^T diag(k_i) Q = n diag(m_j)
        s = verify_axioms(kep_scheme_matrices(2, 3))
        q = s.eigen_q
        dk = np.diag(s.valencies)
        dm = np.diag(s.multiplicities)
        assert np.max(np.abs(q.T @ dk @ q - s.n * dm)) < 1e-8


def test_scheme_report_shape():
    s = verify_axioms(complete_scheme(3))
    rep = scheme_report(s)
    assert rep["n"] == 3 and rep["r"] == 1
    assert len(rep["Q"]) == 2 and len(rep["intersection_numbers"]) == 2


class TestEigenmatrixDuality:
    @pytest.mark.parametrize("mats", [
        "complete4", "cycle5", "cycle7", "kep23",
    ])
    def test_p_q_inverse_pair(self, mats):
        if mats == "complete4":
            s = verify_axioms(complete_scheme(4))
        elif mats == "cycle5":
            s = verify_axioms(distance_matrices(Graph.cycle(5)))
        elif mats == "cycle7":
            s = verify_axioms(distance_matrices(Graph.cycle(7)))
        else:
            s = verify_axioms(kep_scheme_matrices(2, 3))
        # the two eigenmatrices are inverse to each other up to a factor n
        prod = s.eigen_q @ s.eigen_p
        assert np.max(np.abs(prod - s.n * np.eye(s.r + 1))) < 1e-8
