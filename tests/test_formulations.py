import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit import model as model_module
from misdpkit import search
from misdpkit.errors import NegativeCapacity
from misdpkit.formulations import (
    QcqpInstance,
    Qmp1Instance,
    Qmp2Instance,
    bordered_pencil,
    build_bsdp_qcqp,
    build_bsdp_qmp1,
    build_bsdp_qmp2,
    matrix_lift,
    mname,
    pname,
    shared_pencil,
    xname,
)
from misdpkit.linalg import SymMat, is_psd, num_rank
from misdpkit.model import validate
from misdpkit.verify import natural_optimum, optima_match, oracle, solve_by_enumeration


def rand_sym(rng, n, lo, hi):
    a = rng.integers(lo, hi + 1, (n, n))
    return np.tril(a) + np.tril(a, -1).T


def draw_sym(data, n, lo, hi):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = data.draw(st.integers(lo, hi))
    return a


def draw_ints(data, shape, lo, hi):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                    dtype=np.int64).reshape(shape)


def exact_psd_at(pencil, values):
    """`pencil.is_psd_at(values)`, failing if it leaves the exact route."""
    assert pencil.integral
    with mock.patch.object(model_module, "is_psd", wraps=is_psd) as float_route:
        psd = pencil.is_psd_at(values)
    assert float_route.call_count == 0
    return psd


class TestLiftExactness:
    """The lift theorem: at binary points that satisfy the diagonal tie, the
    lifted pencil is PSD iff the lifted block is the Gram matrix."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matrix_lift(self, data):
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        # binary P whose rows hold at most one 1, so X_ii = sum_a P_ia is binary
        p = np.zeros((n, k), dtype=np.int64)
        for i, a in enumerate(data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))):
            if a >= 0:
                p[i, a] = 1
        x = p @ p.T
        if not data.draw(st.booleans()):
            x = draw_sym(data, n, 0, 1)
            np.fill_diagonal(x, p.sum(axis=1))
        _, ties, pencil = matrix_lift(n, k)
        values = {pname(i, a): int(p[i, a]) for i in range(n) for a in range(k)}
        values.update({mname("X", i, j): int(x[i, j]) for i in range(n) for j in range(i, n)})
        assert all(sum(c * values[v] for v, c in row.coeffs) == row.rhs for row in ties)
        assert exact_psd_at(pencil, values) == np.array_equal(x, p @ p.T)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bordered_lift(self, data):
        n = data.draw(st.integers(1, 4))
        x = draw_ints(data, (n,), 0, 1)
        gram = np.outer(x, x)
        lifted = gram if data.draw(st.booleans()) else draw_sym(data, n, 0, 1)
        values = {xname(i): int(x[i]) for i in range(n)}
        values.update({mname("X", i, j): int(lifted[i, j]) for i in range(n) for j in range(i + 1, n)})
        off = ~np.eye(n, dtype=bool)
        assert exact_psd_at(bordered_pencil(n, 1.0), values) == np.array_equal(lifted[off], gram[off])


class TestQcqp:
    def test_stable_set_k2(self):
        inst = QcqpInstance(
            2,
            np.zeros((2, 2), dtype=int),
            np.array([-1, -1]),
            quads=[(np.array([[0, 1], [1, 0]]), None, 0)],
        )
        m = build_bsdp_qcqp(inst)
        assert validate(m) == []
        res = solve_by_enumeration(m)
        assert res.optimum == -1  # max stable set of K_2 is 1

    def test_single_variable(self):
        inst = QcqpInstance(1, np.zeros((1, 1), dtype=int), np.array([1]))
        res = solve_by_enumeration(build_bsdp_qcqp(inst))
        assert res.optimum == 0

    def test_compact_same_feasible_set(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            n = 3
            a1, a2 = rng.integers(-2, 3, n), rng.integers(-2, 3, n)
            x_star = rng.integers(0, 2, n)
            inst = QcqpInstance(
                n,
                rand_sym(rng, n, -2, 2),
                rng.integers(-2, 3, n),
                lin_eq=[(a1, int(a1 @ x_star)), (a2, int(a2 @ x_star))],
            )
            plain = solve_by_enumeration(build_bsdp_qcqp(inst, compact=False))
            compact = solve_by_enumeration(build_bsdp_qcqp(inst, compact=True))
            assert plain.feasible_count == compact.feasible_count
            assert plain.optimum == compact.optimum

    def test_compact_row_of_exact_data_is_exact_and_left_to_the_checker(self):
        # a + b = 1 aggregates to -x0 - x1 + 2 X01 == -1, summed in ints
        inst = QcqpInstance(2, np.zeros((2, 2), dtype=int), lin_eq=[(np.array([1, 1]), 1)])
        m = build_bsdp_qcqp(inst, compact=True)
        (row,) = [r for r in m.rows if r.label == "aggregated"]
        assert row.coeffs == (("x[0]", -1), ("x[1]", -1), ("X[0,1]", 2)) and row.rhs == -1
        assert {type(v) for v in (row.rhs, *(c for _, c in row.coeffs))} == {int}
        plan = search._Plan(m, budget=10)
        assert id(row) in plan.decided and plan.check.rows == []
        # a/2 + b = 1/2 gives Fractions
        half = Fraction(1, 2)
        inst = QcqpInstance(2, np.zeros((2, 2), dtype=int), lin_eq=[(np.array([half, 1]), half)])
        (row,) = build_bsdp_qcqp(inst, compact=True).rows
        assert row.coeffs == (("x[0]", Fraction(-1, 4)), ("X[0,1]", 1)) and row.rhs == Fraction(-1, 4)

    def test_aggregated_row_iff_all_equalities(self):
        # binary points: the Gram-aggregated equality holds iff every source
        # equality does (exhaustive over n <= 3, p <= 2, random integer data)
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            rows = [(rng.integers(-3, 4, n), int(rng.integers(-3, 4))) for _ in range(p)]
            s = np.zeros((n + 1, n + 1))
            for a, b in rows:
                v = np.concatenate([[-float(b)], a.astype(float)])
                s += np.outer(v, v)
            for bits in itertools.product((0, 1), repeat=n):
                x = np.array(bits)
                y = np.concatenate([[1.0], x.astype(float)])
                agg = float(y @ s @ y)
                all_eq = all(int(a @ x) == b for a, b in rows)
                assert (abs(agg) < 1e-9) == all_eq

    def test_equivalence_random_family(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            inst = QcqpInstance(
                n,
                rand_sym(rng, n, -3, 3),
                rng.integers(-3, 4, n),
                quads=[(rand_sym(rng, n, 0, 2), None, int(rng.integers(1, 8)))],
            )
            res = solve_by_enumeration(build_bsdp_qcqp(inst))
            orc = oracle("qcqp", inst)
            assert res.optimum == orc.optimum
            assert res.feasible_count == orc.feasible_count


class TestQmp1:
    def test_mkcs_triangle(self):
        q0 = -np.eye(3, dtype=int)
        edges = [(0, 1), (0, 2), (1, 2)]
        quads = [(np.array([[int({i, j} == {u, v}) for j in range(3)] for i in range(3)]), 0)
                 for u, v in edges]
        inst = Qmp1Instance(3, 2, q0, quads=quads)
        m = build_bsdp_qmp1(inst)
        res = solve_by_enumeration(m)
        assert res.optimum == -2  # triangle has a 2-colorable subgraph of size 2

    def test_full_trace(self):
        inst = Qmp1Instance(3, 3, -np.eye(3, dtype=int))
        assert solve_by_enumeration(build_bsdp_qmp1(inst)).optimum == -3

    def test_zero_capacity(self):
        inst = Qmp1Instance(2, 2, -np.eye(2, dtype=int), caps=[(np.ones(2, dtype=int), 0)])
        res = solve_by_enumeration(build_bsdp_qmp1(inst))
        # nothing can be covered: only the zero matrix survives the capacity
        assert res.optimum == 0 and res.feasible_count == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(NegativeCapacity):
            Qmp1Instance(2, 1, np.zeros((2, 2), dtype=int), caps=[(np.ones(2, dtype=int), -1)])

    def test_equivalence_random_family(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            inst = Qmp1Instance(
                n, k, rand_sym(rng, n, -2, 2),
                quads=[(rand_sym(rng, n, 0, 2), -int(rng.integers(2, 9)))],
                caps=[(rng.integers(0, 3, n), int(rng.integers(1, 5)))],
                partition=bool(trial % 2) and k >= n // 2 + 1,
            )
            res = solve_by_enumeration(build_bsdp_qmp1(inst))
            orc = oracle("qmp1", inst)
            assert res.optimum == orc.optimum
            assert res.feasible_count == orc.feasible_count

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_the_family(self, data):
        # zero, tied and negative Q0; capacities from 0; partition at every k.
        # The pencil is the shared bordered_pencil(n, k) of mkcs as well, so
        # its memo answers for models with other rows
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(["zero", "tied", "drawn"]))
        q0 = draw_sym(data, n, -2, 2) if kind == "drawn" else np.full((n, n), 0 if kind == "zero" else -1)
        quads = [(draw_sym(data, n, 0, 1), -data.draw(st.integers(0, 4)))] if data.draw(st.booleans()) else []
        caps = [(draw_ints(data, (n,), 0, 2), data.draw(st.integers(0, 3)))] if data.draw(st.booleans()) else []
        inst = Qmp1Instance(n, k, q0, quads=quads, caps=caps, partition=data.draw(st.booleans()))
        res = solve_by_enumeration(build_bsdp_qmp1(inst))
        orc = oracle("qmp1", inst)
        assert res.optimum == orc.optimum
        assert res.feasible_count == orc.feasible_count


class TestQmp2:
    def test_qmkp_shape(self):
        # one knapsack of capacity 1, two unit items with unit profits
        inst = Qmp2Instance(
            2, 1,
            np.zeros((2, 2), dtype=int),
            -0.5 * np.ones((2, 1)),
            constraints=[(np.zeros((2, 2), dtype=int), 0.5 * np.ones((2, 1)), -1)],
        )
        res = solve_by_enumeration(build_bsdp_qmp2(inst))
        assert natural_optimum(build_bsdp_qmp2(inst), res.optimum) == res.optimum == -1

    def test_trivial(self):
        inst = Qmp2Instance(1, 1, np.zeros((1, 1), dtype=int))
        assert solve_by_enumeration(build_bsdp_qmp2(inst)).optimum == 0

    def test_equivalence_random_family(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(1, 3))
            inst = Qmp2Instance(
                n, k, rand_sym(rng, n, -2, 2), rng.integers(-2, 3, (n, k)),
                int(rng.integers(-2, 3)),
                constraints=[
                    (rand_sym(rng, n, 0, 1), rng.integers(0, 2, (n, k)), -int(rng.integers(3, 9)))
                ],
                partition=bool(rng.integers(0, 2)),
            )
            res = solve_by_enumeration(build_bsdp_qmp2(inst))
            orc = oracle("qmp2", inst)
            assert res.optimum == orc.optimum
            assert res.feasible_count == orc.feasible_count

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_the_family(self, data):
        n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        inst = Qmp2Instance(
            n, k, draw_sym(data, n, -2, 2), draw_ints(data, (n, k), -2, 2),
            data.draw(st.integers(-2, 2)),
            constraints=[(draw_sym(data, n, -1, 1), draw_ints(data, (n, k), -1, 1),
                          data.draw(st.integers(-4, 1)))],
            partition=data.draw(st.booleans()),
            exact_rank=data.draw(st.booleans()),
        )
        m = build_bsdp_qmp2(inst)
        res = solve_by_enumeration(m)
        orc = oracle("qmp2", inst)
        assert optima_match(orc.optimum, natural_optimum(m, res.optimum))
        assert res.feasible_count == orc.feasible_count

    def test_exact_rank_forces_rank_k(self):
        inst = Qmp2Instance(3, 2, np.zeros((3, 3), dtype=int), exact_rank=True)
        m = build_bsdp_qmp2(inst)
        res = solve_by_enumeration(m)
        assert res.feasible_count > 0
        # the objective is identically zero, so every feasible point is a minimizer
        for point in res.minimizers:
            x = np.zeros((3, 3))
            for i in range(3):
                for j in range(i, 3):
                    x[i, j] = x[j, i] = point[f"X[{i},{j}]"]
            assert num_rank(SymMat(x, check_symmetry=False)) == 2


class TestSharedPencils:
    """`shared_pencil`: one pencil object per content, for every builder."""

    def test_two_builds_of_one_shape_share_every_pencil(self):
        from test_verify import _one_model_per_builder

        first, second = _one_model_per_builder(), _one_model_per_builder()
        for a, b in zip(first, second):
            assert len(a.pencils) == len(b.pencils)
            assert all(p is q for p, q in zip(a.pencils, b.pencils))

    def test_distinct_content_gets_its_own_pencil(self):
        from misdpkit.problems import build_matrix_completion

        def pencil(observed):
            return build_matrix_completion((2, 2), observed, [0, 1]).pencils[0]

        assert pencil({(0, 0): 1}) is pencil({(0, 0): 1})
        assert pencil({(0, 0): 1}) is not pencil({(0, 1): 1})
        # equal values of another type keep their own exact entries
        half, float_half = pencil({(0, 0): Fraction(1, 2)}), pencil({(0, 0): 0.5})
        assert half is not float_half
        assert [type(x) for _, _, x in half.entries[0]] == [Fraction]
        assert [type(x) for _, _, x in float_half.entries[0]] == [float]
        terms = [("t", [(0, 0, 1)])]
        assert shared_pencil(2, [(0, 1, 1)], terms) is not shared_pencil(3, [(0, 1, 1)], terms)

    def test_lift_helpers_keep_their_pencils_by_arguments(self):
        from misdpkit.formulations import lift_pencil

        # equal arguments give the identical pencil, also past the helpers'
        # own cache (the default prefix given or not)
        assert bordered_pencil(3, 2) is bordered_pencil(3, 2)
        assert lift_pencil(3, 2) is lift_pencil(3, 2) is lift_pencil(3, 2, "X") is lift_pencil(3, 2, prefix="X")
        assert lift_pencil(3, 2, "X1") is not lift_pencil(3, 2)
        # a corner's type parts pencils as shared_pencil parts them
        corners = (1, 1.0, Fraction(1), True)
        pencils = [bordered_pencil(3, c) for c in corners]
        assert len(set(map(id, pencils))) == len(corners)
        for c, p in zip(corners, pencils):
            assert p is bordered_pencil(3, c) is shared_pencil(4, [(0, 0, c)], p.terms)
        # an unhashable corner builds anew, and is refused by name as before
        for corner in (np.array(1), [1]):
            with pytest.raises(ValueError, match="not a real number"):
                bordered_pencil(2, corner)
        # clearing the shared pencils clears the helpers: a fresh pencil with empty memos
        kept, lifted = bordered_pencil(3, 2), lift_pencil(2, 2)
        kept._psd[(0,)] = True
        shared_pencil.cache_clear()
        assert bordered_pencil(3, 2) is not kept and bordered_pencil(3, 2)._psd == {}
        assert lift_pencil(2, 2) is not lifted

    def test_an_unhashable_value_is_refused_by_name(self):
        from misdpkit.problems import build_matrix_completion

        for value in (np.array(1), [1]):
            with pytest.raises(ValueError, match="not a real number"):
                build_matrix_completion((2, 2), {(0, 0): value}, [0, 1])
