import dataclasses
import itertools
from fractions import Fraction

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_formulations import NUMBER_KINDS, draw_ints, draw_sym, draw_sym_of

from misdpkit.errors import (
    DimensionMismatch,
    EvenOrder,
    InfeasibleItem,
    ParseError,
    PreconditionViolated,
    SizeMismatch,
    UnsupportedDomain,
    VariantPrecondition,
)
from misdpkit.formulations import (
    QcqpInstance,
    Qmp1Instance,
    Qmp2Instance,
    build_bsdp_qcqp,
    build_bsdp_qmp1,
    build_bsdp_qmp2,
    instance_array,
    qcqp_from_json,
    qmp1_from_json,
    qmp2_from_json,
    upper,
)
from misdpkit.linalg import SymMat, dumps_matrix, load_matrix, num_rank
from misdpkit.model import MatrixPencil
from misdpkit.problems import (
    GPP_VARIANTS,
    Graph,
    GppInstance,
    QapInstance,
    build_gpp,
    build_kep_assoc,
    build_matrix_completion,
    build_mkcs,
    build_qap,
    build_qbpp,
    build_qmkp,
    build_sils,
    build_stable_set,
    build_tsp_cvetkovic,
    build_tsp_lee,
    build_tsp_qap,
    cycle_adjacency,
    graph_from_dimacs,
    graph_to_dimacs,
    parse_qaplib,
    qbpp_from_json,
    qmkp_from_json,
)
from misdpkit.verify import natural_optimum, optima_match, oracle, solve_by_enumeration


def solve(model, budget=10**7):
    res = solve_by_enumeration(model, budget=budget)
    return natural_optimum(model, res.optimum), res


def metric(n, rng=None, lo=1, hi=9):
    rng = rng or np.random.default_rng(0)
    d = rng.integers(lo, hi + 1, (n, n))
    return np.tril(d, -1) + np.tril(d, -1).T


class TestGraph:
    def test_dimacs_round_trip(self):
        g = Graph.cycle(5)
        assert graph_from_dimacs(graph_to_dimacs(g)) == g

    def test_dimacs_weighted(self):
        text = "c comment\np edge 3 2\ne 1 2 4\ne 2 3 1\n"
        g = graph_from_dimacs(text)
        assert g.weights[0, 1] == 4 and g.weights[1, 2] == 1

    def test_dimacs_errors(self):
        with pytest.raises(ParseError):
            graph_from_dimacs("e 1 2\n")
        with pytest.raises(ParseError):
            graph_from_dimacs("p edge 2 1\nq 1 2\n")

    @pytest.mark.parametrize("text,line", [
        ("p edge 3 1\ne 2\n", 2),          # truncated edge
        ("p edge x 1\n", 1),                # non-integer vertex count
        ("p edge 3 1\ne a b\n", 2),        # non-integer endpoints
        ("p edge 3 1\ne 1 2 w\n", 2),      # non-numeric weight
        ("p edge 3 1\ne 1 2 inf\n", 2),    # non-finite weight
        ("p edge 3 1\ne 1 9\n", 2),        # endpoint outside 1..n
        ("p edge 3 1\ne 0 1\n", 2),        # endpoints are 1-based
        ("p edge 3 1\ne 2 2\n", 2),        # loop
        ("p edge 3 2\ne 1 2\ne 2 1\n", 3),  # repeated edge
        ("p edge -1 0\n", 1),
        ("p edge 3 0\np edge 2 0\n", 2),
    ])
    def test_dimacs_malformed_lines(self, text, line):
        with pytest.raises(ParseError) as info:
            graph_from_dimacs(text)
        assert info.value.line == line

    def test_laplacian(self):
        lap = Graph.cycle(4).laplacian()
        assert np.array_equal(np.diag(lap), [2, 2, 2, 2])
        assert lap.sum() == 0

    def test_integral_weights_past_2_53_stay_floats(self):
        g = graph_from_dimacs("p edge 2 1\ne 1 2 1e20\n")
        assert g.weights.dtype == np.float64 and g.weights[0, 1] == 10**20
        g = graph_from_dimacs(f"p edge 2 1\ne 1 2 {2**53 - 1}\n")
        assert g.weights.dtype == np.int64 and g.weights[0, 1] == 2**53 - 1

    def test_integer_weights_past_int64_stay_exact(self):
        big = 2**63 + 1  # numpy holds it, mixed with smaller ints, as the float 2**63
        g = Graph.make(2, [(0, 1)], [[0, big], [big, 0]])
        assert g.weights.dtype == object and g.weights.tolist() == [[0, big], [big, 0]]
        assert g.laplacian().tolist() == [[big, -big], [-big, big]]
        # ints that int64 holds stay int64, floats float64
        assert Graph.make(2, [(0, 1)], [[0, 2**62], [2**62, 0]]).weights.dtype == np.int64
        assert Graph.make(2, [(0, 1)], [[0, 0.5], [0.5, 0]]).weights.dtype == np.float64

    def test_laplacian_degrees_do_not_wrap(self):
        # the path 0-1-2-3 with weights 2^62: the inner degrees are 2^63
        w = 2**62
        g = Graph.make(4, [(0, 1), (1, 2), (2, 3)], [[0, w, 0, 0], [w, 0, w, 0], [0, w, 0, w], [0, 0, w, 0]])
        assert np.diag(g.laplacian()).tolist() == [w, 2 * w, 2 * w, w]
        coeffs = build_gpp(GppInstance.make(g, 2, (2, 2)), "equipartition").objective.coeffs
        assert coeffs["X[1,1]"] == w and coeffs["X[0,1]"] == -w

    def test_equality_reads_the_weight_values(self):
        def weighted(w):
            return Graph.make(3, [(0, 1)], [[0, w, 0], [w, 0, 0], [0, 0, 0]])

        assert weighted(2) == weighted(2.0) == weighted(Fraction(2))
        assert len({weighted(2), weighted(2.0), weighted(Fraction(2))}) == 1
        assert weighted(1) == Graph.make(3, [(0, 1)]) and hash(weighted(1)) == hash(Graph.make(3, [(0, 1)]))
        assert weighted(2) != weighted(3) and weighted(2) != Graph.make(3, [(0, 1)])
        assert Graph.make(3, [(0, 1)]) != Graph.make(3, [(1, 2)]) != Graph.make(4, [(1, 2)])
        assert Graph.make(3, [(0, 1)]) != ((0, 1),)


# edge weights of each kind DIMACS holds; past 2^63, integers that a float holds exactly
_DIMACS_WEIGHTS = {
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "past 2^63": st.builds(lambda m, e, sign: sign * m * 2**e, st.integers(2**52, 2**53 - 1),
                           st.integers(11, 200), st.sampled_from([1, -1])),
}


def _qaplib_text(a, b):
    """The QAPLIB layout: n, then the rows of A, then the rows of B."""
    rows = "\n".join(" ".join(map(str, row)) for row in [*a, [], *b])
    return f"{len(a)}\n\n{rows}\n"


class TestReaderRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([None, *_DIMACS_WEIGHTS]))
    def test_dimacs(self, data, kind):
        n = data.draw(st.integers(1, 6))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        w = None
        if kind is not None:
            w = [[0] * n for _ in range(n)]
            for u, v in edges:
                w[u][v] = w[v][u] = data.draw(_DIMACS_WEIGHTS[kind])
        g = Graph.make(n, edges, w)
        again = graph_from_dimacs(graph_to_dimacs(g))
        assert again == g and hash(again) == hash(g)
        assert (again.weights is None) == (kind is None or not edges)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["int", "big int", "float"]))
    def test_qaplib(self, data, kind):
        numbers = {"int": st.integers(-99, 99), "big int": st.integers(-2**70, 2**70),
                   "float": st.floats(-1e6, 1e6, allow_nan=False)}[kind]
        n = data.draw(st.integers(1, 4))
        a, b = draw_sym_of(data, n, numbers), draw_sym_of(data, n, numbers)
        inst = parse_qaplib(_qaplib_text(a, b))
        assert inst.n == n and inst.a.tolist() == a and inst.b.tolist() == b and not inst.c.any()
        assert all(type(v) is (float if kind == "float" else int) for v in inst.a.tolist()[0] + inst.b.tolist()[0])

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(["int", "float"]))
    def test_distance_matrix(self, tmp_path_factory, data, kind):
        numbers = st.integers(0, 2**53 - 1) if kind == "int" else st.floats(0, 1e9, allow_nan=False)
        n = data.draw(st.integers(1, 5))
        d = np.array(draw_sym_of(data, n, numbers))
        np.fill_diagonal(d, 0)
        path = tmp_path_factory.mktemp("dist") / "d.txt"
        path.write_text(dumps_matrix(d))
        m = load_matrix(path)
        assert np.array_equal(m.array, d)
        assert (m.ints is not None) == (kind == "int" or np.array_equal(d, np.rint(d)))


class TestQaplib:
    def test_parse(self):
        text = "3\n\n0 1 2\n1 0 1\n2 1 0\n\n0 2 1\n2 0 2\n1 2 0\n"
        inst = parse_qaplib(text)
        assert inst.n == 3 and inst.a[0, 2] == 2 and inst.b[1, 2] == 2

    def test_integer_tokens_past_int64_stay_exact(self):
        big = 2**63 + 1  # numpy would hold it as the float 2**63
        inst = parse_qaplib(f"2\n0 {big}\n{big} 0\n0 1\n1 0\n")
        assert inst.a.tolist() == [[0, big], [big, 0]] and inst.b.tolist() == [[0, 1], [1, 0]]

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_qaplib("")
        with pytest.raises(ParseError):
            parse_qaplib("3\n1 2 3\n")

    @pytest.mark.parametrize("text", ["2.5 1", "0", "-1 1 2"])
    def test_bad_size(self, text):
        with pytest.raises(ParseError, match="is not a positive integer"):
            parse_qaplib(text)

    @pytest.mark.parametrize("text", ["1e400 1", "nan 1 2", "2 0 inf inf 0 0 1 1 0"])
    def test_non_finite_token(self, text):
        with pytest.raises(ParseError, match="is not a finite number"):
            parse_qaplib(text)


class TestStableSet:
    def test_spec_examples(self):
        assert solve(build_stable_set(Graph.complete(3)))[0] == 1
        assert solve(build_stable_set(Graph.cycle(5)))[0] == 2
        assert solve(build_stable_set(Graph.empty(3)))[0] == 3

    def test_counts_match_oracle(self):
        g = Graph.cycle(5)
        _, res = solve(build_stable_set(g))
        assert res.feasible_count == oracle("stable_set", g).feasible_count == 11

    def test_graphs_of_one_order_share_one_read_only_pencil(self):
        a, b = build_stable_set(Graph.cycle(5)), build_stable_set(Graph.complete(5))
        assert a.rows != b.rows and a.pencils[0] is b.pencils[0]
        assert build_stable_set(Graph.cycle(4)).pencils[0] is not a.pencils[0]
        # read-only: the entries are nested tuples, and an evaluate result is a fresh array
        pencil = a.pencils[0]
        assert type(pencil.entries) is tuple and all(type(t) is tuple for e in pencil.entries for t in (e, *e))
        values = {name: 1 for name, _ in pencil.terms}
        first = pencil.evaluate(values)
        again = first.copy()
        first[0, 0] = 2.0
        assert np.array_equal(pencil.evaluate(values), again)


class TestMkcs:
    def test_spec_examples(self):
        assert solve(build_mkcs(Graph.complete(3), 2))[0] == 2
        g = Graph.cycle(5)
        assert solve(build_mkcs(g, 5))[0] == 5
        assert solve(build_mkcs(g, 2))[0] == 4


class TestQbpp:
    def test_spec_examples(self):
        z0 = np.zeros((2, 2), dtype=int)
        assert abs(solve(build_qbpp([1, 1], 2, 1, z0))[0] - 1) < 1e-6
        assert abs(solve(build_qbpp([2, 2], 2, 1, z0))[0] - 2) < 1e-6
        one = np.zeros((1, 1), dtype=int)
        assert abs(solve(build_qbpp([1], 5, 3, one))[0] - 3) < 1e-6

    def test_infeasible_item(self):
        with pytest.raises(InfeasibleItem):
            build_qbpp([3, 1], 2, 1, np.zeros((2, 2), dtype=int))

    def test_split_instance_bin_count(self):
        # forced split: the resolved scalar sits at the rank of the packing
        _, res = solve(build_qbpp([2, 2], 2, 1, np.zeros((2, 2), dtype=int)))
        assert abs(res.minimizers[0]["z"] - 2) < 1e-5

    def test_bisection_boundary(self):
        # the resolved scalar is feasible, and infeasible when nudged down
        from misdpkit.linalg import is_psd

        m = build_qbpp([1, 1], 2, 1, np.zeros((2, 2), dtype=int))
        _, res = solve(m)
        point = dict(res.minimizers[0])
        z = point["z"]
        pencil = m.pencils[0]
        assert is_psd(pencil.evaluate(point))
        point["z"] = z - 1e-6 * max(1.0, abs(z))
        assert not is_psd(pencil.evaluate(point))  # at the default tolerance

    def test_zero_bin_cost(self):
        # z is unpriced and sits at its boundary; the objective is the dissimilarity alone
        d = [[0, 1], [1, 0]]
        got, res = solve(build_qbpp([1, 1], 2, 0, d))
        orc = oracle("qbpp", [1, 1], 2, 0, d)
        assert orc.optimum == 0 and optima_match(orc.optimum, got)
        assert res.feasible_count == orc.feasible_count == 2

    def test_negative_bin_cost_is_refused(self):
        # with a negative price z has no upper bound, so the model is unbounded
        with pytest.raises(PreconditionViolated, match="bin_cost"):
            build_qbpp([1, 1], 2, -1, np.zeros((2, 2), dtype=int))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_the_suite(self, data):
        n = data.draw(st.integers(2, 4))
        w = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        cap = data.draw(st.integers(max(w), sum(w)))
        cost = data.draw(st.integers(0, 3))
        kind = data.draw(st.sampled_from(["zero", "tied", "drawn"]))
        tied = data.draw(st.integers(1, 3)) if kind == "tied" else 0
        d = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                d[i, j] = d[j, i] = data.draw(st.integers(0, 3)) if kind == "drawn" else tied
        got, res = solve(build_qbpp(w, cap, cost, d))
        orc = oracle("qbpp", w, cap, cost, d)
        assert optima_match(orc.optimum, got)
        assert res.feasible_count == orc.feasible_count


_QBPP = {"weights": [1, 2], "capacity": 3, "bin_cost": 1.5, "dissimilarity": [[0, 1], [1, 0]]}
_QMKP = {"weights": [1, 2], "capacities": [2, 3], "profits": [1, 0], "revenue": [[0, 1], [1, 0]]}
_QCQP = {"n": 2, "Q0": [[0, 1], [1, 0]], "c0": [1, -1]}
_QMP1 = {"n": 2, "k": 2, "Q0": [[0, 1], [1, 0]], "partition": True}
_QMP2 = {"n": 2, "k": 2, "Q0": [[0, 1], [1, 0]], "B0": [[1, 0], [0, 1]], "d0": 1, "exact_rank": False}


class TestInstanceJson:
    def test_well_formed_fields_pass_through(self):
        assert qbpp_from_json(_QBPP) == (_QBPP["weights"], 3, 1.5, _QBPP["dissimilarity"])
        assert qmkp_from_json(_QMKP) == tuple(_QMKP.values())
        assert qcqp_from_json(_QCQP).c0.tolist() == [1, -1]
        assert qmp1_from_json(_QMP1).partition is True
        inst = qmp2_from_json(_QMP2)
        assert inst.b0.tolist() == _QMP2["B0"] and inst.d0 == 1 and inst.exact_rank is False

    @pytest.mark.parametrize("reader, base, field, value", [
        (qbpp_from_json, _QBPP, "weights", "ab"),
        (qbpp_from_json, _QBPP, "weights", [1, "2"]),
        (qbpp_from_json, _QBPP, "weights", [1, [2]]),
        (qbpp_from_json, _QBPP, "capacity", [3]),
        (qbpp_from_json, _QBPP, "capacity", True),
        (qbpp_from_json, _QBPP, "bin_cost", None),
        (qbpp_from_json, _QBPP, "bin_cost", float("nan")),
        (qbpp_from_json, _QBPP, "dissimilarity", [[0]]),
        (qbpp_from_json, _QBPP, "dissimilarity", [[0, 1], [1]]),
        (qbpp_from_json, _QBPP, "dissimilarity", [0, 1]),
        (qmkp_from_json, _QMKP, "weights", {"a": 1}),
        (qmkp_from_json, _QMKP, "capacities", 2),
        (qmkp_from_json, _QMKP, "profits", [1]),
        (qmkp_from_json, _QMKP, "profits", [1, float("inf")]),
        (qmkp_from_json, _QMKP, "revenue", [[0, 1], [1, "x"]]),
        (qmkp_from_json, _QMKP, "revenue", [[0, 1, 2], [1, 0, 2]]),
        (qcqp_from_json, _QCQP, "Q0", [[0, "1"], [1, 0]]),
        (qcqp_from_json, _QCQP, "c0", [1, True]),
        (qcqp_from_json, _QCQP, "c0", [1, -1, 0]),
        (qcqp_from_json, _QCQP, "n", 2.9),
        (qcqp_from_json, _QCQP, "n", "2"),
        (qmp1_from_json, _QMP1, "Q0", [[0, "1"], [1, 0]]),
        (qmp1_from_json, _QMP1, "k", 2.0),
        (qmp1_from_json, _QMP1, "partition", "no"),
        (qmp2_from_json, _QMP2, "Q0", [[0, "1"], [1, 0]]),
        (qmp2_from_json, _QMP2, "B0", [[1, "0"], [0, 1]]),
        (qmp2_from_json, _QMP2, "B0", [[1, 0, 0], [0, 1, 0]]),
        (qmp2_from_json, _QMP2, "d0", True),
        (qmp2_from_json, _QMP2, "exact_rank", 1),
    ])
    def test_malformed_field_raises_parse_error(self, reader, base, field, value):
        with pytest.raises(ParseError, match=repr(field)):
            reader(dict(base, **{field: value}))


class TestQmkp:
    def test_spec_examples(self):
        assert solve(build_qmkp([1, 1], [1], [1, 1], np.zeros((2, 2), dtype=int)))[0] == 1
        big = 100 * (np.ones((2, 2), dtype=int) - np.eye(2, dtype=int))
        assert solve(build_qmkp([1, 1], [4], [1, 1], big))[0] == 202
        assert solve(build_qmkp([1, 1], [0], [1, 1], np.zeros((2, 2), dtype=int)))[0] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_the_suite(self, data):
        n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        w = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            c = data.draw(st.lists(st.integers(0, min(w) - 1), min_size=k, max_size=k))
        else:
            c = data.draw(st.lists(st.integers(0, sum(w)), min_size=k, max_size=k))
        kind = data.draw(st.sampled_from(["zero", "tied", "drawn"]))
        if kind == "drawn":
            p = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        else:
            p = [data.draw(st.integers(1, 3)) if kind == "tied" else 0] * n
        r = draw_sym(data, n, 0, 2)
        got, res = solve(build_qmkp(w, c, p, r))
        orc = oracle("qmkp", w, c, p, r)
        assert optima_match(orc.optimum, got)
        assert res.feasible_count == orc.feasible_count


class TestQap:
    def test_spec_examples(self):
        inst = QapInstance.make([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        assert solve(build_qap(inst))[0] == 2
        inst = QapInstance.make([[0]], [[0]], [[7]])
        assert solve(build_qap(inst))[0] == 7

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.integers(0, 4, (3, 3))
            a = np.tril(a) + np.tril(a, -1).T
            b = rng.integers(0, 4, (3, 3))
            b = np.tril(b) + np.tril(b, -1).T
            inst = QapInstance.make(a, b)
            assert solve(build_qap(inst))[0] == oracle("qap", inst).optimum

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_oracle_with_a_linear_term(self, data):
        n = data.draw(st.integers(1, 3))
        inst = QapInstance.make(draw_sym(data, n, -1, 3), draw_sym(data, n, 0, 3),
                                draw_ints(data, (n, n), -2, 3))
        got, res = solve(build_qap(inst))
        orc = oracle("qap", inst)
        assert optima_match(orc.optimum, got)
        assert res.feasible_count == orc.feasible_count == math.factorial(n)

    def test_schur_forcing(self):
        # at every integer-feasible point the Y block equals X B X^T
        inst = QapInstance.make([[0, 1], [1, 0]], [[1, 2], [2, 0]])
        _, res = solve(build_qap(inst))
        for point in res.minimizers:
            x = np.array([[point[f"X[{i},{j}]"] for j in range(2)] for i in range(2)])
            y = np.zeros((2, 2))
            for i in range(2):
                for j in range(i, 2):
                    y[i, j] = y[j, i] = float(point[f"Y[{i},{j}]"])
            assert np.max(np.abs(y - x @ inst.b @ x.T)) <= 1e-7


class TestTsp:
    def test_tsp_qap(self):
        assert solve(build_tsp_qap(metric(3, lo=1, hi=1)))[0] == 3
        d = np.array([
            [0, 1, 2, 1],
            [1, 0, 1, 2],
            [2, 1, 0, 1],
            [1, 2, 1, 0],
        ])
        assert solve(build_tsp_qap(d))[0] == 4
        d5 = metric(5, np.random.default_rng(7))
        assert solve(build_tsp_qap(d5), budget=2**26)[0] == oracle("tsp", d5).optimum

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_tsp_qap_matches_oracle(self, data):
        n = data.draw(st.integers(3, 4))
        d = draw_sym(data, n, 1, 9)
        np.fill_diagonal(d, 0)
        got, res = solve(build_tsp_qap(d))
        orc = oracle("tsp", d)
        assert optima_match(orc.optimum, got)
        # each tour is reached from n starting slots in 2 directions
        assert res.feasible_count == 2 * n * orc.feasible_count

    def test_cvetkovic(self):
        d = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
        opt, res = solve(build_tsp_cvetkovic(d))
        assert opt == 5 and res.feasible_count == 12
        d6 = metric(6, np.random.default_rng(8))
        assert solve(build_tsp_cvetkovic(d6))[0] == oracle("tsp", d6).optimum

    def test_cvetkovic_constant_is_exact_where_rational(self):
        # 2(1 - cos 2pi/n) is 3, 2 and 1 at n = 3, 4 and 6 (Niven); at n = 6 the
        # float is 0.9999999999999998, and that pencil decides the same tours
        for n in (3, 4, 6):
            assert build_tsp_cvetkovic(metric(n)).pencils[0].integral
        five = build_tsp_cvetkovic(metric(5)).pencils[0]
        assert five.exact and not five.integral  # 2 - 2cos(2pi/5) lies in Z[2cos(2pi/5)]
        d = np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)
        m = build_tsp_cvetkovic(d)
        (pencil,) = m.pencils
        alpha = 2.0 * (1.0 - math.cos(2.0 * math.pi / 6))
        const = [(r, c, x if r == c else alpha) for r, c, x in pencil.entries[0]]
        floats = MatrixPencil(6, const, pencil.terms)
        assert alpha != 1 and not floats.integral
        opt, res = solve(m)
        float_opt, float_res = solve(dataclasses.replace(m, pencils=[floats]))
        assert (opt, res.feasible_count) == (float_opt, float_res.feasible_count) == (6, 60)
        assert opt == oracle("tsp", d).optimum

    def test_cvetkovic_rejects_triangle_pair(self):
        # two disjoint triangles satisfy the degree rows but fail the pencil
        m = build_tsp_cvetkovic(np.ones((6, 6), dtype=int) - np.eye(6, dtype=int))
        point = {name: 0 for name, _ in m.variables}
        for u, v in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            point[f"X[{u},{v}]"] = 1
        from misdpkit.model import eval_point

        res = eval_point(m, point)
        assert not res.feasible
        assert any("pencil" in v for v in res.violations)

    def test_lee(self):
        d = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
        assert solve(build_tsp_lee(d))[0] == 5
        rng = np.random.default_rng(9)
        for _ in range(3):
            d5 = metric(5, rng)
            lee = solve(build_tsp_lee(d5))[0]
            cve = solve(build_tsp_cvetkovic(d5))[0]
            assert lee == cve == oracle("tsp", d5).optimum

    def test_lee_n7_matches_tour_oracle(self):
        d7 = metric(7, np.random.default_rng(42))
        opt, res = solve(build_tsp_lee(d7))
        orc = oracle("tsp", d7)
        assert opt == orc.optimum
        assert res.feasible_count == orc.feasible_count == 360

    def test_lee_rejects_even(self):
        with pytest.raises(EvenOrder):
            build_tsp_lee(np.zeros((6, 6)))


class TestGpp:
    def test_spec_examples(self):
        c4 = GppInstance.make(Graph.cycle(4), 2, (2, 2))
        assert solve(build_gpp(c4, "equipartition"))[0] == 2
        p3 = GppInstance.make(Graph.path(3), 2, (2, 1))
        assert solve(build_gpp(p3, "bisection"))[0] == 1
        k4 = GppInstance.make(Graph.complete(4), 2, (2, 2))
        for variant in GPP_VARIANTS:
            assert solve(build_gpp(k4, variant), budget=2**20)[0] == 4

    def test_variant_preconditions(self):
        inst = GppInstance.make(Graph.path(3), 2, (2, 1))
        with pytest.raises(VariantPrecondition):
            build_gpp(inst, "equipartition")
        with pytest.raises(VariantPrecondition):
            build_gpp(GppInstance.make(Graph.complete(4), 2, (2, 2)), "nope")

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_variants_match_oracle_on_weighted_graphs(self, data):
        weights = draw_sym(data, 4, 0, 3)
        np.fill_diagonal(weights, 0)
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4) if weights[i, j]]
        sizes = data.draw(st.sampled_from([(2, 2), (3, 1)]))
        inst = GppInstance.make(Graph.make(4, edges, weights), 2, sizes)
        orc = oracle("gpp", inst)
        # P labels the classes: equal sizes can swap labels
        labelings = math.prod(math.factorial(c) for c in Counter(sizes).values())
        for variant in GPP_VARIANTS:
            if variant == "equipartition" and sizes != (2, 2):
                continue
            got, res = solve(build_gpp(inst, variant), budget=2**20)
            assert optima_match(orc.optimum, got), variant
            per_partition = labelings if variant in ("general", "orthogonal") else 1
            assert res.feasible_count == per_partition * orc.feasible_count, variant

    def test_gbp_block_structure(self):
        from misdpkit.dpsd import block_form01

        inst = GppInstance.make(Graph.complete(4), 2, (3, 1))
        _, res = solve(build_gpp(inst, "bisection"))
        for point in res.minimizers:
            x = np.zeros((4, 4), dtype=np.int64)
            for i in range(4):
                for j in range(i, 4):
                    x[i, j] = x[j, i] = round(point[f"X[{i},{j}]"])
            mass = int(x.sum())
            assert mass == 3 * 3 + 1 * 1
            _, sizes, n_z = block_form01(SymMat(x, check_symmetry=False))
            assert len(sizes) == 2 and n_z == 0


class TestKepAssoc:
    def test_gep_correspondence(self):
        inst = GppInstance.make(Graph.cycle(4), 2, (2, 2))
        gep_opt, gep = solve(build_gpp(inst, "equipartition"))
        kep_opt, kep = solve(build_kep_assoc(inst))
        assert gep_opt == kep_opt
        assert gep.feasible_count == kep.feasible_count

    def test_k4(self):
        inst = GppInstance.make(Graph.complete(4), 2, (2, 2))
        assert solve(build_kep_assoc(inst))[0] == 4

    def test_m1_forces_empty_within(self):
        # k = n classes of size 1: the within-class bound pins X_2 to zero
        inst = GppInstance.make(Graph.complete(3), 3, (1, 1, 1))
        _, res = solve(build_kep_assoc(inst))
        assert res.feasible_count == 1
        point = res.minimizers[0]
        assert all(v == 0 for name, v in point.items() if name.startswith("X2"))

    def test_degree_row_variant_agrees(self):
        inst = GppInstance.make(Graph.cycle(4), 2, (2, 2))
        a = solve(build_kep_assoc(inst, degree_rows=False))
        b = solve(build_kep_assoc(inst, degree_rows=True))
        assert a[0] == b[0] and a[1].feasible_count == b[1].feasible_count

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_the_suite(self, data):
        # zero, tied and negative weights; k = 1 and k = n as well; X2 marks
        # the within-class pairs of an unlabelled partition, one point each
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        kind = data.draw(st.sampled_from(["zero", "tied", "drawn"]))
        weights = draw_sym(data, n, -2, 3) if kind == "drawn" else np.full((n, n), 0 if kind == "zero" else 2)
        np.fill_diagonal(weights, 0)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if weights[i, j]]
        inst = GppInstance.make(Graph.make(n, edges, weights), k, (n // k,) * k)
        got, res = solve(build_kep_assoc(inst, degree_rows=data.draw(st.booleans())))
        orc = oracle("gpp", inst)
        assert optima_match(orc.optimum, got)
        assert res.feasible_count == orc.feasible_count

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            GppInstance.make(Graph.complete(4), 2, (3, 2))
        with pytest.raises(SizeMismatch):
            build_kep_assoc(GppInstance.make(Graph.complete(4), 2, (3, 1)))


class TestCompletion:
    def test_fully_observed(self):
        obs = {(i, j): 1 for i in range(2) for j in range(2)}
        opt, _ = solve(build_matrix_completion((2, 2), obs, [0, 1]))
        assert abs(opt - 2) < 1e-7

    def test_diagonal_observed(self):
        opt, _ = solve(build_matrix_completion((2, 2), {(0, 0): 1, (1, 1): 1}, [0, 1]))
        assert abs(opt - 2) < 1e-7

    def test_empty_domain_zero(self):
        opt, _ = solve(build_matrix_completion((2, 2), {}, [0]))
        assert abs(opt) < 1e-9

    def test_nonsquare(self):
        opt, res = solve(build_matrix_completion((1, 2), {(0, 0): 2}, [0, 1]))
        orc = oracle("completion", (1, 2), {(0, 0): 2}, (0, 1))
        assert abs(opt - orc.optimum) < 1e-7

    @pytest.mark.parametrize("values", [[0.5, 1.5], [Fraction(1, 2), Fraction(3, 2)]])
    def test_non_integer_domain_rejected(self, values):
        # the enumerator would find no point where the oracle finds eight
        with pytest.raises(UnsupportedDomain):
            build_matrix_completion((2, 2), {(0, 0): 1}, values)


class TestSils:
    def test_spec_examples(self):
        assert solve(build_sils(np.eye(2, dtype=int), np.array([1, 0]), 1))[0] == 0
        from fractions import Fraction

        assert solve(build_sils(np.eye(2, dtype=int), np.array([1, 1]), 1))[0] == Fraction(1, 2)
        assert solve(build_sils(np.eye(2, dtype=int), np.array([1, 1]), 0))[0] == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_beyond_the_suite(self, data):
        # singular and zero M among the drawn ones; no bijection is claimed:
        # X may exceed x x^T on the diagonal
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        kind = data.draw(st.sampled_from(["zero", "rank-one", "drawn"]))
        if kind == "zero":
            m = np.zeros((n, k), dtype=np.int64)
        elif kind == "rank-one":
            m = np.outer(draw_ints(data, n, -2, 2), draw_ints(data, k, -2, 2))
        else:
            m = draw_ints(data, (n, k), -2, 2)
        b = draw_ints(data, n, -2, 2)
        cap = data.draw(st.integers(0, k))
        got, _ = solve(build_sils(m, b, cap))
        assert optima_match(oracle("sils", m, b, cap).optimum, got)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_oracle_and_model_are_exact_past_int64(self, data):
        # ||Mx - b||^2 / n evaluated directly in Python ints is the optimum of both
        n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
        big = st.integers(-2**70, 2**70)
        m = [[data.draw(big) for _ in range(k)] for _ in range(n)]
        b = [data.draw(big) for _ in range(n)]
        cap = data.draw(st.integers(0, k))
        want = min(Fraction(sum((sum(a * t for a, t in zip(row, x)) - v) ** 2 for row, v in zip(m, b)), n)
                   for x in itertools.product((-1, 0, 1), repeat=k) if sum(map(abs, x)) <= cap)
        assert oracle("sils", m, b, cap).optimum == want
        assert solve(build_sils(m, b, cap))[0] == want

    def test_oracle_example_is_a_sum_of_squares(self):
        # x = (1, 0) leaves the residual (0, -2), and int64 used to wrap the optimum to -4398046511099
        assert oracle("sils", [[2**40, 1], [1, 2**40]], [2**40, 3], 1).optimum == 2

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            build_sils(np.eye(2, dtype=int), np.array([1, 1, 1]), 1)
        with pytest.raises(DimensionMismatch):
            build_sils(np.eye(2, dtype=int), np.array([1, 1]), 3)


# how instance arrays of each number kind are held
_ARRAY_TYPES = {"int": np.int64, "fraction": object, "float": np.float64}


def _scaled(v, d):
    """v / d as the builders write it: a Fraction on an int, else the data's own division."""
    return Fraction(v, d) if isinstance(v, int) else v / d


class TestInstanceArray:
    """`instance_array`, the one reader of every builder's instance data."""

    def test_integer_data_comes_back_as_python_ints(self):
        want = [[1, 2], [2, 3]]
        for a in (want, np.array(want), np.array(want, dtype=np.uint8), [[np.int64(1), 2], (2, np.int32(3))]):
            got = instance_array(a, (2, 2), "Q", symmetric=True)
            assert got.dtype == object and got.tolist() == want and all(type(v) is int for v in got.flat)
        big = [2**63 + 1, 2**70, -2**80, 1]
        assert instance_array(big, (None,), "c").tolist() == big
        zeros = instance_array(None, (2, 3), "B0")
        assert zeros.shape == (2, 3) and all(type(v) is int and v == 0 for v in zeros.flat)

    def test_other_data_as_numpy_reads_it(self):
        for a in ([1, 2.5], [0.5, 1.0], np.array([0.5, 1.0])):
            got = instance_array(a, (2,), "c")
            assert got.dtype == np.float64 and np.array_equal(got, np.asarray(a))
        got = instance_array([Fraction(1, 2), 1], (2,), "c")
        assert got.dtype == object and got.tolist() == [Fraction(1, 2), 1]

    @pytest.mark.parametrize("a, shape, message", [
        ([[1, 2], [3]], (None, None), "M is ragged"),
        ([[1], [2, 3]], (None,), "M is ragged"),
        ([[1.5, 2], [3]], (2, 2), "M is ragged"),
        ([1, 2], (3,), "M must have shape (3,), got (2,)"),
        ([1, 2], (None, None), "M must have shape (any, any), got (2,)"),
        ([[1, 2]], (2, None), "M must have shape (2, any), got (1, 2)"),
        (None, (None,), "M must have shape (any,), got ()"),
        ([[0, 1], [2, 0]], (2, 2), "M must be symmetric"),
        ([[0, 1, 2], [1, 0, 3]], (None, None), "M must be symmetric"),
        (np.array([[0.0, 1.0], [1.5, 0.0]]), (2, 2), "M must be symmetric"),
    ])
    def test_refusals_name_the_field(self, a, shape, message):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            instance_array(a, shape, "M", symmetric=message.endswith("symmetric"))


_SYM2 = [[0, 1], [1, 0]]

# per builder field: its kind ("vec" of any length, "vec2" of length 2, "mat",
# "sym") and a build that reads the bad value there, the other data valid, n = 2
_FIELDS = {
    "weights": ("vec", lambda x: build_qbpp(x, 2, 1, _SYM2)),
    "dissimilarity": ("sym", lambda x: build_qbpp([1, 1], 2, 1, x)),
    "capacities": ("vec", lambda x: build_qmkp([1, 1], x, [1, 1], _SYM2)),
    "profits": ("vec2", lambda x: build_qmkp([1, 1], [2], x, _SYM2)),
    "revenue": ("sym", lambda x: build_qmkp([1, 1], [2], [1, 1], x)),
    "A": ("sym", lambda x: build_qap(QapInstance.make(x, _SYM2))),
    "B": ("sym", lambda x: build_qap(QapInstance.make(_SYM2, x))),
    "C": ("mat", lambda x: build_qap(QapInstance.make(_SYM2, _SYM2, x))),
    "distance matrix": ("sym", build_tsp_qap),
    "weight matrix": ("sym", lambda x: build_gpp(GppInstance.make(Graph.make(2, [(0, 1)], x), 1, [2]))),
    "M": ("mat", lambda x: build_sils(x, [1, 0], 1)),
    "b": ("vec2", lambda x: build_sils(np.eye(2, dtype=int), x, 1)),
    "Q0": ("sym", lambda x: build_bsdp_qcqp(QcqpInstance(2, x))),
    "c0": ("vec2", lambda x: build_bsdp_qcqp(QcqpInstance(2, c0=x))),
    "Q_i": ("sym", lambda x: build_bsdp_qmp1(Qmp1Instance(2, 1, quads=[(x, 0)]))),
    "c_i": ("vec2", lambda x: build_bsdp_qcqp(QcqpInstance(2, quads=[(_SYM2, x, 1)]))),
    "a_i": ("vec2", lambda x: build_bsdp_qcqp(QcqpInstance(2, lin_eq=[(x, 1)]))),
    "B0": ("mat", lambda x: build_bsdp_qmp2(Qmp2Instance(2, 2, b0=x))),
    "B_i": ("mat", lambda x: build_bsdp_qmp2(Qmp2Instance(2, 2, constraints=[(_SYM2, x, 0)]))),
}

# what each kind refuses: (fault, value, the message's ending)
_BAD = {
    "vec": [("ragged", [[1], [1, 1]], "is ragged"), ("mis-shaped", [[1, 1]], "got (1, 2)")],
    "vec2": [("ragged", [[1], [1, 1]], "is ragged"), ("mis-shaped", [1, 1, 1], "got (3,)")],
    "mat": [("ragged", [[1, 1], [1]], "is ragged"), ("mis-shaped", [1, 1], "got (2,)")],
    "sym": [("ragged", [[0, 1], [1]], "is ragged"), ("mis-shaped", [0, 1], "got (2,)"),
            ("asymmetric", [[0, 1], [2, 0]], "must be symmetric")],
}


class TestBuilderRefusals:
    @pytest.mark.parametrize("field, fault, bad, ending", [
        (field, fault, bad, ending) for field, (kind, _) in _FIELDS.items() for fault, bad, ending in _BAD[kind]
    ], ids=[f"{field}-{fault}" for field, (kind, _) in _FIELDS.items() for fault, _, _ in _BAD[kind]])
    def test_each_field_is_read_and_named(self, field, fault, bad, ending):
        build = _FIELDS[field][1]
        with pytest.raises(DimensionMismatch) as exc:
            build(bad)
        assert str(exc.value).startswith(f"{field} ") and str(exc.value).endswith(ending)


C = 2**62 + 1  # past int64 from 2 C on


def _exactness_build(data):
    """A drawn builder's build of drawn int data whose objective data (and
    only that) `f` scales, and the factor the objective scales by."""
    n = data.draw(st.integers(1, 3))
    sym, ints = (lambda: draw_sym(data, n, -3, 3)), (lambda *shape: draw_ints(data, shape, -3, 3))
    weights = [1] * n
    q0, c0, q1, b0, cq, m, b = sym(), ints(n), sym(), ints(n, 2), ints(n, n), ints(n, 2), ints(n)
    dist = [draw_sym(data, k, 1, 9) for k in (3, 5)]
    for d in dist:
        np.fill_diagonal(d, 0)
    w4 = draw_sym(data, 4, 0, 3)
    np.fill_diagonal(w4, 0)
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4) if w4[i, j]]

    def gpp(f):
        return GppInstance.make(Graph.make(4, edges, f(w4)), 2, (2, 2))

    builds = {
        "qbpp": lambda f: build_qbpp(weights, n, f(2), f(np.abs(q0))),
        "qmkp": lambda f: build_qmkp(weights, [1, 2], f(np.abs(c0)), f(np.abs(q0))),
        "qap": lambda f: build_qap(QapInstance.make(f(q0), q1, f(cq))),
        "tsp_qap": lambda f: build_tsp_qap(f(dist[0])),
        "tsp_cvetkovic": lambda f: build_tsp_cvetkovic(f(dist[0])),
        "tsp_lee": lambda f: build_tsp_lee(f(dist[1])),
        **{f"gpp-{v}": (lambda f, v=v: build_gpp(gpp(f), v)) for v in GPP_VARIANTS},
        "kep": lambda f: build_kep_assoc(gpp(f)),
        "qcqp": lambda f: build_bsdp_qcqp(QcqpInstance(n, f(q0), f(c0), quads=[(q1, None, 2)])),
        "qmp1": lambda f: build_bsdp_qmp1(Qmp1Instance(n, 2, f(q0), quads=[(q1, -1)])),
        "qmp2": lambda f: build_bsdp_qmp2(Qmp2Instance(n, 2, f(q0), f(b0), f(3), [(q1, None, -1)])),
        "sils": lambda f: build_sils(f(m), f(b), 2),
    }
    name = data.draw(st.sampled_from(sorted(builds)))
    return builds[name], C * C if name == "sils" else C


class TestExactIntegerData:
    """Integer data is exact at any size: scaling a builder's objective data
    by C = 2^62 + 1 scales every objective coefficient by C (C^2 for sils's
    squares) and keeps its type."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_scaled_objective_data(self, data, as_lists):
        build, factor = _exactness_build(data)

        def scaled(a):
            if np.ndim(a) == 0:
                return C * a
            a = np.asarray(a).astype(object) * C  # Python ints: an int64 array would wrap
            return a.tolist() if as_lists else a

        base, big = build(lambda a: a).objective, build(scaled).objective
        assert list(big.coeffs) == list(base.coeffs)
        for v, w in [*zip(base.coeffs.values(), big.coeffs.values()), (base.constant, big.constant)]:
            assert w == factor * v and type(w) is type(v)

    def test_sils_example(self):
        # M^T M and ||b||^2 used to wrap in int64, to the coefficient 1/2 and the constant 9/2
        obj = build_sils([[2**40, 1], [1, 2**40]], [2**40, 3], 1).objective
        assert obj.coeffs["X[0,0]"] == Fraction(2**80 + 1, 2) and obj.constant == Fraction(2**80 + 9, 2)


class TestCoefficientTypes:
    """The objectives that divide keep each number type: Fraction(v, d) on ints, v / d otherwise."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(sorted(NUMBER_KINDS)))
    def test_halved_laplacian(self, data, kind):
        numbers = NUMBER_KINDS[kind][1]
        n = data.draw(st.integers(1, 5))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        w = np.zeros((n, n), dtype=object)
        for u, v in edges:
            w[u, v] = w[v, u] = data.draw(numbers)
        g = Graph.make(n, edges, w.astype(_ARRAY_TYPES[kind]))
        coeffs = build_gpp(GppInstance.make(g, 1, [n])).objective.coeffs
        lap = g.laplacian().tolist()
        want = {name: lap[i][j] if i != j else _scaled(lap[i][i], 2)
                for name, i, j in upper("X", n) if lap[i][j] != 0}
        assert list(coeffs) == list(want) and all(type(coeffs[k]) is type(v) for k, v in want.items())
        assert coeffs == want

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from(sorted(NUMBER_KINDS)))
    def test_sils_scaling(self, data, kind):
        numbers = NUMBER_KINDS[kind][1]
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        m = np.array([[data.draw(numbers) for _ in range(k)] for _ in range(n)], dtype=_ARRAY_TYPES[kind])
        b = np.array([data.draw(numbers) for _ in range(n)], dtype=_ARRAY_TYPES[kind])
        obj = build_sils(m, b, k).objective
        gram, mtb = (m.T @ m).tolist(), (m.T @ b).tolist()
        want = {f"x[{i}]": _scaled(-2 * v, n) for i, v in enumerate(mtb) if v != 0}
        want.update((name, _scaled(gram[i][j] * (1 if i == j else 2), n))
                    for name, i, j in upper("X", k) if gram[i][j] != 0)
        assert list(obj.coeffs) == list(want) and obj.coeffs == want
        assert all(type(c) is (float if kind == "float" else Fraction) for c in [*obj.coeffs.values(), obj.constant])
        assert obj.constant == _scaled(np.asarray(b @ b).item(), n)
        # at a lifted point X = x x^T the objective is ||Mx - b||^2 / n, exactly on exact data
        x = data.draw(st.lists(st.integers(-1, 1), min_size=k, max_size=k))
        point = {f"x[{i}]": x[i] for i in range(k)} | {name: x[i] * x[j] for name, i, j in upper("X", k)}
        r = m @ np.array(x) - b
        if kind == "float":
            assert obj.value(point) == pytest.approx((r @ r) / n, rel=1e-9, abs=1e-6)
        else:
            assert obj.value(point) == Fraction(r @ r) / n


def test_cycle_adjacency_first_row():
    b = cycle_adjacency(5)
    assert list(b[0]) == [0, 1, 0, 0, 1]
    assert np.array_equal(b, b.T)
    assert num_rank(SymMat(2 * np.eye(5, dtype=np.int64) + b, check_symmetry=False)) == 5


class TestGepAssocPointwiseMap:
    def test_feasible_point_bijection(self):
        # X <-> (X1, X2) = (J - X, X - I) carries each equipartition-model
        # feasible point to an association-model feasible point with the same
        # objective (exhaustive over all symmetric binary X with unit
        # diagonal, n = 4, k = 2)
        import itertools

        from misdpkit.model import eval_point

        inst = GppInstance.make(Graph.cycle(4), 2, (2, 2))
        gep = build_gpp(inst, "equipartition")
        kep = build_kep_assoc(inst)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        checked = 0
        for bits in itertools.product((0, 1), repeat=6):
            point_gep = {f"X[{i},{i}]": 1 for i in range(4)}
            point_kep = {}
            for (i, j), b in zip(pairs, bits):
                point_gep[f"X[{i},{j}]"] = b
                point_kep[f"X2[{i},{j}]"] = b
                point_kep[f"X1[{i},{j}]"] = 1 - b
            res_gep = eval_point(gep, point_gep)
            res_kep = eval_point(kep, point_kep)
            assert res_gep.feasible == res_kep.feasible
            if res_gep.feasible:
                checked += 1
                assert res_gep.objective == res_kep.objective
        assert checked == 3  # the three equipartitions of a 4-set
