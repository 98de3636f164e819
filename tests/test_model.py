import functools
import hashlib
import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit import config
from misdpkit import model as model_module
from misdpkit.cbf import export_cbf, import_cbf
from misdpkit.cosring import CosInt
from misdpkit.errors import IncompleteAssignment, ParseError, UnsupportedDomain, loads_json
from misdpkit.formulations import bordered_pencil, shared_pencil
from misdpkit.linalg import SymMat, dumps_matrix, is_psd, loads_matrix
from misdpkit.model import (
    LinRow,
    MatrixPencil,
    MisdpModel,
    Objective,
    VarDomain,
    eval_point,
    export_json,
    import_json,
    psd_exact_sum,
    validate,
)
from misdpkit.problems import build_tsp_cvetkovic, build_tsp_lee
from test_verify import _one_model_per_builder, _pencil


def stable_set_k2_model():
    """Hand-built bordered model for the 2-vertex single-edge stable set."""
    terms = [("x[0]", [(0, 1, 1), (1, 1, 1)]), ("x[1]", [(0, 2, 1), (2, 2, 1)]), ("X[0,1]", [(1, 2, 1)])]
    return MisdpModel(
        variables=[
            ("x[0]", VarDomain.binary()),
            ("x[1]", VarDomain.binary()),
            ("X[0,1]", VarDomain.continuous(0, 1)),
        ],
        objective=Objective("min", {"x[0]": -1, "x[1]": -1}),
        rows=[LinRow((("X[0,1]", 1),), "==", 0, label="edge")],
        pencils=[MatrixPencil(3, [(0, 0, 1)], terms)],
        metadata={"problem": "stable_set", "sense_original": "max"},
    )


class TestValidate:
    def test_empty_model(self):
        m = MisdpModel([], Objective("min", {}))
        assert validate(m) == []

    def test_unknown_variable_in_pencil(self):
        m = MisdpModel(
            [("x", VarDomain.binary())],
            Objective("min", {"x": 1}),
            pencils=[MatrixPencil(1, [], [("ghost", [(0, 0, 1)])])],
        )
        assert len(validate(m)) == 1

    @staticmethod
    def _tied(y_domain):
        return MisdpModel(
            [("a", VarDomain.binary()), ("y", y_domain)],
            Objective("min", {}),
            rows=[LinRow((("a", 1), ("y", -1)), "==", 0)],
        )

    @pytest.mark.parametrize("lo, hi", [(math.nan, None), (None, math.nan), (0, math.nan)])
    def test_nan_bound_is_a_defect(self, lo, hi):
        from misdpkit.verify import solve_by_enumeration

        # without the defect the search rejected every leaf: optimum None
        m = self._tied(VarDomain.continuous(lo, hi))
        assert validate(m) == ["y: NaN bound"]
        with pytest.raises(ValueError, match="NaN bound"):
            solve_by_enumeration(m)

    def test_infinite_bounds_stay_legal(self):
        from misdpkit.verify import solve_by_enumeration

        m = self._tied(VarDomain.continuous(-math.inf, math.inf))
        assert validate(m) == []
        res = solve_by_enumeration(m)
        assert res.optimum == 0 and res.feasible_count == 2

    @staticmethod
    def _pair(coeffs, rhs):
        return MisdpModel(
            [("a", VarDomain.binary()), ("b", VarDomain.binary())],
            Objective("min", {"a": -1, "b": -1}),
            rows=[LinRow(tuple(zip("ab", coeffs)), "<=", rhs, label="cap")],
        )

    @pytest.mark.parametrize("coeffs, rhs, defect", [
        ((1, math.nan), 1, "row 0: NaN coefficient of 'b'"),
        ((1, 1), math.nan, "row 0: NaN rhs"),
        ((math.inf, 1), 1, "row 0: infinite coefficient of 'a'"),
        ((1, -math.inf), 1, "row 0: infinite coefficient of 'b'"),
    ])
    def test_non_finite_row_is_a_defect(self, coeffs, rhs, defect):
        from misdpkit.verify import solve_by_enumeration

        # without the defect a NaN row accepted every point: optimum -2, count 4
        m = self._pair(coeffs, rhs)
        assert validate(m) == [defect]
        with pytest.raises(ValueError, match=defect):
            solve_by_enumeration(m)

    @pytest.mark.parametrize("coeffs, constant, defect", [
        ({"a": math.nan, "b": -1}, 0, "objective: NaN coefficient of 'a'"),
        ({"a": -1, "b": math.inf}, 0, "objective: infinite coefficient of 'b'"),
        ({"a": -math.inf, "b": -1}, 0, "objective: infinite coefficient of 'a'"),
        ({"a": -1, "b": -1}, math.nan, "objective: NaN constant"),
    ])
    def test_non_finite_objective_is_a_defect(self, coeffs, constant, defect):
        from misdpkit.verify import solve_by_enumeration

        # without the defect the optimum was NaN (or -inf), export_cbf wrote
        # `nan` and export_json `NaN`, which their readers refuse
        m = self._pair((1, 1), 1)
        m.objective = Objective("min", coeffs, constant)
        assert validate(m) == [defect]
        for _ in range(2):  # a new family, then the kept one
            with pytest.raises(ValueError) as exc:
                solve_by_enumeration(m)
            assert str(exc.value) == f"model has defects: {[defect]}"
        with pytest.raises(ValueError, match=re.escape(defect)):
            export_cbf(m)

    def test_finite_row_stays_legal(self):
        from misdpkit.verify import solve_by_enumeration

        m = self._pair((1, 1), 1)
        assert validate(m) == []
        res = solve_by_enumeration(m)
        assert res.optimum == -1 and res.feasible_count == 3

    @pytest.mark.parametrize("old, new", [
        ('["X[0,1]",[[1,2,1]]]', '["X[0,1]",[[1,2,1],[2,1,2]]]'),
        ('["X[0,1]",[[1,2,1]]]', '["X[0,1]",[[1,3,1]]]'),
        ('"const":[[0,0,1]]', '"const":[[0,3,1]]'),
    ], ids=["asymmetric", "term-not-square", "constant-not-square"])
    def test_json_pencil_must_be_square_and_symmetric(self, old, new):
        # in the sparse file an asymmetric matrix gives one coordinate in both
        # triangles, and a matrix of another shape a coordinate past the order
        text = export_json(stable_set_k2_model())
        assert text.count(old) == 1
        with pytest.raises(ParseError, match=r"outside order 3|repeats entry \(1, 2\)"):
            import_json(text.replace(old, new))


_small = st.integers(-6, 6)
_number = st.one_of(
    _small, _small.map(Fraction), _small.map(float),
    st.fractions(-6, 6, max_denominator=4), st.floats(-6, 6),
)


def _finite_set_or_none(values):
    try:
        return VarDomain.finite_set(values)
    except UnsupportedDomain:
        return None


def _integer_range_or_none(bounds):
    try:
        return VarDomain.integer_range(min(bounds), max(bounds))
    except UnsupportedDomain:
        return None


_domains = st.one_of(
    st.just(VarDomain.binary()),
    st.just(VarDomain.ternary()),
    st.tuples(_small, _small).map(lambda b: VarDomain.integer_range(min(b), max(b))),
    st.tuples(_number, _number).map(_integer_range_or_none),
    st.lists(_number, min_size=1, max_size=4).map(_finite_set_or_none),
)


class TestDomains:
    @given(_domains)
    def test_contains_every_enumerated_value(self, dom):
        # the enumerator relies on this and does not re-check integer values
        if dom is None:
            return
        for v in dom.iter_values():
            assert dom.contains(v) and dom.contains(v, tol=config.DEFAULT.lin_feas)
            assert dom.lo <= v <= dom.hi

    @given(_domains, st.one_of(st.integers(-8, 8), st.fractions(-8, 8, max_denominator=3)))
    def test_size_and_contains_agree_with_the_values(self, dom, v):
        if dom is None:
            return
        assert dom.size() == len(dom.iter_values())
        assert dom.contains(v) == (v in dom.iter_values())
        assert dom.contains(float(v)) == (v in dom.iter_values())

    def test_wide_integer_range_is_sized_without_its_values(self):
        dom = VarDomain.integer_range(Fraction(-1, 2), 2**40 + 0.5)
        assert dom.size() == 2**40 + 1
        assert dom.contains(0) and dom.contains(2**40) and dom.contains(Fraction(2**39))
        assert not dom.contains(-1) and not dom.contains(2**40 + 1) and not dom.contains(Fraction(7, 2))

    @pytest.mark.parametrize("lo, hi, values", [
        (Fraction(1, 2), 2, (1, 2)),
        (Fraction(-3, 2), Fraction(-1, 2), (-1,)),
        (-2.5, 0.5, (-2, -1, 0)),
    ])
    def test_integer_range_rounds_bounds_inward(self, lo, hi, values):
        dom = VarDomain.integer_range(lo, hi)
        assert dom.iter_values() == values
        assert (dom.lo, dom.hi) == (lo, hi)
        assert not dom.contains(min(values) - 1)

    @pytest.mark.parametrize("lo, hi", [
        (Fraction(1, 3), Fraction(2, 3)), (0.25, 0.75), (2, 1), (0, float("inf")), (float("nan"), 1),
    ])
    def test_integer_range_without_integers_raises(self, lo, hi):
        with pytest.raises(UnsupportedDomain):
            VarDomain.integer_range(lo, hi)

    @pytest.mark.parametrize("values", [
        [0, 0.5], [Fraction(3, 2)], [1, float("inf")], [float("nan")],
    ])
    def test_finite_set_rejects_non_integers(self, values):
        with pytest.raises(UnsupportedDomain, match="must be integers"):
            VarDomain.finite_set(values)


class TestEvalPoint:
    def test_stable_set_points(self):
        m = stable_set_k2_model()
        good = {"x[0]": 1, "x[1]": 0, "X[0,1]": 0}
        r = eval_point(m, good)
        assert r.feasible and r.objective == -1
        bad = {"x[0]": 1, "x[1]": 1, "X[0,1]": 1}
        r = eval_point(m, bad)
        assert not r.feasible
        zeros = {"x[0]": 0, "x[1]": 0, "X[0,1]": 0}
        r = eval_point(m, zeros)
        assert r.feasible and r.objective == 0

    def test_incomplete(self):
        with pytest.raises(IncompleteAssignment):
            eval_point(stable_set_k2_model(), {"x[0]": 1})

    def test_exact_on_integer_data(self):
        m = MisdpModel(
            [("a", VarDomain.integer_range(0, 10))],
            Objective("min", {"a": Fraction(1, 3)}),
            rows=[LinRow((("a", Fraction(1, 3)),), "==", Fraction(2, 3))],
        )
        r = eval_point(m, {"a": 2})
        assert r.feasible and r.objective == Fraction(2, 3)
        r = eval_point(m, {"a": 3})
        assert not r.feasible

    def test_variable_order_invariance(self):
        m = stable_set_k2_model()
        shuffled = MisdpModel(
            list(reversed(m.variables)), m.objective, m.rows, m.pencils, m.metadata
        )
        a = {"x[0]": 1, "x[1]": 0, "X[0,1]": 0}
        assert eval_point(m, a).objective == eval_point(shuffled, a).objective
        assert eval_point(m, a).feasible == eval_point(shuffled, a).feasible


def _fractions():
    return st.fractions(min_value=-4, max_value=4, max_denominator=12)


class TestPencilPsd:
    """MatrixPencil.is_psd_at: exact on integer pencils at int/Fraction points."""

    def _pinned_model(self):
        # at x = 1 the pencil is [[1, 10^4], [10^4, 10^8 - 1]]: det -1, but
        # lambda_min = -1e-8 is inside the Jacobi test's tolerance
        pencil = MatrixPencil(2, [(0, 0, 1), (0, 1, 10000), (1, 1, 99999998)], [("x", [(1, 1, 1)])])
        return MisdpModel([("x", VarDomain.integer_range(0, 2))], Objective("min", {"x": 1}),
                          pencils=[pencil])

    def test_pinned_disagreement_with_the_tolerance_test(self):
        from misdpkit.verify import solve_by_enumeration

        m = self._pinned_model()
        (pencil,) = m.pencils
        assert is_psd(pencil.evaluate({"x": 1}))
        assert not pencil.is_psd_at({"x": 1})
        assert eval_point(m, {"x": 1}).violations == ["pencil 0: not PSD"]
        assert eval_point(m, {"x": 1.0}).feasible  # float values take the float route
        res = solve_by_enumeration(m)
        assert res.optimum == 2 and res.feasible_count == 1

    def test_fraction_values_are_scaled_not_rounded(self):
        # [[10t, -1], [-1, 10s]] is PSD iff 100ts >= 1 (t, s >= 0)
        pencil = MatrixPencil(2, [(0, 1, -1)], [("t", [(0, 0, 10)]), ("s", [(1, 1, 10)])])
        tenth = Fraction(1, 10)
        assert pencil.is_psd_at({"t": tenth, "s": tenth})
        below = {"t": tenth, "s": tenth - Fraction(1, 10**12)}
        assert not pencil.is_psd_at(below)
        assert is_psd(pencil.evaluate(below))
        assert pencil.is_psd_at({"t": 1, "s": tenth}) and not pencil.is_psd_at({"t": 0, "s": 3})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9), _fractions(), _fractions(),
           st.integers(-2, 2))
    def test_matches_the_2x2_criterion_without_the_float_route(self, entries, t, u, w):
        mats = [np.array([[a, b], [b, c]]) for a, b, c in zip(entries[::3], entries[1::3], entries[2::3])]
        pencil = _pencil(mats[0], [("t", mats[1]), ("u", mats[2]), ("w", np.eye(2, dtype=int))])
        values = {"t": t, "u": u, "w": w}
        m = [[Fraction(int(x)) for x in row] for row in mats[0]]
        for name, mat in (("t", mats[1]), ("u", mats[2]), ("w", np.eye(2, dtype=int))):
            for i in range(2):
                for j in range(2):
                    m[i][j] += values[name] * int(mat[i, j])
        expected = m[0][0] >= 0 and m[1][1] >= 0 and m[0][0] * m[1][1] >= m[0][1] ** 2
        with mock.patch.object(model_module, "is_psd", wraps=is_psd) as float_route:
            assert pencil.is_psd_at(values) == expected
        assert float_route.call_count == 0

    def test_float_data_or_values_take_the_jacobi_route(self):
        half = MatrixPencil(2, [(0, 0, 0.5), (1, 1, 1)], [("t", [(0, 0, 1), (1, 1, 1)])])
        integer = MatrixPencil(2, [(0, 1, 1)], [("t", [(0, 0, 1), (1, 1, 1)])])
        for pencil, values in ((half, {"t": 0}), (integer, {"t": 1.0}), (integer, {"t": 0.999})):
            assert pencil.is_psd_at(values) == is_psd(pencil.evaluate(values))
        assert integer.is_psd_at({"t": 1}) and not integer.is_psd_at({"t": 0.999})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_memoised_leaf_and_block_decisions_match_the_kernel(self, data):
        # a fresh shared pencil and each of its leading blocks, with their
        # memos empty or filled to the cap with keys that no point makes (a
        # denominator of 0)
        shared_pencil.cache_clear()
        n = data.draw(st.integers(1, 3))
        pencil = bordered_pencil(n, data.draw(st.integers(1, 3)))
        number = st.integers(-2, 2) if data.draw(st.booleans()) else _fractions()
        values = {name: data.draw(number) for name, _ in pencil.terms}
        full = data.draw(st.booleans())
        cap = model_module._PSD_MEMO_CAP
        for p in (pencil, *pencil.leading_blocks()):
            if full:
                p._psd.update(((0, i), False) for i in range(cap - len(p._psd)))
            mine = [values[name] for name, _ in p.terms]
            den = math.lcm(*(Fraction(v).denominator for v in mine))
            key = (den, *(int(v * den) for v in mine))
            expected = psd_exact_sum(p.order, key, p.entries)
            with mock.patch.object(model_module, "is_psd", wraps=is_psd) as float_route:
                assert p.is_psd_at(values) == expected
                assert p.is_psd_at(values) == expected  # from the memo unless it is full
            assert float_route.call_count == 0
            if full:
                assert len(p._psd) == cap and key not in p._psd
            else:
                assert p._psd[key] == expected

    def test_memo_stops_inserting_at_its_cap(self):
        # [[t, 1], [1, 1]] is PSD iff t >= 1; a pencil built by hand has its memo
        pencil = MatrixPencil(2, [(0, 1, 1), (1, 1, 1)], [("t", [(0, 0, 1)])])
        assert pencil._psd == {}
        cap = model_module._PSD_MEMO_CAP
        points = range(-50, cap + 50)
        for _ in range(2):
            assert [pencil.is_psd_at({"t": t}) for t in points] == [t >= 1 for t in points]
            assert len(pencil._psd) == cap
        assert pencil.is_psd_at({"t": Fraction(cap + 101, 2)}) and len(pencil._psd) == cap

    def test_every_pencil_remembers(self):
        # a shared pencil, the same pencil read back by import_json and by
        # import_cbf, a pencil built by hand, and each leading block of each:
        # the kernel is asked once for a repeated point, at an int and at a
        # Fraction value
        from misdpkit.problems import build_sils

        m = build_sils(np.array([[1, -1], [0, 2]]), np.array([1, 0]), 1)
        pencils = [m.pencils[0], import_json(export_json(m)).pencils[0], import_cbf(export_cbf(m)).pencils[0],
                   stable_set_k2_model().pencils[0]]
        assert pencils[0] is not pencils[1] and pencils[0] == pencils[1] == pencils[2]
        blocks = [b for p in pencils for b in p.leading_blocks()]
        assert len(blocks) == 4
        assert MatrixPencil.__slots__ == ("order", "terms", "entries", "integral", "exact", "_psd")
        for p in pencils + blocks:
            assert p.integral and p._psd == {}
            for value, key in ((1, 1), (Fraction(1, 2), 2)):
                values = {name: value for name, _ in p.terms}
                with mock.patch.object(model_module, "psd_exact_sum", wraps=psd_exact_sum) as exact:
                    decided = p.is_psd_at(values)
                    assert p.is_psd_at(values) == decided
                assert exact.call_count == 1
                assert p._psd[(key, *[1] * len(p.terms))] == decided

    def test_equality_compares_the_exact_entries(self):
        third = MatrixPencil(2, [(0, 1, Fraction(1, 3))], [("t", [(0, 0, 1)])])
        rounded = MatrixPencil(2, [(0, 1, 0.3333333333333333)], [("t", [(0, 0, 1)])])
        assert np.array_equal(third.evaluate({"t": 1}), rounded.evaluate({"t": 1})) and third != rounded
        assert third == MatrixPencil(2, [(1, 0, Fraction(1, 3))], [("t", [(0, 0, 1.0)])])


class TestJsonRoundTrip:
    def test_round_trip_and_byte_stability(self):
        m = stable_set_k2_model()
        text = export_json(m)
        assert export_json(m) == text  # exporting twice is byte-identical
        again = import_json(text)
        assert again == m
        assert export_json(again) == text

    def test_fraction_and_finite_set(self):
        m = MisdpModel(
            [("u", VarDomain.finite_set([-2, 0, 3])), ("v", VarDomain.continuous())],
            Objective("min", {"u": Fraction(1, 2)}, Fraction(-3, 7)),
            rows=[LinRow((("u", 1), ("v", Fraction(2, 5))), "<=", 4)],
        )
        again = import_json(export_json(m))
        assert again == m
        assert again.objective.constant == Fraction(-3, 7)
        assert again.variables[0][1].values == (-2, 0, 3)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            import_json("{not json")
        with pytest.raises(ParseError):
            import_json('{"format":"other"}')

    @pytest.mark.parametrize("mutate", [
        lambda obj: obj.pop("variables"),
        lambda obj: obj["rows"][0].update(rel="<"),
        lambda obj: obj["objective"].update(constant="1/0"),
        lambda obj: obj["variables"][0][1].update(kind="integer_range", lo=2, hi=1),
        lambda obj: obj["objective"].update(constant="one"),
        lambda obj: obj["variables"].append(obj["variables"][0]),
        lambda obj: obj.update(metadata=[1]),
    ], ids=["no-variables", "bad-rel", "zero-denominator", "empty-range", "not-a-number", "duplicate-name",
            "metadata-not-object"])
    def test_malformed_fields_raise_parse_error(self, mutate):
        obj = json.loads(export_json(stable_set_k2_model()))
        mutate(obj)
        with pytest.raises(ParseError):
            import_json(json.dumps(obj))

    def test_non_object_raises_parse_error(self):
        with pytest.raises(ParseError, match="not a misdpkit model file"):
            import_json("[1]")

    @staticmethod
    def _edited(edit):
        obj = json.loads(export_json(stable_set_k2_model()))
        edit(obj)
        return json.dumps(obj)

    @pytest.mark.parametrize("version", [1, 3, "2", None])
    def test_other_versions_are_refused(self, version):
        text = self._edited(lambda obj: obj.update(version=version))
        with pytest.raises(ParseError, match=re.escape(f"unsupported model file version {version!r}, expected 2")):
            import_json(text)

    @pytest.mark.parametrize("order", [-1, True, 3.0, "3", None])
    def test_pencil_order_must_be_a_nonnegative_int(self, order):
        text = self._edited(lambda obj: obj["pencils"][0].update(order=order))
        with pytest.raises(ParseError, match=re.escape(f"pencil order must be a nonnegative integer, got {order!r}")):
            import_json(text)

    @pytest.mark.parametrize("triple", [[True, 2, 1], [1, True, 1]], ids=["row", "column"])
    def test_bool_coordinates_are_refused(self, triple):
        # True would index as 1
        text = self._edited(lambda obj: obj["pencils"][0]["terms"][2].__setitem__(1, [triple]))
        with pytest.raises(ParseError, match=r"term 'X\[0,1\]' has coordinate \((True, 2|1, True)\), not two integers"):
            import_json(text)

    def test_ring_entries_are_written_exactly(self):
        # 2 - alpha off the diagonal, alpha = 2cos(2pi/5)
        m = build_tsp_cvetkovic(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
        text = export_json(m)
        assert '"const":[[0,0,2],[0,1,{"coeffs":[2,-1],"ring":5}],' in text
        assert import_json(text) == m and export_json(import_json(text)) == text
        # the Cvetkovic and Lee texts that the mutation property edits hold ring entries
        assert sum('"ring":5' in t for t in _builder_texts()) == 2

    @pytest.mark.parametrize("entry,message", [
        ({"ring": 5, "coeffs": [2, -1, 0]}, "needs 2 integer coefficients"),
        ({"ring": 7, "coeffs": [2, -1]}, "needs 3 integer coefficients"),
        ({"ring": 5, "coeffs": [2, -1.0]}, "needs 2 integer coefficients"),
        ({"ring": 5, "coeffs": [2, True]}, "needs 2 integer coefficients"),
        ({"ring": 5, "coeffs": [2, "-1"]}, "needs 2 integer coefficients"),
        ({"ring": 5, "coeffs": 2}, "needs 2 integer coefficients"),
        ({"ring": 6, "coeffs": [1]}, "2cos\\(2pi/6\\) is an integer, so ring entry .* must be written as an int"),
        ({"ring": 4, "coeffs": [0]}, "2cos\\(2pi/4\\) is an integer"),
        ({"ring": 5, "coeffs": [3, 0]}, "has no alpha part, so must be written as an int"),
        ({"ring": True, "coeffs": [2, -1]}, "needs just an integer ring n in 3..1024 and coeffs"),
        ({"ring": 2, "coeffs": [2]}, "needs just an integer ring n in 3..1024"),
        ({"ring": 1025, "coeffs": [0, 1]}, "needs just an integer ring n in 3..1024"),
        ({"ring": 5.0, "coeffs": [2, -1]}, "needs just an integer ring n"),
        ({"coeffs": [2, -1]}, "needs just an integer ring n"),
        ({"ring": 5, "coeffs": [2, -1], "scale": 2}, "needs just an integer ring n"),
    ])
    def test_malformed_ring_entries_name_the_pencil(self, entry, message):
        m = build_tsp_cvetkovic(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
        obj = json.loads(export_json(m))
        assert obj["pencils"][0]["const"][1] == [0, 1, {"ring": 5, "coeffs": [2, -1]}]
        obj["pencils"][0]["const"][1][2] = entry
        with pytest.raises(ParseError, match="^pencil 0 constant: .*" + message):
            import_json(json.dumps(obj))
        # a Lee pencil's ring entries sit in its terms
        obj = json.loads(export_json(build_tsp_lee(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))))
        name, triples = obj["pencils"][1]["terms"][0]
        triples[0][2] = entry
        with pytest.raises(ParseError, match=f"^pencil 1 term {re.escape(repr(name))}: .*" + message):
            import_json(json.dumps(obj))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_text_parses_or_raises_parse_error(self, data):
        text = data.draw(st.sampled_from(_builder_texts()))
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(text) - 1))
            op = data.draw(st.sampled_from(["delete", "insert", "replace"]))
            ch = data.draw(st.sampled_from('0123456789-./":,[]{}<=>aeflnrstu '))
            if op == "delete":
                text = text[:pos] + text[pos + 1:]
            else:
                text = text[:pos] + ch + text[pos + (op == "replace"):]
        try:
            import_json(text)
        except ParseError:
            pass


@functools.lru_cache(maxsize=None)
def _builder_texts():
    return tuple(export_json(m) for m in _one_model_per_builder())


class TestLoadsJson:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-2.5E999"])
    def test_non_finite_number_reports_its_line(self, token):
        # the same token sits earlier inside strings, one with an escaped quote
        text = '{"note": "%s",\n "k\\"%s": [1,\n  2.5, %s]}' % (token, token, token)
        with pytest.raises(ParseError) as exc:
            loads_json(text)
        assert str(exc.value) == f"line 3: {token} is not a finite number"
        assert exc.value.line == 3

    def test_integer_past_the_digit_limit_reports_its_line(self):
        token = "-" + "7" * 5001  # int() refuses more than 4,300 digits
        text = '{"note": "%s",\n "a": [1,\n  %s]}' % (token, token)
        with pytest.raises(ParseError) as exc:
            loads_json(text)
        assert str(exc.value) == "line 3: integer of 5001 digits is too long"

    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"a":' * 100000 + "1" + "}" * 100000])
    def test_nesting_too_deep_raises_parse_error(self, text):
        with pytest.raises(ParseError, match="^JSON nesting is too deep$"):
            loads_json(text)


class TestCbfRoundTrip:
    def test_round_trip_equal_model(self):
        m = stable_set_k2_model()
        text = export_cbf(m)
        again = import_cbf(text)
        assert again == m

    def test_byte_stability(self):
        m = stable_set_k2_model()
        t1 = export_cbf(m)
        t2 = export_cbf(import_cbf(t1))
        assert t1 == t2

    def test_int_section_and_psdcon(self):
        m = stable_set_k2_model()
        text = export_cbf(m)
        assert "INT\n2\n0\n1" in text
        assert "PSDCON\n1\n3" in text

    def test_single_binary_min(self):
        m = MisdpModel(
            [("x", VarDomain.binary())], Objective("min", {"x": 1})
        )
        text = export_cbf(m)
        assert "INT\n1\n0" in text
        assert import_cbf(text) == m

    def test_ternary_bounds_as_rows(self):
        m = MisdpModel([("t", VarDomain.ternary())], Objective("min", {"t": 1}))
        text = export_cbf(m)
        # two synthesized bound rows, dropped again on import
        assert "# misdpkit-boundrows: 2" in text
        assert import_cbf(text).rows == []

    def test_foreign_file_without_comments(self):
        raw = "\n".join(
            [
                "VER", "2", "",
                "OBJSENSE", "MIN", "",
                "VAR", "2 1", "F 2", "",
                "INT", "1", "0", "",
                "OBJACOORD", "1", "1 2.5", "",
            ]
        )
        m = import_cbf(raw)
        assert m.variables[0][1].is_integer
        assert not m.variables[1][1].is_integer
        assert m.objective.coeffs == {"v1": 2.5}

    def test_parse_error_has_line(self):
        with pytest.raises(ParseError):
            import_cbf("VER\n2\n\nNOSECTION\n")

    def test_integers_of_any_size_round_trip(self):
        big = 10**400 + 1  # 401 digits
        m = MisdpModel(
            [("x", VarDomain.binary()), ("y", VarDomain.integer_range(-3, 3))],
            Objective("min", {"x": big, "y": -big}, big),
            rows=[LinRow((("x", big), ("y", 1)), "<=", -big)],
        )
        text = export_cbf(m)
        assert f"\nOBJBCOORD\n{big}\n" in text
        back = import_cbf(text)
        assert back == m and export_cbf(back) == text
        assert type(back.objective.constant) is int and type(back.rows[0].rhs) is int

    def test_pencil_integers_round_trip_exactly(self):
        # read as a float, -(2^53 + 1) became -2^53, which is PSD at x = 2^53
        m = MisdpModel([("x", VarDomain.continuous())], Objective("min", {"x": 1}),
                       pencils=[MatrixPencil(1, [(0, 0, -(2**53 + 1))], [("x", [(0, 0, 1)])])])
        back = import_cbf(export_cbf(m))
        assert back == m and type(back.pencils[0].entries[0][0][2]) is int
        for model in (m, back):
            assert not model.pencils[0].is_psd_at({"x": 2**53})
            assert model.pencils[0].is_psd_at({"x": 2**53 + 1})

    @pytest.mark.parametrize("new", ["\n1 -" + "9" * 5001 + "\n2 -1\n", "\n" + "9" * 5001 + " -1\n2 -1\n"],
                             ids=["coefficient", "index"])
    def test_integer_past_the_digit_limit_is_named_too_long(self, new):
        text = export_cbf(stable_set_k2_model())
        with pytest.raises(ParseError) as exc:
            import_cbf(text.replace("\n1 -1\n2 -1\n", new, 1))
        assert str(exc.value) == "line 44: BCOORD entry: integer token of 5001 digits is too long"

    def test_finite_set_with_gaps_is_refused(self):
        # its hull would also admit u = 1
        m = MisdpModel([("u", VarDomain.finite_set([-1, 0, 2]))], Objective("min", {"u": 1}))
        with pytest.raises(UnsupportedDomain, match="'u'"):
            export_cbf(m)

    def test_contiguous_finite_set_round_trips(self):
        m = MisdpModel([("u", VarDomain.finite_set([-1, 0, 1, 2]))], Objective("min", {"u": 1}))
        text = export_cbf(m)
        assert "# misdpkit-boundrows: 2" in text
        assert import_cbf(text) == m

    @pytest.mark.parametrize("constant, tail", [
        (0, []),
        (3, ["OBJBCOORD", "3", ""]),
    ], ids=["bare", "constant"])
    def test_smallest_files_write_only_the_sections_they_need(self, constant, tail):
        m = MisdpModel([("x", VarDomain.continuous())], Objective("min", {}, constant))
        text = export_cbf(m)
        assert text == "\n".join([
            "VER", "2", "",
            "# misdpkit-domains: c", "# misdpkit-names: x", "# misdpkit-boundrows: 0", "",
            "OBJSENSE", "MIN", "",
            "VAR", "1 1", "F 1", "",
            *tail,
        ]).rstrip("\n") + "\n"
        assert import_cbf(text) == m

    # edits of stable_set_k2_model's CBF text, with the line each one is on
    @pytest.mark.parametrize("old, new, line", [
        ("INT\n2\n0\n1\n", "INT\n2\n0\nx\n", 19),
        ("VAR\n3 1\n", "VAR\n3\n", 13),
        ("VAR\n3 1\nL+ 3\n", "VAR\n3 1\nL- 3\n", 14),
        ("\n3 -1\n", "\n4 -1\n", 46),
        ("\n1 -1\n2 -1\n", "\n-1 -1\n2 -1\n", 44),
        ("\n0 2 2 1 1\n", "\n1 2 2 1 1\n", 54),
        ("\n0 2 2 1 1\n", "\n0 2 3 1 1\n", 54),
        ("\n0 0 0 1\n", "\n0 3 0 1\n", 58),
        ("\n0 0 0 1\n", "\n0 0 0 nan\n", 58),
        ("\n0 0 0 1\n", "\n0 0 0 " + "9" * 401 + "\n", 58),
        ("\n0 2 2 1 1\n", "\n0 2 2 1 1" + "0" * 400 + "\n", 54),
        ("\n1 -1\n\nACOORD", "\n3 -1\n\nACOORD", 33),
        ("\n1 -1\n\nACOORD", "\n1\n\nACOORD", 33),
        ('{"problem"', '{"problem', 7),
        ('{"problem"', '{"x":NaN,"problem"', 7),
        ("misdpkit-meta: {", "misdpkit-meta: [{", 7),
        ("boundrows: 3", "boundrows: 5", 6),
        ("domains: b b c:0:1", "domains: b b c:0:1/0", 4),
        ("domains: b b c:0:1", "domains: b b i:0:", 4),
        ("domains: b b c:0:1", "domains: b b i::3", 4),
        ("domains: b b c:0:1", "domains: b b c:0:inf", 4),
        ("domains: b b c:0:1", "domains: b b c:0:1e999", 4),
        ("names: x[0] x[1] X[0,1]", "names: x[0] x[1]", 5),
        ("\nOBJACOORD\n", "\nVAR\n1 1\nF 1\n\nOBJACOORD\n", 30),
    ])
    def test_malformed_text_raises_parse_error_with_line(self, old, new, line):
        text = export_cbf(stable_set_k2_model())
        assert old in text
        with pytest.raises(ParseError) as exc:
            import_cbf(text.replace(old, new, 1))
        assert exc.value.line == line

    def test_deep_metadata_raises_parse_error_with_line(self):
        text = export_cbf(stable_set_k2_model())
        meta = next(ln for ln in text.splitlines() if ln.startswith("# misdpkit-meta: "))
        deep = "# misdpkit-meta: " + "[" * 100000 + "]" * 100000
        with pytest.raises(ParseError, match="misdpkit-meta: JSON nesting is too deep") as exc:
            import_cbf(text.replace(meta, deep, 1))
        assert exc.value.line == 7

    def test_defective_model_raises_parse_error(self):
        text = export_cbf(stable_set_k2_model()).replace("names: x[0] x[1]", "names: x[0] x[0]")
        with pytest.raises(ParseError, match="duplicate variable names"):
            import_cbf(text)

    def test_oversized_psd_cone_raises_parse_error(self):
        # a constant and three terms of order 2100 need more than 2^24 dense
        # entries; refused before allocating
        text = export_cbf(stable_set_k2_model()).replace("PSDCON\n1\n3\n", "PSDCON\n1\n2100\n")
        with pytest.raises(ParseError, match="dense entries"):
            import_cbf(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_text_parses_or_raises_parse_error(self, data):
        text = data.draw(st.sampled_from(_builder_cbf_texts()))
        for _ in range(data.draw(st.integers(1, 3))):
            pos = data.draw(st.integers(0, len(text) - 1))
            op = data.draw(st.sampled_from(["delete", "insert", "replace"]))
            ch = data.draw(st.sampled_from('0123456789-.+eEFLxn:|#/{}" \n'))
            if op == "delete":
                text = text[:pos] + text[pos + 1:]
            else:
                text = text[:pos] + ch + text[pos + (op == "replace"):]
        try:
            import_cbf(text)
        except ParseError:
            pass


@functools.lru_cache(maxsize=None)
def _builder_cbf_texts():
    return tuple(export_cbf(m) for m in _one_model_per_builder())


# -- round-trip properties over random models of every builder ----------------

_NUMBERS = st.one_of(st.integers(-3, 3), st.sampled_from([0.5, 0.1, 1 / 3, -2.25, 1e-7]))
_SMALL = st.integers(0, 3)


def _sym(draw, n, entries=_SMALL):
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    a = np.triu(a) + np.triu(a, 1).T
    return a.astype(int) if np.array_equal(a, np.rint(a)) else a


def _ints(draw, shape, lo=-2, hi=2):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))).reshape(shape)


def _graph(draw, n):
    from misdpkit.problems import Graph

    return Graph.make(n, [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())])


def _gpp(draw):
    from misdpkit.problems import GppInstance

    return GppInstance.make(_graph(draw, 4), 2, (2, 2))


def _tour_distances(draw, n):
    d = _sym(draw, n, st.one_of(st.integers(1, 9), st.sampled_from([0.5, 2.75])))
    np.fill_diagonal(d, 0)
    return (d,)


def _qap(draw):
    from misdpkit.problems import QapInstance

    n = draw(st.integers(2, 3))
    return (QapInstance.make(_sym(draw, n, _NUMBERS), _sym(draw, n), _sym(draw, n)),)


def _qcqp(draw):
    from misdpkit.formulations import QcqpInstance

    n = draw(st.integers(2, 3))
    inst = QcqpInstance(n, _sym(draw, n, _NUMBERS), _ints(draw, n),
                        quads=[(_sym(draw, n), _ints(draw, n), draw(_SMALL))],
                        lin_eq=[(_ints(draw, n), draw(_SMALL))])
    return inst, draw(st.booleans())


def _qmp1(draw):
    from misdpkit.formulations import Qmp1Instance

    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    return (Qmp1Instance(n, k, _sym(draw, n, _NUMBERS), partition=draw(st.booleans())),)


def _qmp2(draw):
    from misdpkit.formulations import Qmp2Instance

    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    return (Qmp2Instance(n, k, _sym(draw, n, _NUMBERS), _ints(draw, (n, k)), draw(_SMALL),
                         partition=draw(st.booleans())),)


def _weights(draw, n):
    return draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))


def _qbpp(draw):
    w = _weights(draw, 3)
    return w, max(w) + draw(_SMALL), draw(_SMALL), _sym(draw, 3)


def _sils(draw):
    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    return _ints(draw, (n, k)), _ints(draw, n), draw(st.integers(0, k))


def _completion(draw):
    observed = {(i, j): draw(st.integers(-1, 1)) for i in range(2) for j in range(2) if draw(st.booleans())}
    return (2, 2), observed, draw(st.sampled_from([[0, 1], [-1, 0, 1]]))


# builder name -> draw -> arguments of a small random instance
_INSTANCES = {
    "build_stable_set": lambda draw: (_graph(draw, draw(st.integers(1, 4))),),
    "build_mkcs": lambda draw: (_graph(draw, 3), draw(st.integers(1, 3))),
    "build_qbpp": _qbpp,
    "build_qmkp": lambda draw: (_weights(draw, 3), draw(st.lists(_SMALL, min_size=1, max_size=2)),
                                draw(st.lists(_SMALL, min_size=3, max_size=3)), _sym(draw, 3)),
    "build_qap": _qap,
    "build_tsp_qap": lambda draw: _tour_distances(draw, 3),
    "build_tsp_cvetkovic": lambda draw: _tour_distances(draw, draw(st.integers(3, 7))),
    "build_tsp_lee": lambda draw: _tour_distances(draw, draw(st.sampled_from([5, 7]))),
    "build_gpp": lambda draw: (_gpp(draw), draw(st.sampled_from(["general", "equipartition", "bisection", "orthogonal"]))),
    "build_kep_assoc": lambda draw: (_gpp(draw), draw(st.booleans())),
    "build_matrix_completion": _completion,
    "build_sils": _sils,
    "build_bsdp_qcqp": _qcqp,
    "build_bsdp_qmp1": _qmp1,
    "build_bsdp_qmp2": _qmp2,
}


@st.composite
def _random_models(draw):
    from misdpkit import formulations, problems

    name = draw(st.sampled_from(sorted(_INSTANCES)))
    builder = getattr(problems, name, None) or getattr(formulations, name)
    return builder(*_INSTANCES[name](draw))


@st.composite
def _fraction_pencil_models(draw):
    # matrix completion keeps its observed values in the pencil's constant
    from misdpkit.problems import build_matrix_completion

    observed = {(i, j): draw(_fractions()) for i in range(2) for j in range(2) if draw(st.booleans())}
    return build_matrix_completion((2, 2), observed, draw(st.sampled_from([[0, 1], [-1, 0, 1]])))


class TestRoundTripProperties:
    def test_every_builder_has_random_instances(self):
        from misdpkit import formulations, problems

        builders = {n for mod in (problems, formulations) for n in dir(mod) if n.startswith("build_")}
        assert set(_INSTANCES) == builders

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_random_models(), _fraction_pencil_models()), st.sampled_from(["cbf", "json"]))
    def test_export_import_export_is_byte_identical(self, m, fmt):
        export, load = (export_cbf, import_cbf) if fmt == "cbf" else (export_json, import_json)
        text = export(m)
        again = load(text)
        assert export(again) == text
        if fmt == "json":  # CBF writes Fraction data as floats
            assert again == m

    @pytest.mark.parametrize("dom, coef, constant, rhs, metadata, message", [
        (VarDomain.continuous(0, math.inf), 1, 0, 2, {}, "upper bound of 't' is inf"),
        (VarDomain.continuous(-math.inf, 1), 1, 0, 2, {}, "lower bound of 't' is -inf"),
        (VarDomain.continuous(0, 1), 1, math.inf, 2, {}, "objective constant is inf"),
        (VarDomain.continuous(0, 1), 1, 0, math.inf, {}, "rhs of row 0 is inf"),
        (VarDomain.continuous(0, 1), math.nan, 0, 2, {}, "NaN coefficient of 'a'"),
        (VarDomain.continuous(0, 1), 1, 0, 2, {"note": math.nan}, "not JSON compliant"),
        (VarDomain.continuous(0, 1), 1, 3, 2, {"note": 0.5}, None),
    ])
    @pytest.mark.parametrize("fmt", ["cbf", "json"])
    def test_exporters_write_only_what_their_readers_accept(self, dom, coef, constant, rhs, metadata, message, fmt):
        # each model passes `validate` or fails only on its NaN coefficient;
        # an exporter either refuses it before writing, naming the infinite
        # item, or writes a file that its reader turns back into the model
        export, load = (export_cbf, import_cbf) if fmt == "cbf" else (export_json, import_json)
        m = MisdpModel([("a", VarDomain.binary()), ("t", dom)], Objective("min", {"a": coef, "t": 1}, constant),
                       rows=[LinRow((("a", 1), ("t", 1)), "<=", rhs)], metadata=metadata)
        if message is None:
            assert load(export(m)) == m
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                export(m)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dumps_loads_matrix(self, data):
        m = SymMat(_sym(data.draw, data.draw(st.integers(1, 5)), _NUMBERS))
        text = dumps_matrix(m)
        again = loads_matrix(text)
        assert again == m and (again.ints is None) == (m.ints is None)
        assert dumps_matrix(again) == text


def _dense_sum(pencil, values):
    """`pencil` at `values` as the dense float64 stack summed it: the constant
    plus float(v) times each term matrix whose v is nonzero, in term order.
    `evaluate` must equal it bit for bit."""
    mats = np.zeros((len(pencil.entries), pencil.order, pencil.order))
    for mat, triples in zip(mats, pencil.entries):
        for r, c, x in triples:
            mat[r, c] = mat[c, r] = x
    out = mats[0].copy()
    for (name, _), mat in zip(pencil.terms, mats[1:]):
        v = float(values[name])
        if v != 0.0:
            out += v * mat
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_VALUES = st.one_of(st.integers(-3, 3), _fractions(), st.floats(-4, 4), st.sampled_from([1 / 3, -0.1, 1e-300]))


@st.composite
def _random_pencils(draw):
    order = draw(st.integers(1, 4))
    coord = st.integers(0, order - 1)

    def triples():
        cells = draw(st.lists(st.tuples(coord, coord).map(sorted).map(tuple), unique=True, max_size=6))
        return [(r, c, draw(_VALUES)) for r, c in cells]

    names = draw(st.lists(st.sampled_from("abcde"), unique=True, max_size=4))
    return MatrixPencil(order, triples(), [(name, triples()) for name in names])


class TestCompiledPencil:
    """`MatrixPencil(order, const, terms)` from (r, c, value) triples: the exact
    `entries`, `integral`, and `evaluate`, which sums the entries in floats."""

    @settings(max_examples=100, deadline=None)
    @given(_random_models(), st.data())
    def test_entries_rebuild_the_read_only_matrices(self, m, data):
        # entries are nested tuples, and an evaluate result is the caller's own
        for p in m.pencils:
            assert type(p.entries) is tuple and all(type(e) is tuple for e in p.entries)
            assert p.terms == tuple(zip((name for name, _ in p.terms), p.entries[1:]))
            for entries in p.entries:
                for triple in entries:
                    r, c, x = triple
                    assert type(triple) is tuple and r <= c and x != 0
                    assert type(x) is int or (type(x) in (float, Fraction) and x != int(x)) or (
                        type(x) is CosInt and any(x.coeffs[1:]))
            assert p.integral == all(type(x) is int for entries in p.entries for _, _, x in entries)
            assert p.exact == all(type(x) in (int, CosInt) for entries in p.entries for _, _, x in entries)
            values = {name: data.draw(_VALUES) for name, _ in p.terms}
            first = p.evaluate(values)
            assert _same_bits(first, _dense_sum(p, values))
            first[...] = 7.0
            assert _same_bits(p.evaluate(values), _dense_sum(p, values))

    def test_every_builder_pencil_is_rebuilt_from_its_entries(self):
        for m in _one_model_per_builder():
            for p in m.pencils:
                again = MatrixPencil(p.order, p.entries[0], p.terms)
                assert again == p and again.entries == p.entries and again.integral == p.integral

    def test_evaluate_is_the_dense_sum_on_every_builder_pencil(self):
        points = [1, -1, 2, Fraction(1, 3), Fraction(-5, 2), 0.1, -2.75, 1e-300, 0]
        for m in _one_model_per_builder():
            for p in m.pencils:
                for shift in range(len(points)):
                    values = {name: points[(k + shift) % len(points)] for k, (name, _) in enumerate(p.terms)}
                    assert _same_bits(p.evaluate(values), _dense_sum(p, values))

    @settings(max_examples=300, deadline=None)
    @given(_random_pencils(), st.data())
    def test_evaluate_is_the_dense_sum_on_random_pencils(self, p, data):
        # int, Fraction and float entries and values, tiny products included
        values = {name: data.draw(_VALUES) for name, _ in p.terms}
        assert _same_bits(p.evaluate(values), _dense_sum(p, values))

    def test_float_entries(self):
        p = MatrixPencil(2, [(0, 0, 1), (1, 0, 0.5), (1, 1, 2.0)], [("x", [(1, 1, 3.0)]), ("y", [])])
        assert not p.integral
        assert p.entries == (((0, 0, 1), (0, 1, 0.5), (1, 1, 2)), ((1, 1, 3),), ())
        assert [type(x) for _, _, x in p.entries[0]] == [int, float, int]
        assert np.array_equal(p.evaluate({"x": 0, "y": 5}), [[1, 0.5], [0.5, 2]])

    def test_fraction_entries_stay_exact(self):
        third = Fraction(1, 3)
        p = MatrixPencil(2, [(0, 0, third), (1, 1, Fraction(4, 2))], [("x", [(1, 0, third)])])
        assert p.entries == (((0, 0, third), (1, 1, 2)), ((0, 1, third),))
        assert type(p.entries[0][1][2]) is int and not p.integral
        assert p.terms == (("x", ((0, 1, third),)),)
        assert p.evaluate({"x": 0})[0, 0] == p.evaluate({"x": 1})[1, 0] == 1 / 3

    def test_integral_values_of_every_type_are_ints(self):
        p = MatrixPencil(2, [(0, 0, 2.0), (0, 1, Fraction(-3)), (1, 1, np.int64(5))],
                         [("x", [(1, 0, np.float64(-1.0)), (1, 1, 0.0)])])
        assert p.integral and p.entries == (((0, 0, 2), (0, 1, -3), (1, 1, 5)), ((0, 1, -1),))
        assert all(type(x) is int for entries in p.entries for _, _, x in entries)

    def test_the_caller_keeps_its_triples(self):
        const = [(0, 0, 1), (1, 1, 1)]
        p = MatrixPencil(2, const, [("x", const)])
        const[0] = (0, 0, 5)
        assert p.entries[0] == p.terms[0][1] == ((0, 0, 1), (1, 1, 1))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400, Fraction(10**400, 3)])
    def test_non_finite_entries_are_refused(self, bad):
        with pytest.raises(ValueError, match="pencil constant has a non-finite entry"):
            MatrixPencil(2, [(0, 0, bad)], [])
        with pytest.raises(ValueError, match="pencil term 'x' has a non-finite entry"):
            MatrixPencil(2, [], [("x", [(0, 1, bad)])])

    def test_entries_that_are_not_numbers_are_refused(self):
        with pytest.raises(ValueError, match="pencil term 'x' has entry '1', not a real number"):
            MatrixPencil(2, [], [("x", [(0, 1, "1")])])

    @pytest.mark.parametrize("r, c", [(2, 0), (0, 2), (-1, 0), (1, -1)])
    def test_entries_out_of_range_are_refused(self, r, c):
        with pytest.raises(ValueError, match=r"pencil term 'x' has entry \(-?\d, -?\d\) outside order 2"):
            MatrixPencil(2, [], [("x", [(r, c, 1)])])

    @pytest.mark.parametrize("triples", [
        [(0, 1, 1), (0, 1, 1)], [(0, 1, 1), (1, 0, 2)], [(1, 1, 0), (1, 1, 3)],
    ], ids=["twice", "mirrored", "zero-first"])
    def test_repeated_entries_are_refused(self, triples):
        with pytest.raises(ValueError, match=r"pencil constant repeats entry \((0, 1|1, 1)\)"):
            MatrixPencil(2, triples, [])

    def test_repeated_term_names_are_refused(self):
        # as one term ("x", (0, 1)) the pencil is not PSD at x = 1; as two it is
        with pytest.raises(ValueError, match="pencil repeats term 'x'"):
            MatrixPencil(2, [(0, 0, 1)], [("x", [(1, 1, 1)]), ("x", [(0, 1, 1)])])
        obj = json.loads(export_json(stable_set_k2_model()))
        obj["pencils"][0]["terms"].append(["x[0]", [[2, 2, 1]]])
        with pytest.raises(ParseError, match="pencil repeats term 'x\\[0\\]'"):
            import_json(json.dumps(obj))
        # CBF names a term by its variable: two terms of one cone under one
        # name are two variables of one name, and are not merged
        text = export_cbf(stable_set_k2_model())
        assert "\n0 0 1 0 1\n0 0 1 1 1\n0 1 2 0 1\n0 1 2 2 1\n" in text  # cone 0, variables 0 and 1
        with pytest.raises(ParseError, match="duplicate variable names"):
            import_cbf(text.replace("names: x[0] x[1]", "names: x[0] x[0]"))

    @pytest.mark.parametrize("fmt", ["cbf", "json"])
    def test_both_readers_bound_the_dense_entries(self, fmt):
        # a sparse file does not pay for its order, but evaluate and the exact
        # PSD test build order^2 entries per matrix, 2^24 in all at most
        export, load = (export_cbf, import_cbf) if fmt == "cbf" else (export_json, import_json)

        def model(order):
            return MisdpModel([("x", VarDomain.binary())], Objective("min", {"x": 1}),
                              pencils=[MatrixPencil(order, [(0, 0, 1)], [("x", [(1, 1, 1)])])])

        assert load(export(model(2896))) == model(2896)  # 2 * 2896^2 <= 2^24
        with pytest.raises(ParseError, match=f"pencils need {2 * 2897**2} dense entries, more than {2**24}"):
            load(export(model(2897)))
        old, new = ('"order":2', '"order":1000000') if fmt == "json" else ("PSDCON\n1\n2\n", "PSDCON\n1\n1000000\n")
        text = export(model(2))
        assert text.count(old) == 1
        with pytest.raises(ParseError, match="pencils need 2000000000000 dense entries"):
            load(text.replace(old, new))

    def test_import_cbf_refuses_a_repeated_coordinate(self):
        # (0, 1) of x[0] twice: once as written, once mirrored
        text = export_cbf(stable_set_k2_model())
        assert "\n0 0 1 1 1\n" in text
        with pytest.raises(ParseError, match=r"PSD cone 0: pencil term 'x\[0\]' repeats entry \(0, 1\)"):
            import_cbf(text.replace("\n0 0 1 1 1\n", "\n0 0 0 1 1\n", 1))

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e400"])
    def test_import_json_refuses_non_finite_pencil_entries(self, token):
        text = export_json(stable_set_k2_model())
        bad = text.replace('"const":[[0,0,1]]', f'"const":[[0,0,{token}]]', 1)
        assert bad != text
        with pytest.raises(ParseError, match="is not a finite number"):
            import_json(bad)


class TestExportBytes:
    """The writers' bytes on one model per builder; export-import-export
    self-consistency alone would not see them change."""

    def test_cbf(self):
        # the Lee pencils are written scaled by 2, as 2I + sum_t 2cos(2pi tl/n) X_t
        text = "".join(_builder_cbf_texts())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "82f614bc9e7e69a06e9e0475235f71c33eca8a23e54ee72f412754a66bdfc630"
        )

    def test_json(self):
        # version 2: each pencil is its exact sparse entries, not dense float
        # matrices, and the tour pencils' entries in Z[2cos(2pi/5)] are ring entries
        text = "".join(_builder_texts())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "11d08d2aeee7a477977b96ba321f974f5ae4110917256f6f7517dff23c01172b"
        )
