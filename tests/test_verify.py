import copy
import functools
import itertools
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit import _kernels, config, cosring, formulations, hints, linalg, search, verify
from misdpkit import model as model_module
from misdpkit.errors import BudgetExceeded, UnsupportedContinuousPattern
from misdpkit.linalg import is_psd, rank_exact
from misdpkit.model import (
    LinRow,
    MatrixPencil,
    MisdpModel,
    Objective,
    VarDomain,
    eval_point,
    psd_exact_sum,
    widen,
)
from misdpkit.problems import Graph, build_mkcs, build_stable_set, build_tsp_cvetkovic
from misdpkit.verify import (
    SUITES,
    equivalence_suite,
    natural_optimum,
    optima_match,
    oracle,
    render_table,
    report_json,
    run_case,
    solve_by_enumeration,
)


def _triples(mat):
    """The nonzero upper-triangle (r, c, value) triples of a dense symmetric matrix."""
    mat = np.asarray(mat)
    return [(r, c, mat[r, c].item()) for r in range(len(mat)) for c in range(r, len(mat)) if mat[r, c]]


def _pencil(const, terms):
    """A MatrixPencil of dense symmetric matrices."""
    return MatrixPencil(len(const), _triples(const), [(name, _triples(mat)) for name, mat in terms])


class TestEnumeration:
    def test_stable_set_c5(self):
        m = build_stable_set(Graph.cycle(5))
        res = solve_by_enumeration(m)
        assert natural_optimum(m, res.optimum) == 2
        assert res.feasible_count == 11

    def test_budget(self):
        m = MisdpModel(
            [(f"b{i}", VarDomain.binary()) for i in range(30)],
            Objective("min", {}),
        )
        with pytest.raises(BudgetExceeded):
            solve_by_enumeration(m, budget=1000)

    def test_wide_integer_range_exceeds_budget(self):
        m = MisdpModel([("r", VarDomain.integer_range(0, 2**40))], Objective("min", {"r": 1}))
        with pytest.raises(BudgetExceeded):
            solve_by_enumeration(m)

    def test_unsupported_continuous(self):
        # a continuous variable with no elimination pattern at all
        m = MisdpModel(
            [("x", VarDomain.binary()), ("t", VarDomain.continuous())],
            Objective("min", {"x": 1}),
            pencils=[
                MatrixPencil(2, [], [("t", [(0, 0, 1), (1, 1, 1)]), ("x", [(0, 0, 1), (0, 1, 1), (1, 1, 1)])])
            ],
        )
        with pytest.raises(UnsupportedContinuousPattern):
            solve_by_enumeration(m)

    def test_infeasible_model(self):
        m = MisdpModel(
            [("x", VarDomain.binary())],
            Objective("min", {"x": 1}),
            rows=[LinRow((("x", 1),), "==", 2)],
        )
        res = solve_by_enumeration(m)
        assert res.optimum is None and res.feasible_count == 0

    def test_max_sense_model(self):
        m = MisdpModel(
            [("x", VarDomain.binary()), ("y", VarDomain.binary())],
            Objective("max", {"x": 1, "y": 2}),
            rows=[LinRow((("x", 1), ("y", 1)), "<=", 1)],
        )
        res = solve_by_enumeration(m)
        assert res.optimum == 2

    def test_ternary_and_range_domains(self):
        m = MisdpModel(
            [("t", VarDomain.ternary()), ("r", VarDomain.integer_range(-2, 2))],
            Objective("min", {"t": 1, "r": 1}),
            rows=[LinRow((("t", 1), ("r", 1)), ">=", -2)],
        )
        res = solve_by_enumeration(m)
        assert res.optimum == -2
        assert res.feasible_count == 14  # pairs with t + r >= -2


class TestOracles:
    def test_tsp_uniform(self):
        d = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
        res = oracle("tsp", d)
        assert res.optimum == 5 and res.feasible_count == 12

    def test_qap_constant(self):
        from misdpkit.problems import QapInstance

        j = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        res = oracle("qap", QapInstance.make(j, j))
        assert res.optimum == 6 and res.feasible_count == 6

    def test_gep_c4(self):
        from misdpkit.problems import GppInstance

        inst = GppInstance.make(Graph.cycle(4), 2, (2, 2))
        res = oracle("gpp", inst)
        assert res.optimum == 2 and res.feasible_count == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            oracle("nope")

    @pytest.mark.parametrize("args, optimum", [
        (("tsp", [[0, 2**63 + 1, 1], [2**63 + 1, 0, 1], [1, 1, 0]]), 2**63 + 3),
        (("qmkp", [1, 1], [2], [0, 0], [[0, 2**63 + 1], [2**63 + 1, 0]]), 2**64 + 2),
        (("qbpp", [1, 1], 2, 1, [[0, 2**63 + 1], [2**63 + 1, 0]]), 2),
    ])
    def test_int_lists_past_int64_stay_exact(self, args, optimum):
        # numpy holds 2**63 + 1 beside smaller ints as a float64; the oracles
        # read each matrix as rows of Python numbers, as the builders do
        res = oracle(*args)
        assert type(res.optimum) is int and res.optimum == optimum


class TestReports:
    def test_report_roundtrip_and_determinism(self):
        r1 = equivalence_suite("kep-gep-vs-assoc")
        r2 = equivalence_suite("kep-gep-vs-assoc")
        lines1 = [report_json(r) for r in r1.reports]
        lines2 = [report_json(r) for r in r2.reports]
        assert lines1 == lines2  # byte-identical without timing
        assert r1.passed
        table = render_table(r1.reports)
        assert "kep/C4" in table

    def test_run_case_bijection(self):
        g = Graph.cycle(4)
        rep = run_case("t", build_stable_set(g), "stable_set", (g,), True)
        assert rep.bijection is True and rep.match

    def test_match_rules(self):
        assert optima_match(2, 2)
        assert not optima_match(2, 3)
        assert optima_match(2.0, 2.0 + 1e-9)
        assert not optima_match(2.0, 2.1)
        assert optima_match(None, None)
        assert not optima_match(None, 2)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            equivalence_suite("nope")

    def test_mismatched_kep_pair(self):
        # the kep suite reports both optima when its two models disagree
        rep = verify.VerificationReport("kep/x", 2, (Fraction(5, 2), 2), 3, 3, True, 0.0, False)
        assert json.loads(report_json(rep))["misdp"] == ["5/2", 2]
        assert "(5/2, 2)" in render_table([rep])


class TestLayering:
    def test_the_search_loads_no_builder_oracle_or_report(self):
        # the checker stands apart from what it checks: in a fresh
        # interpreter the search imports no problem builder, no matrix
        # theory, no oracle and no report
        code = ("import sys, misdpkit.search; print(sorted(m for m in ('misdpkit.problems', 'misdpkit.dpsd', "
                "'misdpkit.oracles', 'misdpkit.verify') if m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"


class TestSuiteDriver:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_budget_reaches_every_suite(self, name):
        # the first case of every suite has more than one integer point
        with pytest.raises(BudgetExceeded, match="exceeds budget 1$"):
            next(SUITES[name](budget=1, seed=0))

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_one_case_per_step(self, name, monkeypatch):
        # each next() builds, enumerates and checks one case, so a benchmark
        # that times each step times one case
        calls = []
        solve = verify.solve_by_enumeration

        def counting(model, **kw):
            calls.append(model)
            return solve(model, **kw)

        monkeypatch.setattr(verify, "solve_by_enumeration", counting)
        rep = next(SUITES[name](budget=None, seed=0))
        assert rep.ok()
        assert len(calls) == (2 if name == "kep-gep-vs-assoc" else 1)


class TestSmallSuites:
    @pytest.mark.parametrize("name", [
        "stable-set-n4",
        "qcqp-random",
        "gpp-cross",
        "kep-gep-vs-assoc",
        "completion-2x2",
        "cvetkovic-hamiltonicity",
    ])
    def test_suite_passes(self, name):
        assert equivalence_suite(name).passed

    def test_registry_names(self):
        assert "stable-set-n5" in SUITES and "tsp-small" in SUITES


class TestCvetkovicClassification:
    def test_two_regular_classification(self):
        # the degree rows admit 70 two-regular graphs on 6 vertices; the
        # pencil keeps exactly the 60 hamilton cycles
        d = np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)
        res = solve_by_enumeration(build_tsp_cvetkovic(d), budget=2**20)
        assert res.feasible_count == 60


def _one_model_per_builder():
    from misdpkit import formulations, problems
    from misdpkit.formulations import QcqpInstance, Qmp1Instance, Qmp2Instance
    from misdpkit.problems import GppInstance, QapInstance

    d = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
    a = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    gpp = GppInstance.make(Graph.complete(4), 2, (2, 2))
    calls = {
        "build_stable_set": [(Graph.cycle(5),)],
        "build_mkcs": [(Graph.cycle(4), 2)],
        "build_qbpp": [([1, 2, 1], 3, 1, a)],
        "build_qmkp": [([1, 2, 1], [2, 3], [1, 1, 1], a)],
        "build_qap": [(QapInstance.make(a, a, a),)],
        "build_tsp_qap": [(d,)],
        "build_tsp_cvetkovic": [(d,)],
        "build_tsp_lee": [(d,)],
        "build_gpp": [(gpp, v) for v in ("general", "equipartition", "bisection", "orthogonal")],
        "build_kep_assoc": [(gpp,), (gpp, True)],
        "build_matrix_completion": [((2, 2), {(0, 0): 1}, [0, 1])],
        "build_sils": [(np.array([[1, -1], [0, 2], [1, 1]]), np.array([1, 0, -1]), 1)],
        "build_bsdp_qcqp": [
            (QcqpInstance(3, a, np.array([1, -1, 0]), lin_eq=[(np.array([1, 1, 0]), 1)]), c)
            for c in (False, True)
        ],
        "build_bsdp_qmp1": [(Qmp1Instance(3, 2, a),)],
        "build_bsdp_qmp2": [(Qmp2Instance(3, 2, a),)],
    }
    builders = {
        name: getattr(mod, name)
        for mod in (problems, formulations)
        for name in dir(mod)
        if name.startswith("build_")
    }
    assert set(calls) == set(builders)
    return [builders[name](*args) for name, arg_list in calls.items() for args in arg_list]


class TestHintRules:
    def test_every_emitted_rule_is_registered(self):
        from misdpkit.hints import _HINT_RULES

        emitted = {
            hint["rule"]
            for m in _one_model_per_builder()
            for hint in m.metadata.get("hints", [])
        }
        assert emitted == set(_HINT_RULES)

    def test_product_lift_equals_the_gram_sum(self):
        # a target with one factor on each side (X = x x^T) is lifted as one
        # product, the others as the sum over the factors; the search's lifts
        # and the leaf's gram stage read the same value, equal to `_gram_entry`
        # in value and type on ternary, int and Fraction points
        hint = _gram([["a"], ["b"], ["a", "b"], ["c", "d"]],
                     [["X", 0, 1], ["Y", 0, 0], ["Z", 2, 3], ["W", 3, 3]])
        lifts = hints._gram_lifts(hint)
        assert [type(value) is functools.partial for _, _, value in lifts] == [False, False, True, True]
        points = [*itertools.product((-1, 0, 1), repeat=4), (2, -3, 5, 7), (10**20, -1, 3, 0),
                  (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 4)), (Fraction(3), 1, Fraction(-1, 7), -2)]
        for point in points:
            assign = dict(zip("abcd", point))
            applied = dict(assign)
            hints._apply_gram(hint, None, applied)
            for (target, i, j), (lifted, inputs, value) in zip(hint["targets"], lifts):
                want = hints._gram_entry(hint["factors"][i], hint["factors"][j], assign)
                assert (lifted, inputs) == (target, hint["factors"][i] + hint["factors"][j])
                for got in (value(assign), applied[target]):
                    assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("hint", [{"rule": "grahm"}, {"targets": []}])
    def test_unknown_rule_raises_before_search(self, hint):
        m = build_stable_set(Graph.cycle(4))
        m.metadata["hints"] = m.metadata.get("hints", []) + [hint]
        with pytest.raises(ValueError, match="unknown hint rule"):
            solve_by_enumeration(m)

    @pytest.mark.parametrize("rule", [rule for rule, r in hints._HINT_RULES.items() if r.stage is not None])
    def test_apply_writes_exactly_what_it_covers(self, rule):
        # at a point that holds what the leaf holds before the rule's stage:
        # the integer values, then for the forced stage the lift values and
        # the closure's
        m = _model_with_rule(rule)
        hint = next(h for h in m.metadata["hints"] if h["rule"] == rule)
        covers = hints._HINT_RULES[rule].covers(hint)
        assert covers and len(set(covers)) == len(covers) and set(covers) <= {n for n, _ in m.variables}
        plan = search._Plan(m, budget=10**9)
        family, rng = plan.family, np.random.default_rng(0)
        values = [family.doms[n].iter_values() for n in family.int_names]
        for _ in range(5):
            point = {n: v[rng.integers(len(v))] for n, v in zip(family.int_names, values)}
            assign = dict(point)
            if hints._HINT_RULES[rule].stage == hints._FORCED:
                assign.update(zip(family.lift_names, family.leaf(m, point)[0]))
                assert plan.closure.apply(assign)
            before = set(assign)
            hints._HINT_RULES[rule].apply(hint, m, assign)
            assert set(assign) - before == set(covers)

    def test_defective_valid_cut_raises_before_search(self):
        m = build_stable_set(Graph.cycle(4))
        cut = {"coeffs": [["x[0]", 1], ["ghost", 1]], "rel": "<=", "rhs": 1}
        m.metadata["hints"] = m.metadata["hints"] + [{"rule": "valid_cuts", "rows": [cut]}]
        with pytest.raises(ValueError) as exc:
            solve_by_enumeration(m)
        assert str(exc.value) == "valid_cuts hint has defects: [\"row 0 references unknown variable 'ghost'\"]"


def _model_with_rule(rule):
    """A small builder model whose hints name `rule`, read back from JSON."""
    from misdpkit.model import export_json, import_json
    from misdpkit.problems import QapInstance, build_matrix_completion, build_qap, build_tsp_lee

    a = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    build = {
        "gram": lambda: build_stable_set(Graph.cycle(4)),
        "cycle_distance": lambda: build_tsp_lee(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)),
        "qap_schur": lambda: build_qap(QapInstance.make(a, a, a)),
        "nuclear": lambda: build_matrix_completion((2, 2), {(0, 0): 1}, [0, 1]),
    }
    build["valid_cuts"] = build["cycle_distance"]
    return import_json(export_json(build[rule]()))


class TestHintFields:
    """Malformed hint metadata raises one ValueError before the search."""

    @pytest.fixture(autouse=True)
    def _no_search(self, monkeypatch):
        def searching(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(search._Plan, "dfs", searching)

    @pytest.mark.parametrize("rule, field", [(rule, field) for rule, r in hints._HINT_RULES.items()
                                             for field in r.fields])
    def test_a_missing_field_is_named(self, rule, field):
        m = _model_with_rule(rule)
        hint = next(h for h in m.metadata["hints"] if h["rule"] == rule)
        del hint[field]
        for _ in range(2):  # the family is not kept
            with pytest.raises(ValueError) as exc:
                solve_by_enumeration(m)
            assert str(exc.value) == f"hint {hint!r} has no field {field!r}"

    def test_hints_that_are_not_a_list_of_dicts_are_refused(self):
        m = build_stable_set(Graph.cycle(4))
        (gram,) = m.metadata["hints"]
        for hints, message in ((5, "hints must be a list, not 5"),
                               (gram, f"hints must be a list, not {gram!r}"),
                               ([gram, "gram"], "hint 'gram' is not a dict"),
                               ([7], "hint 7 is not a dict")):
            m.metadata["hints"] = hints
            with pytest.raises(ValueError) as exc:
                solve_by_enumeration(m)
            assert str(exc.value) == message

    @pytest.mark.parametrize("rule, field, value, message", [
        ("nuclear", "rows", "2", "cannot be read: TypeError"),
        ("nuclear", "z1", 7, "names '7[0,0]', which is not a variable"),
        ("gram", "targets", [["zzz", 0, 1]], "names 'zzz', which is not a variable"),
        ("gram", "factors", [["ghost"]] * 4, "names 'ghost', which is not a variable"),
        ("gram", "targets", [["X[0,1]", 0, 9]], "cannot be read: IndexError"),
        ("gram", "targets", [{"target": "X[0,1]"}], "cannot be read: KeyError"),
        ("cycle_distance", "n", None, "cannot be read: TypeError"),
        ("valid_cuts", "rows", [{"coeffs": [["X1[0,1]", 1]], "rhs": 1}], "cannot be read: KeyError"),
        # a leaf would meet these as IndexError and TypeError in `model.pencils[...]`
        ("nuclear", "pencil", 5, "reads pencil 5, which the model does not have"),
        ("nuclear", "pencil", "0", "reads pencil '0', which the model does not have"),
        ("nuclear", "pencil", -1, "reads pencil -1, which the model does not have"),
        ("nuclear", "pencil", True, "reads pencil True, which the model does not have"),
    ])
    def test_a_value_that_cannot_be_read_is_named(self, rule, field, value, message):
        # the search would otherwise meet it at a leaf: `rows` in a slice, a
        # stray target as a variable left over, a missing factor in a lift
        m = _model_with_rule(rule)
        hint = next(h for h in m.metadata["hints"] if h["rule"] == rule)
        hint[field] = value
        for _ in range(2):  # the family is not kept
            with pytest.raises(ValueError) as exc:
                solve_by_enumeration(m)
            assert str(exc.value).startswith(f"hint {hint!r} {message}")

    def test_every_emitted_hint_has_its_fields(self):
        for m in _one_model_per_builder():
            for hint in m.metadata.get("hints", []):
                assert set(hints._HINT_RULES[hint["rule"]].fields) == set(hint) - {"rule"}


def _report_digest(name, seed=0):
    import hashlib

    lines = [report_json(r) for r in equivalence_suite(name, seed=seed).reports]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_FLOAT_SUITE_DIGESTS = [
    ("completion-2x2", "3aa2e5ddf72cd70228324fb1708b3ec6838ce4147d95e35bea18403a8ea56e20"),
    ("cvetkovic-hamiltonicity", "ea08021cf84f0d285147e115da5210dca4a2bf9e39dff1c8e2a8b815964b5fad"),
    ("qbpp-random", "df42458c381a4b925fcc4e133498953bfa94bcc8f836898477f0455c146d9b5a"),
    ("tsp-small", "337d6213a456a7d90c15361b1773b3ac51c7f282f79e3da57b58a37726e995c3"),
]
_INTEGER_SUITE_DIGESTS = [
    ("gpp-cross", "3ca42b22af2f88734b29c5335722c549a6b816cf4a71b6f222344f57b33ff596"),
    ("kep-gep-vs-assoc", "5df7f0bfe1b960f051b6aca9be72f8ee47ab914f2d54460d00fd539ced32f23b"),
    ("mkcs-small", "9f69a16e0045603b7802af17f7131185dab0ac44e7916c86bedb6fa241cd603e"),
    ("qap-random", "263f428bf56a8055b9d29daaf900c9881a35b349612ec8a3617c8ccc3f5e2070"),
    ("qcqp-random", "282b1766c47cce2113bcdfc5cfc8104a4fe3dfd6abc9de7062b7ecfa89bc2fe0"),
    ("qmkp-random", "9144e7b41939d35e9fe1e3e1bf76b44176b074d41fe8126a2345ec4da42acc6c"),
    ("sils-small", "07053412fa67a52c8bdc01c061450e75e804007732edba416e1da820739ccdaf"),
    ("stable-set-n4", "b13652b81bd4c6aa5e12af1e4079c48784dddbdeb02c6422212cc12f58bbc241"),
    ("stable-set-n5", "69b2a5ae642c0e4389b30314c4e481641efcb59e5faa87d2a304cb25125a5926"),
]


class TestFloatSuiteReports:
    """Report bytes of the suites that exercise the nuclear, cycle_distance
    and valid_cuts hints and the corner scalars."""

    @pytest.mark.parametrize("name,digest", _FLOAT_SUITE_DIGESTS)
    def test_report_bytes(self, name, digest):
        assert _report_digest(name) == digest

    @pytest.mark.parametrize("seed,digest", [
        (1, "8c79f67277a481021256dc73f7b563aa4d0ec5f3a057ef2e62d2443b42233b52"),
        (2, "0f382629ab8b43c63946b378b5b4bf71fe0ad9b6624628ece9ced02394de2e14"),
        (3, "faaca75f28f05a324fc654cf02fe6e4ff9bab3162be097d2de25f379c43d5289"),
        (4, "65592eceefc8d7b08679533b9f414c67ecb68f41fe2d650456c8021e65473de8"),
        (5, "b975cfde32c8eca7fdadfe2c84f79c87f5e5c5984259a67083df0663f8a1d08a"),
    ])
    def test_qbpp_report_bytes_by_seed(self, seed, digest):
        assert _report_digest("qbpp-random", seed) == digest


class TestIntegerSuiteReports:
    """Report bytes of the suites whose pencils are integral: the exact PSD
    test, the node checks and the variable order decide them."""

    @pytest.mark.parametrize("name,digest", _INTEGER_SUITE_DIGESTS)
    def test_report_bytes(self, name, digest):
        assert _report_digest(name) == digest

    def test_every_suite_is_pinned(self):
        pinned = [name for name, _ in _FLOAT_SUITE_DIGESTS + _INTEGER_SUITE_DIGESTS]
        assert sorted(pinned) == sorted(SUITES)


def _corner(const, i, a=1.0, dom=VarDomain.continuous()):
    """The corner stage on pencil const + t * a * e_i e_i^T: t as the point
    holds it (the float of the exact t the stage returns), or None if
    infeasible."""
    const = np.asarray(const, dtype=float)
    pencil = MatrixPencil(len(const), _triples(const), [("t", [(i, i, a)])])
    assign = {}
    t = search._resolve_corner(pencil, assign, "t", i, Fraction(a), dom)
    if t is None:
        return None
    assert type(t) is Fraction and assign["t"] == float(t)
    return assign["t"]


def _corner_verdicts(monkeypatch):
    """Record every `is_psd_at` call as (pencil, values, verdict), and every
    float PSD test or Jacobi call (which the exact route never makes)."""
    verdicts, floats = [], []
    is_psd_at = MatrixPencil.is_psd_at

    def deciding(pencil, values):
        ok = is_psd_at(pencil, values)
        verdicts.append((pencil, dict(values), ok))
        return ok

    monkeypatch.setattr(MatrixPencil, "is_psd_at", deciding)
    monkeypatch.setattr(model_module, "is_psd", lambda a: floats.append("is_psd"))
    monkeypatch.setattr(linalg, "jacobi_eigh", lambda *args: floats.append("jacobi"))
    return verdicts, floats


def _one_corner_model(sense, coef):
    """The pencil [[t, 1], [1, 3]] (PSD iff t >= 1/3) with t priced `coef` in a `sense` objective."""
    pencil = _pencil([[0, 1], [1, 3]], [("t", [[1, 0], [0, 0]])])
    return MisdpModel([("t", VarDomain.continuous())], Objective(sense, {"t": coef}), pencils=[pencil])


class TestCornerScalars:
    """The corner stage sets a scalar to its exact Schur boundary."""

    def test_two_by_two_boundary_is_exact(self):
        # [[t, 1], [1, 3]] is PSD iff t >= 1/3
        t = _corner([[0, 1], [1, 3]], 0)
        assert t == float(Fraction(1, 3)) and type(t) is float

    def test_singular_block_with_border_in_range(self):
        # B[R, R] = [[1, 1], [1, 1]] is singular, b = (1, 1) is in its range,
        # and b^T B[R, R]^+ b = 1, so 2t >= 1
        const = [[0, 1, 1], [1, 1, 1], [1, 1, 1]]
        t = _corner(const, 0, a=2.0)
        assert t == 0.5
        const = np.asarray(const, dtype=float)
        assert is_psd(const + t * np.diag([2.0, 0, 0]))
        assert not is_psd(const + (t - 1e-6) * np.diag([2.0, 0, 0]))

    def test_border_outside_range_is_infeasible(self):
        # B[R, R] = diag(1, 0) and b = (0, 1): no t makes the pencil PSD
        assert _corner([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 0) is None

    def test_boundary_below_lower_bound_gives_the_bound(self):
        assert _corner([[0, 1], [1, 3]], 0, dom=VarDomain.continuous(1)) == 1.0
        assert _corner([[0, 1], [1, 3]], 0, dom=VarDomain.continuous(Fraction(1, 4))) == float(Fraction(1, 3))

    def test_corner_on_a_later_diagonal_entry(self):
        # [[4, 2], [2, t]] is PSD iff t >= 1
        assert _corner([[4, 2], [2, 0]], 1) == 1.0

    @pytest.mark.parametrize("lo, t", [(0.25, Fraction(1, 3)), (0.4, Fraction(0.4)), (0.5, Fraction(1, 2))])
    def test_pencil_is_decided_at_the_exact_boundary(self, monkeypatch, lo, t):
        # [[t, 1], [1, 3]] is PSD iff t >= 1/3: above a float lower bound the
        # boundary is 1/3, below one it is the bound, as the Fraction it is;
        # the point and the optimum keep the float
        m = _one_corner_model("min", 1)
        m.variables = [("t", VarDomain.continuous(lo))]
        verdicts, floats = _corner_verdicts(monkeypatch)
        res = solve_by_enumeration(m)
        assert [(values, ok) for _, values, ok in verdicts] == [({"t": t}, True)] and floats == []
        assert res.optimum == float(t) and type(res.optimum) is float
        assert res.minimizers == [{"t": float(t)}] and res.feasible_count == 1

    @pytest.mark.parametrize("lo", [None, 0])
    def test_rest_block_not_psd_is_infeasible(self, monkeypatch, lo):
        # [[t, 1], [1, 2x - 1]]: at x = 0 the rest block [-1] is not PSD, so
        # the pencil fails at its boundary t = -1 (or at t = 0); at x = 1 it
        # holds at t = 1
        pencil = MatrixPencil(2, [(0, 1, 1), (1, 1, -1)], [("x", [(1, 1, 2)]), ("t", [(0, 0, 1)])])
        m = MisdpModel([("x", VarDomain.binary()), ("t", VarDomain.continuous(lo))],
                       Objective("min", {"t": 1}), pencils=[pencil])
        verdicts, floats = _corner_verdicts(monkeypatch)
        res = solve_by_enumeration(m)
        assert res.feasible_count == 1 and res.minimizers == [{"x": 1, "t": 1.0}]
        assert [(values, ok) for _, values, ok in verdicts] == [
            ({"x": 0, "t": Fraction(-1 if lo is None else 0)}, False), ({"x": 1, "t": Fraction(1)}, True)]
        assert floats == []

    @pytest.mark.parametrize("seed", range(6))
    def test_qbpp_corners_are_decided_exactly(self, monkeypatch, seed):
        # each leaf's pencil [[z, 1^T], [1, X]] is decided at the exact z = t*,
        # where it is PSD exactly when X, the block of the other indices, is
        verdicts, floats = _corner_verdicts(monkeypatch)
        assert equivalence_suite("qbpp-random", seed=seed).passed
        assert verdicts and floats == []
        for pencil, values, ok in verdicts:
            assert type(values["z"]) is Fraction
            full = [[0] * pencil.order for _ in range(pencil.order)]
            for v, triples in zip([1, *(0 if n == "z" else values[n] for n, _ in pencil.terms)], pencil.entries):
                for r, c, x in triples:
                    full[r][c] += v * x
            assert ok == linalg.is_psd_exact([row[1:] for row in full[1:]])

    @pytest.mark.parametrize("sense,coef", [("min", 1), ("min", 0), ("max", -1), ("max", 0)])
    def test_priced_toward_the_boundary_or_not_at_all(self, sense, coef):
        res = solve_by_enumeration(_one_corner_model(sense, coef))
        assert res.minimizers == [{"t": float(Fraction(1, 3))}] and res.feasible_count == 1

    @pytest.mark.parametrize("sense,coef", [("min", -1), ("max", 1)])
    def test_priced_away_from_the_boundary_raises(self, sense, coef):
        with pytest.raises(UnsupportedContinuousPattern, match="not priced"):
            solve_by_enumeration(_one_corner_model(sense, coef))

    def test_corner_on_a_ring_pencil_is_refused(self):
        # [[1 + x, a], [a, a t]] with a = 2cos(2pi/5): t sits alone on a
        # diagonal entry, but its boundary would be an element of Z[a]
        alpha = cosring.alpha(5)
        pencil = MatrixPencil(2, [(0, 0, 1), (0, 1, alpha)], [("x", [(0, 0, 1)]), ("t", [(1, 1, alpha)])])
        m = MisdpModel([("x", VarDomain.binary()), ("t", VarDomain.continuous(0, 10))],
                       Objective("min", {"t": 1}), pencils=[pencil])
        for _ in range(2):  # also once the family is kept
            with pytest.raises(UnsupportedContinuousPattern, match="corner scalar 't'"):
                solve_by_enumeration(m)
        # in a row, t is no corner, and the closure sets it: at t = 1/2 the
        # determinant is a/2 - a^2 < 0 at x = 0 and a - a^2 > 0 at x = 1
        m.rows = [LinRow((("t", 1),), "==", Fraction(1, 2))]
        res = solve_by_enumeration(m)
        assert res.feasible_count == 1 and res.minimizers == [{"x": 1, "t": Fraction(1, 2)}]

    def test_corner_path_runs_no_psd_test(self, monkeypatch):
        # qbpp-random seed 0 resolves 61 corners; every PSD test comes from
        # the leaf check, one per leaf that reaches the pencil
        counts = {"corner": 0, "psd": 0, "psd_in_corner": 0}
        inside = []
        real_corner, real_psd = search._resolve_corner, MatrixPencil.is_psd_at

        def corner(*args):
            counts["corner"] += 1
            inside.append(True)
            try:
                return real_corner(*args)
            finally:
                inside.pop()

        def psd(*args, **kwargs):
            counts["psd"] += 1
            counts["psd_in_corner"] += bool(inside)
            return real_psd(*args, **kwargs)

        monkeypatch.setattr(search, "_resolve_corner", corner)
        monkeypatch.setattr(MatrixPencil, "is_psd_at", psd)
        assert equivalence_suite("qbpp-random").passed
        assert counts == {"corner": 61, "psd": 61, "psd_in_corner": 0}


class TestRefusals:
    """Whether a model raises UnsupportedContinuousPattern depends on the
    model alone: its plan decides it, and the search never starts."""

    @pytest.fixture
    def searched(self, monkeypatch):
        """The models whose search started."""
        models, real = [], search._Plan.dfs

        def dfs(plan, d):
            if d == 0:
                models.append(plan.model)
            return real(plan, d)

        monkeypatch.setattr(search._Plan, "dfs", dfs)
        return models

    def test_a_free_variable_raises_whatever_a_sibling_stored(self, searched):
        # a - 2 is never PSD at binary a; with the row u - a == 0 the closure
        # sets u and every leaf is refused, by the family's stored verdicts
        # once they are kept; without it nothing sets u
        pencil = formulations.shared_pencil(1, [(0, 0, -2)], [("a", [(0, 0, 1)])])
        variables = [("a", VarDomain.binary()), ("u", VarDomain.continuous(0, 5))]
        free = MisdpModel(variables, Objective("min", {"a": 1}), pencils=[pencil])
        tied = MisdpModel(variables, Objective("min", {"a": 1}), [LinRow((("u", 1), ("a", -1)), "==", 0)], [pencil])
        assert search._family(free) is search._family(tied)
        for order in ((free, tied), (tied, free)):
            search._FAMILIES.clear()
            for _ in range(2):  # cold, then warm
                for m in order:
                    if m is free:
                        with pytest.raises(UnsupportedContinuousPattern, match=r"variables \['u'\]"):
                            solve_by_enumeration(m)
                    else:
                        res = solve_by_enumeration(m)
                        assert res.optimum is None and res.feasible_count == 0
        assert searched and all(m is tied for m in searched)

    def test_an_unpriced_corner_raises_with_no_leaf(self, searched):
        # [[x, 1], [1, t]] with t priced away from its boundary; x == 2 leaves no leaf
        pencil = _pencil([[0, 1], [1, 0]], [("x", [[1, 0], [0, 0]]), ("t", [[0, 0], [0, 1]])])
        m = MisdpModel([("x", VarDomain.binary()), ("t", VarDomain.continuous())], Objective("min", {"t": -1}),
                       [LinRow((("x", 1),), "==", 2)], [pencil])
        with pytest.raises(UnsupportedContinuousPattern, match="corner scalar 't' is not priced"):
            solve_by_enumeration(m)
        assert not searched

    def test_an_unresolvable_variable_raises_with_no_leaf(self, searched):
        m = MisdpModel([("a", VarDomain.binary()), ("u", VarDomain.continuous(0, 1))], Objective("min", {"a": 1}),
                       [LinRow((("a", 1),), "==", 2)])
        with pytest.raises(UnsupportedContinuousPattern, match=r"variables \['u'\]"):
            solve_by_enumeration(m)
        assert not searched


@functools.lru_cache(maxsize=None)
def _plans():
    return [search._Plan(m, budget=10**9) for m in _one_model_per_builder()]


def _suite_models(monkeypatch, count=None):
    """The models that the first `count` cases of each suite (every case with
    None) solve at seed 0, the two of each `_check_kep` case included."""
    models, real = [], verify.solve_by_enumeration

    def recording(model, budget=search.DEFAULT_BUDGET):
        models.append(model)
        return real(model, budget)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "solve_by_enumeration", recording)
        for name in SUITES:
            assert all(r.ok() for r in itertools.islice(SUITES[name](), count))
    return models


def _forward_passes(plan, point):
    """Whether the search passes every depth of its path to `point`: the
    search itself, on a copy of the plan whose step tables offer only the
    point's values."""
    walk, reached = copy.copy(plan), []
    walk.steps = [(name, (point[name],), *rest) for name, _, *rest in plan.steps]
    walk.leaf = lambda: reached.append(True)
    walk.dfs(0)
    return bool(reached)


def _assert_agrees(model, got, assign):
    """`got`, the compiled check's result on `assign`, matches eval_point's."""
    ref = eval_point(model, assign)
    assert (got is not None) == ref.feasible, ref.violations
    if got is not None:
        objective, residual = got
        assert type(objective) is type(ref.objective) and objective == ref.objective
        assert type(residual) is float and residual == ref.max_residual


class TestLeafCheck:
    """The compiled leaf check against the eval_point reference."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_eval_point_on_random_points(self, data):
        # the check skips the rows the forward checker decided, so the
        # search accepts a point when the checker passes its whole path and
        # the check then accepts it
        plan = data.draw(st.sampled_from(_plans()))
        point = {n: data.draw(st.sampled_from(plan.family.doms[n].iter_values())) for n in plan.family.int_names}
        assign = plan.resolve(point)
        if assign is not None:
            _assert_agrees(plan.model, plan.check(assign) if _forward_passes(plan, point) else None, assign)

    def test_agrees_with_eval_point_on_mixed_data(self):
        # exact, float and mixed rows of each relation, bounded continuous
        # variables, values of every number type, a pencil that a domain or
        # a row alone does not decide
        m = MisdpModel(
            [
                ("a", VarDomain.integer_range(-2, 3)),
                ("b", VarDomain.finite_set([-1, 0, 2])),
                ("t", VarDomain.continuous(0, 5)),
                ("u", VarDomain.continuous(None, 3)),
            ],
            Objective("min", {"a": Fraction(1, 3), "t": 1, "u": 2}, Fraction(1, 2)),
            rows=[
                LinRow((("a", Fraction(1, 3)), ("b", Fraction(1, 2))), "<=", Fraction(7, 6)),
                LinRow((("a", 1), ("t", -1)), ">=", -4),
                LinRow((("t", 0.1), ("u", 0.2)), "<=", 0.7),
                LinRow((("b", 2), ("u", Fraction(-1, 2))), "==", Fraction(-1, 4)),
            ],
            pencils=[MatrixPencil(2, [(1, 1, 4.0)], [("t", [(0, 0, 1.0)]), ("a", [(0, 1, 1.0)])])],
        )
        check = search._LeafCheck(m)
        ts = [0, Fraction(1, 2), 3, 3.0, -1, 5.0000000001, 6]
        us = [2, 2.0, Fraction(5, 2), Fraction(1, 2), -1.5, 4.5]
        feasible = 0
        for a, b, t, u in itertools.product(range(-2, 4), (-1, 0, 2), ts, us):
            point = {"a": a, "b": b, "t": t, "u": u}
            got = check(point)
            _assert_agrees(m, got, point)
            feasible += got is not None and got[1] > 0
        assert feasible > 0  # some feasible point has a nonzero float residual

    @pytest.mark.parametrize("a", [1.0, 0.0, Fraction(1, 2), 1])
    def test_agrees_with_eval_point_on_huge_data(self, a):
        # a row past the float range at a float value raised OverflowError in
        # both; its gap is taken exactly now
        m = MisdpModel([("a", VarDomain.continuous()), ("b", VarDomain.continuous())], Objective("min", {"a": 1}),
                       rows=[LinRow((("a", 10**400),), "<=", 1), LinRow((("a", 10**400), ("b", -10**400)), "==", 0.0)])
        _assert_agrees(m, search._LeafCheck(m)({"a": a, "b": a}), {"a": a, "b": a})

    def test_agrees_with_eval_point_on_every_leaf(self):
        feasible = 0
        for m in _one_model_per_builder():
            if m.metadata["problem"] == "tsp_qap":
                continue  # 2 s of order-15 pencils; the random points cover it
            # the second search reads the verdicts the first wrote into the family's leaf store
            for _ in range(2):
                plan = search._Plan(m, budget=10**9)

                def recording(assign, leaf=None, corners=None, m=m, compiled=plan.check):
                    got = compiled(assign, leaf, corners)
                    _assert_agrees(m, got, assign)
                    return got

                plan.check = recording
                plan.dfs(0)
                feasible += plan.result().feasible_count
        assert feasible > 0

    def test_psd_runs_only_on_domain_and_row_feasible_leaves(self, monkeypatch):
        # counts PSD decisions (is_psd_at calls), which the memos do not change
        leaf, node, jacobi, leaves, keys, refused, closures = [], [], [], [], set(), [], []
        current = {"at_leaf": False}
        plan_init, plan_leaf, leaf_check = search._Plan.__init__, search._Plan.leaf, search._LeafCheck.__call__
        resolve, is_psd_at, apply = search._Plan.resolve, MatrixPencil.is_psd_at, search._ClosureSolver.apply

        def planning(plan, model, budget):
            (pencil,) = model.pencils  # every sils model has one pencil
            current["order"] = pencil.order
            plan_init(plan, model, budget)

        def searching(plan):
            entry = plan.family.leaf(plan.model, plan.assignment)
            refused.append(not entry[1] or False in entry[2:])
            plan_leaf(plan)

        def closing(closure, assign, fractions=False, searched=False):
            closures.append(searched)
            return apply(closure, assign, fractions, searched)

        def resolving(plan, assignment, fractions=False, searched=False, leaf=None, corners=None):
            assign = resolve(plan, assignment, fractions, searched, leaf, corners)
            if searched:  # a search leaf: is every closure value inside its domain?
                leaves.append(assign is not None and all(
                    plan.family.doms[n].contains(assign[n], tol=config.DEFAULT.lin_feas)
                    for n, _ in plan.closure.determined))
                keys.add((id(plan.family), plan.family.key(assignment)))
            return assign

        def checking(check, assign, leaf=None, corners=None):
            current["at_leaf"] = True
            try:
                return leaf_check(check, assign, leaf, corners)
            finally:
                current["at_leaf"] = False

        def deciding(pencil, values):
            ok = is_psd_at(pencil, values)
            (leaf if current["at_leaf"] else node).append((pencil.order, current["order"], ok))
            return ok

        def float_route(a):
            jacobi.append(len(a))
            return is_psd(a)

        monkeypatch.setattr(search._Plan, "__init__", planning)
        monkeypatch.setattr(search._Plan, "leaf", searching)
        monkeypatch.setattr(search._ClosureSolver, "apply", closing)
        monkeypatch.setattr(search._Plan, "resolve", resolving)
        monkeypatch.setattr(search._LeafCheck, "__call__", checking)
        monkeypatch.setattr(MatrixPencil, "is_psd_at", deciding)
        monkeypatch.setattr(model_module, "is_psd", float_route)
        # the closure's windows (y1, y2 >= 0) read only x and X, so the forward
        # checker decides them at the nodes: no leaf fails one (1,566 of 4,023
        # leaves did when the leaf decided them), and the check keeps no row,
        # so every leaf reaches the pencil
        assert equivalence_suite("sils-small").passed
        # of the 2,457 search leaves, 1,484 are refused by a pencil verdict
        # that an earlier model of their family stored, before the point is
        # completed; the other 973 are completed (all 2,457 were before the
        # early reject), each with one closure, and 18 minimizers once more
        # with Fraction closure values
        assert len(refused) == 2457 and sum(refused) == 1484
        assert len(leaves) == 973 and all(leaves)
        assert closures.count(True) == 973 and len(closures) == 991
        # the models of one k share a family, which decides its pencil once
        # per integer assignment (each leaf asked it before the leaf store)
        assert len(leaf) == len(keys) == 696
        assert all(n == order for n, order, _ in leaf)
        # 222 of the 423 node checks prune, each on a leading block below full
        # order (474 of 675 when the windows waited for the leaf)
        assert len(node) == 423
        assert sum(not ok for _, _, ok in node) == 222
        assert all(n < order for n, order, _ in node)
        # integer pencils at int/Fraction points never take the float route
        assert jacobi == []

    @staticmethod
    def _row_at_the_leaf():
        # u = a + b is set by the closure, and only the leaf check reads the
        # float row u + 0.5 a <= rhs; the kept pencil [[b, a], [a, 1]] fails
        # at (a, b) = (1, 0), which the row rejects first when rhs < 1.5
        pencil = formulations.shared_pencil(2, [(1, 1, 1)], [("a", [(0, 1, 1)]), ("b", [(0, 0, 1)])])
        feasible = []
        for rhs in (1.2, 2.5, 1.2, 0.5):
            m = MisdpModel([("a", VarDomain.binary()), ("b", VarDomain.binary()), ("u", VarDomain.continuous(0, 10))],
                           Objective("max", {"u": 1}),
                           rows=[LinRow((("u", 1), ("a", -1), ("b", -1)), "==", 0),
                                 LinRow((("u", 1), ("a", 0.5)), "<=", rhs)],
                           pencils=[pencil])
            feasible.append(solve_by_enumeration(m).feasible_count)
        return feasible == [2, 3, 2, 1]

    @pytest.mark.parametrize("name", ["stable-set-n4", "mkcs-small", "row-at-the-leaf"])
    def test_kept_verdicts_are_asked_once_on_row_feasible_leaves(self, monkeypatch, name):
        # each search leaf passes the family's leaf entry to the check; a kept
        # pencil verdict is decided at the first leaf of the family whose
        # integer part meets its model's domains and rows, and read after that
        asked, reached, entries = [], set(), []
        current = {"leaf": None}
        plan_init, leaf_check, is_psd_at = search._Plan.__init__, search._LeafCheck.__call__, MatrixPencil.is_psd_at

        def planning(plan, model, budget):
            plan_init(plan, model, budget)
            current["plan"] = plan

        def checking(check, assign, leaf=None, corners=None):
            plan = current["plan"]
            m = plan.model
            key = (id(plan.family), plan.family.key(assign))
            feasible = eval_point(MisdpModel(m.variables, m.objective, m.rows), assign).feasible
            if feasible:
                reached.add(key)
            entries.append(leaf)
            current["leaf"] = key, feasible
            try:
                return leaf_check(check, assign, leaf, corners)
            finally:
                current["leaf"] = None

        def deciding(pencil, values):
            if current["leaf"]:
                asked.append(current["leaf"])
            return is_psd_at(pencil, values)

        monkeypatch.setattr(search._Plan, "__init__", planning)
        monkeypatch.setattr(search._LeafCheck, "__call__", checking)
        monkeypatch.setattr(MatrixPencil, "is_psd_at", deciding)
        assert self._row_at_the_leaf() if name == "row-at-the-leaf" else equivalence_suite(name).passed
        assert all(entry is not None for entry in entries) and len(entries) > len(asked) > 0
        assert all(feasible for _, feasible in asked)
        keys = [key for key, _ in asked]
        assert len(keys) == len(set(keys)) and set(keys) == reached

    def test_cold_pass_kernel_calls(self, monkeypatch):
        # the sils and mkcs models of one shape share a pencil and its memos:
        # one cold pass at seed 0 asked the kernel 3,132 and 6,056 times when
        # only the lift pencils remembered, and their leading blocks did not
        calls = []

        def kernel(*args):
            calls.append(args[0])
            return psd_exact_sum(*args)

        monkeypatch.setattr(model_module, "psd_exact_sum", kernel)
        for name, most in (("sils-small", 780), ("mkcs-small", 896)):
            calls.clear()
            assert equivalence_suite(name).passed
            assert 0 < len(calls) <= most

    def test_jacobi_runs_only_in_the_float_suites(self, monkeypatch):
        # the tour pencils are decided in Z[2cos(2pi/n)] (tsp-small made 360
        # Jacobi calls when they held floats) and the qbpp-random corners at
        # their exact boundary (61 calls when the pencil was decided at the
        # float); what is left at seed 0 is the completion-2x2 nuclear hint
        calls, current = {}, {}

        def counting(*args):
            calls[current["suite"]] = calls.get(current["suite"], 0) + 1
            return _kernels.jacobi_eigh(*args)

        monkeypatch.setattr(linalg, "jacobi_eigh", counting)
        for name in SUITES:
            current["suite"] = name
            assert equivalence_suite(name).passed
        assert calls == {"completion-2x2": 162}


def _reference_walk(model):
    """Optimum, feasible count and largest residual by brute force.

    Every integer point in model order, without forward checking or node
    checks, is completed by the leaf pipeline, with every closure value a
    Fraction (the types the enumerator's optimum keeps), and judged by
    eval_point.  To keep it fast, exact rows over integer variables alone
    are applied first, to all points at once: eval_point rejects any point
    that fails one.
    """
    plan = search._Plan(model, budget=10**9)
    names = model.integer_names()
    points = list(itertools.product(*(plan.family.doms[n].iter_values() for n in names)))
    grid = np.array(points, dtype=np.int64).reshape(len(points), len(names))
    col = {n: i for i, n in enumerate(names)}
    keep = np.ones(len(points), dtype=bool)
    for row in model.rows:
        exact = type(row.rhs) is int and all(type(c) is int for _, c in row.coeffs)
        if exact and all(n in col for n, _ in row.coeffs):
            lhs = sum(c * grid[:, col[n]] for n, c in row.coeffs)
            keep &= {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "==": lhs == row.rhs}[row.rel]
    offer, result = search._best_tracker(model.objective.sense)
    max_residual = 0.0
    for point, kept in zip(points, keep):
        assign = plan.resolve(dict(zip(names, point)), fractions=True) if kept else None
        if assign is not None:
            ref = eval_point(model, assign)
            if ref.feasible:
                offer(ref.objective, assign)
                max_residual = max(max_residual, ref.max_residual)
    best = result()
    return best.optimum, best.feasible_count, max_residual


def _assert_matches_reference_walk(model):
    got = solve_by_enumeration(model, budget=10**9)
    optimum, count, residual = _reference_walk(model)
    assert type(got.optimum) is type(optimum) and got.optimum == optimum
    assert got.feasible_count == count
    assert type(got.max_residual) is float and got.max_residual == residual


def _small_symmetric(draw, order):
    kind = draw(st.sampled_from(["zero", "diagonal", "general", "rank-one", "negative rank-one"]))
    if kind == "zero":
        return np.zeros((order, order))
    if kind == "diagonal":
        return np.diag(draw(st.lists(st.integers(-1, 3), min_size=order, max_size=order)))
    if kind == "general":
        a = np.array(draw(st.lists(st.integers(-2, 2), min_size=order**2, max_size=order**2)))
        a = a.reshape(order, order)
        return np.triu(a) + np.triu(a, 1).T
    u = np.array(draw(st.lists(st.integers(-1, 2), min_size=order, max_size=order)))
    return np.outer(u, u) * (1 if kind == "rank-one" else -1)


@st.composite
def _integer_pencil_models(draw):
    names = [f"v{i}" for i in range(draw(st.integers(2, 4)))]
    domains = st.sampled_from([
        VarDomain.binary(), VarDomain.ternary(),
        VarDomain.integer_range(0, 2), VarDomain.integer_range(Fraction(-3, 2), 1),
    ])
    pencils = []
    for _ in range(draw(st.integers(1, 2))):
        order = draw(st.integers(2, 4))
        used = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        terms = [(n, _small_symmetric(draw, order)) for n in used]
        pencils.append(_pencil(_small_symmetric(draw, order), terms))
    rows = [LinRow(((names[0], 1), (names[1], 1)), "<=", r) for r in draw(st.lists(st.integers(-1, 2), max_size=1))]
    return MisdpModel(
        [(n, draw(domains)) for n in names],
        Objective(draw(st.sampled_from(["min", "max"])), {n: draw(st.integers(-3, 3)) for n in names}),
        rows=rows,
        pencils=pencils,
    )


class TestNodeChecks:
    """The reordered search with node checks against a brute-force walk."""

    def test_builders_match_reference_walk(self):
        for m in _one_model_per_builder():
            if m.metadata["problem"] == "tsp_qap":
                continue  # 2^25 points
            _assert_matches_reference_walk(m)

    @settings(max_examples=200, deadline=None)
    @given(_integer_pencil_models())
    def test_random_integer_pencils_match_reference_walk(self, m):
        _assert_matches_reference_walk(m)

    def test_blocks_close_at_their_last_variable(self):
        # bordered lift: x_i enters the leading block of order i + 2, X_ij that of order j + 2
        plan = search._Plan(build_mkcs(Graph.cycle(4), 2), budget=10**9)
        assert plan.family.int_names == ["x[0]", "x[1]", "X[0,1]", "x[2]", "X[0,2]", "X[1,2]",
                                  "x[3]", "X[0,3]", "X[1,3]", "X[2,3]"]
        closing = {d: [b.order for b in checks] for d, checks in enumerate(plan.family.node_checks) if checks}
        assert closing == {0: [2], 2: [3], 5: [4]}

    def test_integral_float_domain_values_are_ints_and_get_node_checks(self):
        # at x = 1 the leading block [[1, 10], [10, 99]] has det -1: lambda_min
        # ~ -0.01 is outside its own float tolerance but inside that of the
        # whole pencil, whose last diagonal entry is 10^7.  The values 0.0 and
        # 1.0 are stored as ints, so every test of it is exact.
        dom = VarDomain.finite_set([0.0, 1.0])
        assert [type(v) for v in dom.values] == [int, int]
        pencil = MatrixPencil(3, [(0, 0, 1.0), (1, 1, 99.0), (2, 2, 1e7)], [("x", [(0, 1, 10.0)])])
        m = MisdpModel([("x", dom)], Objective("min", {"x": -1}), pencils=[pencil])
        closing = [[b.order for b in checks] for checks in search._Plan(m, budget=10).family.node_checks]
        assert pencil.integral and closing == [[2]]
        _assert_matches_reference_walk(m)
        assert solve_by_enumeration(m).feasible_count == 1
        assert not eval_point(m, {"x": dom.values[1]}).feasible

    def test_float_and_continuous_pencils_keep_order_and_get_no_checks(self):
        for m in (build_stable_set(Graph.cycle(5)), build_tsp_cvetkovic(np.ones((5, 5)) - np.eye(5))):
            plan = search._Plan(m, budget=10**9)
            assert plan.family.int_names == m.integer_names()
            assert not any(plan.family.node_checks)


def _brute_force(model):
    """Optimum and feasible count over every integer point, judged by eval_point."""
    names = [n for n, _ in model.variables]
    offer, result = search._best_tracker(model.objective.sense)
    for point in itertools.product(*(d.iter_values() for _, d in model.variables)):
        ref = eval_point(model, dict(zip(names, point)))
        if ref.feasible:
            offer(ref.objective, point)
    best = result()
    return best.optimum, best.feasible_count


_HUGE = st.integers(-10**18, 10**18)


@st.composite
def _exact_row_models(draw):
    """Integer variables only, with rows of int/Fraction data up to 10^18 in
    size, some with a pair of coefficients beyond float precision that nearly
    cancel, each row tight at a drawn point or off by a little."""
    doms = {
        f"v{i}": draw(st.sampled_from([
            VarDomain.binary(), VarDomain.ternary(),
            VarDomain.integer_range(-2, 2), VarDomain.finite_set([-1, 1, 3]),
        ]))
        for i in range(draw(st.integers(2, 4)))
    }
    coef = st.one_of(_HUGE, st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        used = draw(st.lists(st.sampled_from(list(doms)), min_size=1, max_size=3, unique=True))
        coeffs = [(n, draw(coef)) for n in used]
        if len(used) > 1 and draw(st.booleans()):
            big = draw(st.integers(2**54, 10**18)) * draw(st.sampled_from([1, -1]))
            coeffs[:2] = [(used[0], big + draw(st.integers(-2, 2))), (used[1], -big)]
        witness = {n: draw(st.sampled_from(doms[n].iter_values())) for n in used}
        lhs = sum(c * witness[n] for n, c in coeffs)
        rhs = lhs + draw(st.sampled_from([0, 0, 1, -1, Fraction(1, 2)]))
        rows.append(LinRow(tuple(coeffs), draw(st.sampled_from(["==", "<=", ">="])), rhs))
    return MisdpModel(
        list(doms.items()),
        Objective(draw(st.sampled_from(["min", "max"])), {n: draw(st.integers(-3, 3)) for n in doms}),
        rows=rows,
    )


@st.composite
def _float_row_models(draw):
    """Integer variables only, with rows of float data mixing magnitudes
    (1e8, 1e16, 0.1, 1/3), each row tight at a drawn point in eval_point's
    float sum or off by a little."""
    doms = {
        f"v{i}": draw(st.sampled_from([VarDomain.binary(), VarDomain.ternary(), VarDomain.integer_range(-2, 2)]))
        for i in range(draw(st.integers(2, 4)))
    }
    mag = st.sampled_from([1e8, 99999990.0, 1e16, 0.1, 1 / 3, 1.0, 3])
    coef = st.builds(operator.mul, mag, st.sampled_from([1, -1]))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        used = draw(st.lists(st.sampled_from(list(doms)), min_size=1, max_size=4, unique=True))
        coeffs = [(n, draw(coef)) for n in used]
        witness = {n: draw(st.sampled_from(doms[n].iter_values())) for n in used}
        lhs = sum(float(c) * witness[n] for n, c in coeffs)
        rhs = lhs + draw(st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 1e-8, 0.5]))
        rows.append(LinRow(tuple(coeffs), draw(st.sampled_from(["==", "<=", ">="])), rhs))
    return MisdpModel(
        list(doms.items()),
        Objective(draw(st.sampled_from(["min", "max"])), {n: draw(st.integers(-3, 3)) for n in doms}),
        rows=rows,
    )


class TestExactRows:
    """The forward checker decides rows with int/Fraction data exactly."""

    def test_every_suite_row_is_exact(self, monkeypatch):
        # a builder fills a missing term with int zeros (40 of the 80 rows of
        # qcqp-random took the float route when they were float zeros)
        models = _suite_models(monkeypatch)
        assert sum(m.metadata["problem"] == "kep_assoc" for m in models) == 3  # each kep case solves two
        floats = [(m.metadata["problem"], row.label) for m in models for row in m.rows
                  if search._leaf_row(row)[2] is None]
        assert floats == []

    def test_cancelling_coefficients(self):
        # float(10**17 + 1) == 1e17, so float windows rejected a = b = 1
        m = MisdpModel(
            [("a", VarDomain.binary()), ("b", VarDomain.binary())],
            Objective("min", {"a": 1}),
            rows=[LinRow((("a", 10**17 + 1), ("b", -10**17)), "==", 1)],
        )
        assert eval_point(m, {"a": 1, "b": 1}).feasible
        res = solve_by_enumeration(m)
        assert res.optimum == 1 and res.feasible_count == 1

    @pytest.mark.parametrize("coef, nodes", [(10**10, 4), (1e10, 7)])
    def test_only_float_rows_get_a_tolerance(self, coef, nodes):
        # 10^10 a <= 10^10 - 1 fails at a = 1 by 1: the exact row prunes it at
        # its node, while the float row gets no node test and its leaf check
        # rejects a = 1
        m = MisdpModel(
            [("a", VarDomain.binary()), ("b", VarDomain.binary())],
            Objective("min", {"b": 1}),
            rows=[LinRow((("a", coef),), "<=", coef - 1)],
        )
        res = solve_by_enumeration(m)
        assert res.feasible_count == 2 and res.nodes == nodes

    def test_continuous_range_folds_into_the_window(self):
        # a + t == 0 with t in [-1/2, 1/2] leaves a in [-1/2, 1/2]: the
        # window rounds inward and keeps only a = 0, so a = +-1 never reach a leaf
        m = MisdpModel(
            [("a", VarDomain.integer_range(-2, 2)),
             ("t", VarDomain.continuous(Fraction(-1, 2), Fraction(1, 2)))],
            Objective("min", {"a": 1}),
            rows=[LinRow((("a", 1), ("t", 1)), "==", 0)],
        )
        res = solve_by_enumeration(m)
        assert res.optimum == 0 and res.feasible_count == 1 and res.nodes == 2

    def test_coefficients_past_the_float_range(self):
        # the checker decides the first row, the closure proves the second
        # and the leaf check decides the third in ints: none needs a float
        big = 10**400
        m = MisdpModel([("a", VarDomain.binary()), ("t", VarDomain.continuous())], Objective("min", {"a": -1}),
                       rows=[LinRow((("a", big),), "<=", big), LinRow((("t", 1), ("a", -1)), "==", 0),
                             LinRow((("t", big), ("a", 1)), "<=", big + 1)])
        res = solve_by_enumeration(m)
        assert res.feasible_count == 2 and res.optimum == -1
        assert all(eval_point(m, {"a": a, "t": a}).feasible for a in (0, 1))

    def test_huge_rows_beside_open_or_float_ranges(self):
        # each raised OverflowError: a huge int added to an infinite or float
        # range end, or a huge rhs widened by a float eps
        big = 10**400
        a, b = ("a", VarDomain.binary()), ("b", VarDomain.binary())
        gram = {"hints": [_gram([["a"], ["b"]], [["X", 0, 1]])]}
        models = [
            MisdpModel([a, b, ("X", dom)], Objective("min", {"a": -1}),
                       rows=[LinRow((("a", big), ("X", 1)), "<=", big)], metadata=gram)
            for dom in (VarDomain.continuous(), VarDomain.continuous(0.0, 1.0))
        ]
        models.append(MisdpModel(
            [a, ("t", VarDomain.continuous(0, math.inf))], Objective("min", {"a": -1}),
            rows=[LinRow((("a", big), ("t", 1)), "<=", big), LinRow((("t", 1), ("a", -1)), "==", 0)]))
        models.append(MisdpModel(
            [a, b, ("t", VarDomain.continuous(0, 1)), ("u", VarDomain.continuous(0))],
            Objective("min", {"a": 1, "b": 1}),
            rows=[LinRow((("a", 1), ("t", big), ("u", 1)), ">=", 1),
                  LinRow((("t", 1), ("b", -1)), "==", 0), LinRow((("u", 1), ("b", -1)), "==", 0)]))
        answers = [(-1, 3), (-1, 3), (0, 1), (1, 3)]
        for m, answer in zip(models, answers):
            res = solve_by_enumeration(m)
            assert (res.optimum, res.feasible_count) == answer
            _assert_matches_reference_walk(m)

    def test_float_row_sums_do_not_drift(self):
        # (0.1 - 99999990.0) + 99999990.0 != 0.1: float partial sums moved by
        # backtracking pruned (1, 1, 0), which eval_point accepts
        m = MisdpModel([(n, VarDomain.binary()) for n in "abc"], Objective("min", {"a": -1}),
                       rows=[LinRow((("a", -0.1), ("b", 0.1), ("c", -99999990)), "==", 0)])
        assert eval_point(m, {"a": 1, "b": 1, "c": 0}).feasible
        res = solve_by_enumeration(m)
        assert (res.optimum, res.feasible_count) == (-1, 2)
        _assert_matches_reference_walk(m)

    def test_float_bounds_past_the_float_range(self):
        # t in continuous(0.0, 1.0) used to send the row to the float route,
        # whose float(rhs) overflowed; its finite float bounds fold exactly
        big = 10**400
        row = LinRow((("a", big), ("t", 1)), "<=", big + 1)
        m = MisdpModel([("a", VarDomain.binary()), ("t", VarDomain.continuous(0.0, 1.0))],
                       Objective("max", {"a": 1, "t": 1}), rows=[row])
        assert eval_point(m, {"a": 1, "t": 1}).feasible
        (_, ((_, (lo, hi)),)), decided, _ = search._family(m).row(row)
        assert (lo, hi, decided) == (-math.inf, big + 1, False)
        for rhs, optimum, count in ((big + 1, 2, 2), (big, 0, 1)):
            m = MisdpModel(m.variables, m.objective,
                           rows=[LinRow(row.coeffs, "<=", rhs), LinRow((("t", 1), ("a", -1)), "==", 0)])
            res = solve_by_enumeration(m)
            assert (res.optimum, res.feasible_count) == (optimum, count)
            _assert_matches_reference_walk(m)

    @pytest.mark.parametrize("lo, hi", [
        (0, 10**400), (-10**400, 10**400), (Fraction(-10**400, 3), 1), (10**400, None), (None, -10**400),
    ])
    def test_bounds_past_the_float_range(self, lo, hi):
        # lin_feas widened these bounds in floats, and both eval_point and
        # the search raised OverflowError; they widen exactly now
        m = MisdpModel([("a", VarDomain.binary()), ("t", VarDomain.continuous(lo, hi))],
                       Objective("min", {"a": -1}), rows=[LinRow((("t", 1), ("a", -1)), "==", 0)])
        inside = (lo is None or lo <= 1) and (hi is None or 1 <= hi)
        assert eval_point(m, {"a": 1, "t": 1}).feasible == inside
        _assert_matches_reference_walk(m)

    def test_widening_stays_in_floats_inside_the_float_range(self):
        assert widen(1, 1e-9) == 1 + 1e-9 and type(widen(Fraction(1, 3), -1e-9)) is float
        assert widen(10**400, -1e-9) == 10**400 - Fraction(1e-9)
        dom = VarDomain.continuous(0, 10**400)
        assert dom.contains(10**400, tol=1e-9) and not dom.contains(10**400 + 1, tol=1e-9)

    def test_float_bounds_fold_as_eval_point_reads_them(self):
        # Fraction(0.1) > 1/10, yet eval_point accepts u = 1/10 within lin_feas,
        # so the window folds [0.1 - tol, 1.0 + tol]; folding [0.1, 1.0] would
        # prune v = 0, u = 1/10
        m = MisdpModel([("v", VarDomain.binary()), ("u", VarDomain.continuous(0.1, 1.0))],
                       Objective("min", {"v": 1}),
                       rows=[LinRow((("u", 10), ("v", -1)), "==", 1), LinRow((("v", 1), ("u", 10)), "<=", 1)])
        assert eval_point(m, {"v": 0, "u": Fraction(1, 10)}).feasible
        res = solve_by_enumeration(m)
        assert (res.optimum, res.feasible_count) == (0, 1)
        _assert_matches_reference_walk(m)

    @settings(max_examples=300, deadline=None)
    @given(_exact_row_models())
    def test_matches_brute_force(self, m):
        res = solve_by_enumeration(m)
        assert (res.optimum, res.feasible_count) == _brute_force(m)

    @settings(max_examples=300, deadline=None)
    @given(_float_row_models())
    def test_float_rows_match_brute_force(self, m):
        res = solve_by_enumeration(m)
        assert (res.optimum, res.feasible_count) == _brute_force(m)


class TestPerDepthChecks:
    """Depth 0 checks every row and a later depth only the rows it moves, so
    the search prunes the nodes a scan of every row at every depth would."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_folded_window_prunes_as_the_six_term_test(self, data):
        # a check (smin, smax, cmin, cmax, up, down) is folded once into
        # (lo, hi) = (down - smax - cmax, up - smin - cmin), rounded to ints;
        # on int partial sums, with int and Fraction ranges (a widened bound
        # is a Fraction) and infinite bounds and ranges, s leaves [lo, hi]
        # exactly when s + smin + cmin > up or s + smax + cmax < down
        num = st.one_of(st.integers(-40, 40), st.fractions(-40, 40, max_denominator=7))
        s = data.draw(st.integers(-90, 90))
        smin, cmin, up = (data.draw(st.one_of(num, st.just(sign * math.inf))) for sign in (-1, -1, 1))
        smax, cmax, down = (data.draw(st.one_of(num, st.just(sign * math.inf))) for sign in (1, 1, -1))
        lo = search._fold(down, smax, cmax, math.ceil)
        hi = search._fold(up, smin, cmin, math.floor)
        assert (s < lo or s > hi) == (s + smin + cmin > up or s + smax + cmax < down)
        assert all(type(t) is int or t in (-math.inf, math.inf) for t in (lo, hi))

    def test_a_fold_never_takes_a_huge_int_into_floats(self):
        # an infinite end is kept as it is and never subtracted or added, and
        # a float bound is widened into the Fraction it equals before any
        # fold, so no huge int is converted to a float (OverflowError)
        big = 10**400
        assert search._fold(big, -math.inf, 0, math.floor) == math.inf
        assert search._fold(-big, big, math.inf, math.ceil) == -math.inf
        assert search._fold(math.inf, big, Fraction(1, 3), math.floor) == math.inf
        assert search._fold(big + 1, big, Fraction(-1, 3), math.floor) == 1
        assert search._add(big, math.inf) == math.inf and search._add(-math.inf, -big) == -math.inf
        half, one = search._contribution_bounds(1, VarDomain.continuous(0.5, 1.0))
        assert type(half) is type(one) is Fraction and half < Fraction(1, 2) and one > 1
        assert search._fold(big, half, Fraction(1, 3), math.floor) == big - 1
        assert search._fold(-big, one, 0, math.ceil) == -big - 1
        # the row a + X <= 10**400 over X = a b, a lifted target with float bounds
        m = MisdpModel([("a", VarDomain.binary()), ("b", VarDomain.binary()), ("X", VarDomain.continuous(0.0, 1.0))],
                       Objective("min", {"a": -1}), rows=[LinRow((("a", 1), ("X", 1)), "<=", big)],
                       metadata={"hints": [_gram([["a"], ["b"]], [["X", 0, 1]])]})
        assert solve_by_enumeration(m).feasible_count == 4
        _assert_matches_reference_walk(m)

    @pytest.mark.parametrize("rhs, nodes", [(-1, 1), (0, 5), (1, 7)])
    def test_a_row_on_a_later_variable_prunes_from_the_root(self, rhs, nodes):
        # b <= rhs reads only the second variable; no b meets rhs = -1
        m = MisdpModel([("a", VarDomain.binary()), ("b", VarDomain.binary())],
                       Objective("min", {"a": 1}), rows=[LinRow((("b", 1),), "<=", rhs)])
        assert solve_by_enumeration(m).nodes == nodes


@st.composite
def _equality_systems(draw):
    """Equality rows over unknowns u_i and known values k_j, each row naming
    an unknown, sometimes with a dependent row that may contradict."""
    unknowns = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    known = {f"k{j}": draw(value) for j in range(draw(st.integers(0, 2)))}
    coef = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(unknowns), min_size=1, unique=True))
        names += draw(st.lists(st.sampled_from(sorted(known)), unique=True)) if known else []
        rows.append(LinRow(tuple((n, draw(coef)) for n in names), "==", draw(coef)))
    if len(rows) > 1 and draw(st.booleans()):
        combo = {}
        for n, c in rows[0].coeffs + rows[1].coeffs:
            combo[n] = combo.get(n, 0) + c
        rhs = rows[0].rhs + rows[1].rhs + draw(st.sampled_from([0, 0, 1]))
        rows.append(LinRow(tuple(combo.items()), "==", rhs))
    return rows, unknowns, known


class TestClosure:
    """The closure's affine maps against exact ranks."""

    @settings(max_examples=300, deadline=None)
    @given(_equality_systems())
    def test_accepts_exactly_the_consistent_systems(self, system):
        rows, unknowns, known = system
        assign = dict(known)
        doms = {n: VarDomain.continuous() for n in [*unknowns, *known]}
        accepted = search._ClosureSolver(rows, set(unknowns), doms).apply(assign)
        # A u = b - K k is consistent iff [A | b - K k] has the rank of A;
        # each row is scaled to integers first
        augmented = []
        for row in rows:
            coeffs = dict(row.coeffs)
            line = [Fraction(coeffs.get(u, 0)) for u in unknowns]
            line.append(row.rhs - sum(c * known[n] for n, c in row.coeffs if n in known))
            den = math.lcm(*(Fraction(x).denominator for x in line))
            augmented.append([int(x * den) for x in line])
        consistent = rank_exact([r[:-1] for r in augmented]) == rank_exact(augmented)
        assert accepted == consistent
        if accepted:  # an int when integral, a Fraction otherwise
            for v in (assign[u] for u in unknowns if u in assign):
                assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)
            for row in rows:
                if all(n in assign for n, _ in row.coeffs):
                    assert sum(c * assign[n] for n, c in row.coeffs) == row.rhs


    @settings(max_examples=100, deadline=None)
    @given(_equality_systems(), st.data())
    def test_windows_accept_exactly_the_values_inside_the_bounds(self, system, data):
        rows, unknowns, known = system
        # quarters as floats too: the values often sit on a bound
        bound = st.one_of(st.none(), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4),
                          st.integers(-12, 12).map(lambda q: q / 4))
        free = {n: VarDomain.continuous() for n in [*unknowns, *known]}
        doms = dict(free, **{u: VarDomain.continuous(data.draw(bound), data.draw(bound)) for u in unknowns})
        closure = search._ClosureSolver(rows, set(unknowns), doms)
        unbounded = dict(known)
        expected = search._ClosureSolver(rows, set(unknowns), free).apply(unbounded) and all(
            doms[n].contains(unbounded[n], tol=config.DEFAULT.lin_feas) for n, _ in closure.determined
        )
        assert closure.apply(dict(known)) == expected

    @pytest.mark.parametrize("lo, hi, accepted", [
        (-1.75, None, True), (None, -1.5, True), (-1.25, None, False), (None, -1.75, False),
    ])
    def test_windows_on_a_fractional_numerator_are_not_rounded(self, lo, hi, accepted):
        # u = k = -3/2 over denominator 1: an int window would be [-1, inf) or (-inf, -2]
        rows = [LinRow((("u", 1), ("k", -1)), "==", 0)]
        doms = {"u": VarDomain.continuous(lo, hi), "k": VarDomain.continuous()}
        assert search._ClosureSolver(rows, {"u"}, doms).apply({"k": Fraction(-3, 2)}) == accepted


# The Fraction Gauss-Jordan that `search._reduce` and `_resolve_corner` ran
# before they reduced int rows fraction-free, kept as the reference.

def _ref_gauss_jordan(rows, width):
    """Row-reduce Fraction `rows` in place over their first `width` columns;
    return the pivot columns.  Row r < rank then has 1 at pivots[r] and 0 in
    the other pivot columns, and later rows are 0 in the first `width`."""
    pivots = []
    for c in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [v and v / inv for v in rows[rank]]  # the rows are sparse: zeros stay
        for r, row in enumerate(rows):
            if r != rank and row[c] != 0:
                f = row[c]
                rows[r] = [x - f * y if y else x for x, y in zip(row, rows[rank])]
        pivots.append(c)
    return pivots


def _ref_affine(tail, known):
    """b - K.y for a reduced row tail [K | b]: (int terms on `known`, int constant, denominator)."""
    den = math.lcm(*(x.denominator for x in tail))
    *k, b = tail
    return [(name, int(-c * den)) for name, c in zip(known, k) if c], int(b * den), den


def _ref_reduce(eqs, unknowns, doms, slots=None):
    """`search._reduce` over Fractions."""
    unk = list(dict.fromkeys(n for row in eqs for n, _ in row.coeffs if n in unknowns))
    known = list(dict.fromkeys(n for row in eqs for n, _ in row.coeffs if n not in unknowns))
    col = {n: i for i, n in enumerate(unk + known)}
    a = []
    for row in eqs:
        a.append([Fraction(0)] * len(col) + [search._frac(row.rhs)])
        for name, coef in row.coeffs:
            a[-1][col[name]] += search._frac(coef)
    w = len(unk)
    pivots = _ref_gauss_jordan(a, w)
    # a pivot row determines its variable when it touches no free column
    determined = [(unk[p], _ref_affine(a[r][w:], known)) for r, p in enumerate(pivots)
                  if all(a[r][c] == 0 for c in range(w) if c != p)]
    windows = [search._window(doms[name], form[2], all(doms[n].is_integer for n, _ in form[0]))
               for name, form in determined]
    dependent = [_ref_affine(row[w:], known) for row in a[len(pivots):] if any(row[w:])]
    tests, searched = [], list(windows)
    for k, ((_, (terms, const, _)), (lo, hi)) in enumerate(zip(determined, windows)):
        if slots is not None and (lo != -math.inf or hi != math.inf) and all(n in slots for n, _ in terms):
            tests.append((terms, lo if lo == -math.inf else math.ceil(lo - const),
                          hi if hi == math.inf else math.floor(hi - const)))
            searched[k] = (-math.inf, math.inf)
    return determined, windows, dependent, tests, searched, len(determined) == w


def _ref_resolve_corner(pencil, assign, name, i, a, dom):
    """`search._resolve_corner` over a Fraction matrix."""
    base = [[Fraction(0)] * pencil.order for _ in range(pencil.order)]
    values = [1] + [0 if term == name else assign[term] for term, _ in pencil.terms]
    for v, entries in zip(values, pencil.entries):
        if v:
            for r, c, x in entries:
                base[r][c] = base[c][r] = base[r][c] + search._frac(v) * Fraction(x)
    rest = [r for r in range(pencil.order) if r != i]
    rows = [[base[r][c] for c in rest] + [base[r][i]] for r in rest]
    pivots = _ref_gauss_jordan(rows, len(rest))
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    t = (sum(base[rest[p]][i] * row[-1] for p, row in zip(pivots, rows)) - base[i][i]) / a
    if dom.lo is not None and t < dom.lo:
        t = Fraction(dom.lo)
    assign[name] = float(t)
    return t


class TestFractionFreeElimination:
    """`_reduce` and `_resolve_corner` against the Fraction reductions above:
    the same forms, windows and tests, and the same corner values."""

    @settings(max_examples=300, deadline=None)
    @given(_equality_systems(), st.data())
    def test_reduce_matches_the_fraction_reduction(self, system, data):
        rows, unknowns, known = system
        bound = st.one_of(st.none(), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4),
                          st.integers(-12, 12).map(lambda q: q / 4))
        doms = {u: VarDomain.continuous(data.draw(bound), data.draw(bound)) for u in unknowns}
        kinds = st.sampled_from([VarDomain.continuous(), VarDomain.integer_range(-3, 3)])
        doms.update({k: data.draw(kinds) for k in known})
        slots = set(data.draw(st.lists(st.sampled_from(sorted(known)), unique=True))) if known else set()
        args = rows, set(unknowns), doms, slots
        assert repr(search._reduce(*args)) == repr(_ref_reduce(*args))

    def test_reduce_matches_on_every_suite_at_seed_zero(self, monkeypatch):
        real, determined = search._reduce, []

        def reduce(*args):
            got = real(*args)
            assert repr(got) == repr(_ref_reduce(*args))
            determined.append(len(got[0]))
            return got

        monkeypatch.setattr(search, "_reduce", reduce)
        for name in SUITES:
            assert equivalence_suite(name).passed, name
        assert sum(determined) > 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corner_values_match_on_fractional_data(self, data):
        # const + x * M + t * a * e_i e_i^T with float and Fraction data, which
        # the int rows scale by the lcm of their denominators
        order = data.draw(st.integers(1, 4))
        entry = st.sampled_from([0, 0, 1, -1, 2, 0.5, 0.1, -0.25])
        const, term = np.zeros((order, order)), np.zeros((order, order))
        for r, c in itertools.combinations_with_replacement(range(order), 2):
            const[r, c] = const[c, r] = data.draw(entry)
            term[r, c] = term[c, r] = data.draw(entry)
        i, a = data.draw(st.integers(0, order - 1)), data.draw(st.sampled_from([1, 2, 0.5]))
        pencil = MatrixPencil(order, _triples(const), [("x", _triples(term)), ("t", [(i, i, a)])])
        x = data.draw(st.sampled_from([0, 1, Fraction(1, 3), Fraction(-2, 5)]))
        dom = VarDomain.continuous(data.draw(st.sampled_from([None, 0, Fraction(1, 7), 0.1])))
        got, expected = {"x": x}, {"x": x}
        args = "t", i, Fraction(a), dom
        assert search._resolve_corner(pencil, got, *args) == _ref_resolve_corner(pencil, expected, *args)
        assert got == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_corner_values_match_on_qbpp(self, monkeypatch, seed):
        real, results = search._resolve_corner, []

        def corner(pencil, assign, name, *args):
            expected = dict(assign)
            t = _ref_resolve_corner(pencil, expected, name, *args)
            assert real(pencil, assign, name, *args) == t and assign == expected
            assert t is None or (type(t) is Fraction and type(assign[name]) is float)
            results.append(t)
            return t

        monkeypatch.setattr(search, "_resolve_corner", corner)
        assert equivalence_suite("qbpp-random", seed=seed).passed
        assert any(t is not None for t in results)


class TestIntegralClosureValues:
    """The closure writes an int where its value is integral, so the search
    computes in ints; the optimum keeps the type it has with every closure
    value a Fraction, which the reports print."""

    def test_closing_models_keep_their_optimum(self):
        expected = {"qap": Fraction(12), "gpp": Fraction(4), "kep_assoc": Fraction(4), "sils": Fraction(2, 3)}
        closing = []
        for m in _one_model_per_builder():
            problem = m.metadata["problem"]
            if problem == "tsp_qap":
                continue  # 2^25 points
            plan = search._Plan(m, budget=10**9)
            if not plan.closes:
                continue
            closing.append(problem)
            got = solve_by_enumeration(m, budget=10**9)
            assert type(got.optimum) is Fraction and got.optimum == expected[problem]
            for v in (got.minimizers[0][n] for n, _ in plan.closure.determined):
                assert type(v) is (int if Fraction(v).denominator == 1 else Fraction)
            if problem == "qap":  # its qap_schur products of int closure values are ints too
                assert {type(v) for v in got.minimizers[0].values()} == {int}
        assert sorted(set(closing)) == sorted(expected)


class TestClosureDecidesItsRows:
    """The bounds of determined unknowns and the rows the closure proves
    leave the leaf check; everything else stays, and the check still agrees
    with eval_point."""

    def test_a_free_unknown_keeps_every_row(self):
        # z + w = a leaves z and w free: y = a is determined, no row is proven
        m = MisdpModel(
            [("a", VarDomain.binary()), ("y", VarDomain.continuous(0, 1)),
             ("z", VarDomain.continuous(0)), ("w", VarDomain.continuous(0))],
            Objective("min", {"a": 1}),
            rows=[LinRow((("y", 1), ("a", -1)), "==", 0), LinRow((("z", 1), ("w", 1), ("a", -1)), "==", 0)],
        )
        plan = search._Plan(m, budget=10)
        assert [n for n, _ in plan.closure.determined] == ["y"] and plan.closure.proven == frozenset()
        assert [r[1] for r in plan.check.rows] == [["y", "a"], ["z", "w", "a"]]
        assert [b[0] for b in plan.check.bounds] == ["z", "w"]
        with pytest.raises(UnsupportedContinuousPattern):
            solve_by_enumeration(m)

    @staticmethod
    def _scaled(domain, coef):
        # coef * y == b, so y = b / coef exactly
        return MisdpModel([("b", domain), ("y", VarDomain.continuous(0))], Objective("min", {"y": 1}),
                          rows=[LinRow((("y", coef), ("b", -1)), "==", 0)])

    def test_float_data_stays_in_the_check(self):
        # the row is checked in floats
        domain = VarDomain.integer_range(1, 3)
        m = self._scaled(domain, 0.7)
        plan = search._Plan(m, budget=10)
        assert plan.closure.proven == frozenset() and len(plan.check.rows) == 1
        res = solve_by_enumeration(m)
        points = [plan.resolve({"b": b}) for b in domain.iter_values()]
        assert res.feasible_count == len(points)
        assert res.max_residual == max(eval_point(m, p).max_residual for p in points) == 4.440892098500626e-16

    def test_integral_float_values_are_ints_and_the_closure_proves_the_row(self):
        domain = VarDomain.finite_set((1.0, 2.0))
        assert domain.values == (1, 2) and {type(v) for v in domain.values} == {int}
        m = self._scaled(domain, 49)
        plan = search._Plan(m, budget=10)
        assert plan.closure.proven == {id(m.rows[0])} and plan.check.rows == []
        res = solve_by_enumeration(m)
        points = [plan.resolve({"b": b}) for b in domain.iter_values()]
        assert [p["y"] for p in points] == [Fraction(1, 49), Fraction(2, 49)]
        assert res.feasible_count == 2 and res.max_residual == 0.0
        assert all(eval_point(m, p).feasible and eval_point(m, p).max_residual == 0 for p in points)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("bound", [0, Fraction(1, 3), 0.1])
    def test_values_at_the_widened_bound_agree_with_eval_point(self, side, bound):
        # y = edge + a / D, edge = bound -/+ tol exactly and D its denominator:
        # a = -1, 0, 1 puts y one step below, on and one step above the edge
        tol = config.DEFAULT.lin_feas
        edge = Fraction(bound - tol if side == "lo" else bound + tol)
        m = MisdpModel(
            [("a", VarDomain.ternary()),
             ("y", VarDomain.continuous(bound) if side == "lo" else VarDomain.continuous(None, bound))],
            Objective("min", {"a": 1}),
            rows=[LinRow((("y", 1), ("a", Fraction(-1, edge.denominator))), "==", edge)],
        )
        plan = search._Plan(m, budget=10)
        assert plan.check.rows == [] and plan.check.bounds == []
        feasible = []
        for a in (-1, 0, 1):
            point = {"a": a, "y": edge + Fraction(a, edge.denominator)}
            assign = plan.resolve({"a": a})
            assert assign is None or assign == point
            got = None if assign is None else plan.check(assign)
            _assert_agrees(m, got, point)
            feasible.append(got is not None)
        assert feasible == ([False, True, True] if side == "lo" else [True, True, False])

    def test_sils_checks_keep_no_row_and_no_bound(self, monkeypatch):
        # the closure proves the equality rows and the forward checker
        # decides the support row, a cap on integer variables alone
        plans, plan_init = [], search._Plan.__init__

        def planning(plan, model, budget):
            plan_init(plan, model, budget)
            plans.append(plan)

        monkeypatch.setattr(search._Plan, "__init__", planning)
        assert equivalence_suite("sils-small").passed
        assert len(plans) == 18
        for plan in plans:
            (support,) = [r for r in plan.model.rows if r.label == "support"]
            assert plan.decided >= {id(support)}
            assert plan.check.rows == [] and plan.check.bounds == []


class TestCheckerDecidesItsRows:
    """A kept row with int/Fraction data over integer variables with int
    values and lifted targets over them leaves the leaf check, which the
    forward checker decided exactly; every other row stays."""

    @staticmethod
    def _leaf_rows(m):
        return [r[1] for r in search._Plan(m, budget=10**6).check.rows]

    def test_rows_over_int_values_and_lifted_targets_leave(self):
        m = build_stable_set(Graph.make(4, [(0, 1), (1, 2), (2, 3)]))
        plan = search._Plan(m, budget=10**6)
        assert plan.decided == {id(r) for r in m.rows} and plan.check.rows == []
        _assert_matches_reference_walk(m)

    def test_float_row_stays(self):
        m = MisdpModel([("a", VarDomain.integer_range(0, 3)), ("b", VarDomain.binary())],
                       Objective("min", {"a": -1, "b": 1}),
                       rows=[LinRow((("a", 0.5), ("b", 1)), "<=", 1.5)])
        assert self._leaf_rows(m) == [["a", "b"]]
        _assert_matches_reference_walk(m)

    def test_row_over_a_continuous_variable_stays(self):
        # the closure sets t = b and proves that row; a + t <= 2 reads t
        m = MisdpModel(
            [("a", VarDomain.integer_range(0, 3)), ("b", VarDomain.binary()), ("t", VarDomain.continuous(0, 1))],
            Objective("min", {"a": -1, "t": 1}),
            rows=[LinRow((("t", 1), ("b", -1)), "==", 0), LinRow((("a", 1), ("t", 1)), "<=", 2)],
        )
        assert self._leaf_rows(m) == [["a", "t"]]
        assert solve_by_enumeration(m).feasible_count == 5
        _assert_matches_reference_walk(m)

    def test_row_that_never_prunes_stays(self):
        # u is unbounded, so a - u <= 1 gives the checker no window
        m = MisdpModel(
            [("a", VarDomain.integer_range(0, 3)), ("b", VarDomain.binary()), ("u", VarDomain.continuous())],
            Objective("min", {"a": -1}),
            rows=[LinRow((("u", 1), ("b", -1)), "==", 0), LinRow((("a", 1), ("u", -1)), "<=", 1)],
        )
        plan = search._Plan(m, budget=10**6)
        assert len(plan.partial) == 0 and self._leaf_rows(m) == [["a", "u"]]
        assert solve_by_enumeration(m).feasible_count == 5
        _assert_matches_reference_walk(m)

    def test_with_no_integer_variable_every_row_stays(self):
        # the search of such a model is one leaf and never tests a node, so
        # the checker decides nothing: 0 >= 1 was skipped and t = 1/2 accepted
        m = MisdpModel([("t", VarDomain.continuous(0, 1))], Objective("min", {"t": 1}),
                       rows=[LinRow((("t", 1),), "==", Fraction(1, 2)), LinRow((), ">=", 1)])
        plan = search._Plan(m, budget=1)
        assert plan.decided == set() and self._leaf_rows(m) == [[]]
        assert not eval_point(m, {"t": Fraction(1, 2)}).feasible
        assert solve_by_enumeration(m).feasible_count == 0

    def test_row_over_integral_float_values_is_decided_exactly(self):
        # the values 1.0 and 2.0 are stored as ints, so eval_point sums
        # (10**17 + 1) a - 10**17 b exactly, as the checker does: at
        # a = b = 1 the residual is 1, not the 0 of a float sum
        dom = VarDomain.finite_set([1.0, 2.0])
        assert dom.values == (1, 2) and {type(v) for v in dom.values} == {int}
        m = MisdpModel([("a", dom), ("b", dom)], Objective("min", {"a": 1}),
                       rows=[LinRow((("a", 10**17 + 1), ("b", -10**17)), "==", 0)])
        plan = search._Plan(m, budget=10)
        assert plan.decided == {id(m.rows[0])} and self._leaf_rows(m) == []
        for a, b in itertools.product(dom.iter_values(), repeat=2):
            point = {"a": a, "b": b}
            assert not _forward_passes(plan, point) and not eval_point(m, point).feasible
        assert eval_point(m, {"a": 1, "b": 1}).max_residual == 1
        assert solve_by_enumeration(m).feasible_count == 0
        _assert_matches_reference_walk(m)


def _gram(factors, targets):
    return {"rule": "gram", "factors": factors, "targets": targets}


def _lifted(plan):
    return {target for _, _, _, lifts, _, _ in plan.steps for target, _, _ in lifts}


@st.composite
def _graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    return verify.graph_from_mask(n, draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


@st.composite
def _qcqp_instances(draw, max_n):
    """Binary QCQPs whose data may be zero, tied or negative."""
    from misdpkit.formulations import QcqpInstance

    n = draw(st.integers(1, max_n))
    vector = st.one_of(
        st.just([0] * n),
        st.integers(-2, 2).map(lambda v: [v] * n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    )
    quads = [
        (_small_symmetric(draw, n), np.array(draw(vector)), draw(st.integers(-2, 4)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    lin_eq = [
        (np.array(draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))), draw(st.integers(-1, 2)))
        for _ in range(draw(st.integers(0, 1)))
    ]
    return QcqpInstance(n, _small_symmetric(draw, n), np.array(draw(vector)), quads, lin_eq,
                        draw(st.sampled_from(["min", "max"])))


class TestLiftsAtNodes:
    """Gram targets over integer factors are set, and pruned on, from the
    depth where their last factor is assigned; the leaf computes the same
    values, so every search still matches the brute-force walk."""

    @settings(max_examples=60, deadline=None)
    @given(_graphs(6))
    def test_stable_set_matches_reference_walk(self, g):
        m = build_stable_set(g)
        assert _lifted(search._Plan(m, budget=10**9)) == {f"X[{u},{v}]" for u, v in g.edges}
        _assert_matches_reference_walk(m)

    @settings(max_examples=60, deadline=None)
    @given(_qcqp_instances(4), st.booleans())
    def test_qcqp_matches_reference_walk(self, inst, compact):
        from misdpkit.formulations import build_bsdp_qcqp

        _assert_matches_reference_walk(build_bsdp_qcqp(inst, compact=compact))

    @settings(max_examples=20, deadline=None)
    @given(_graphs(4), st.data())
    def test_orthogonal_gpp_matches_reference_walk(self, g, data):
        from misdpkit.problems import GppInstance, build_gpp

        k = data.draw(st.integers(1, min(2, g.n)))
        first = data.draw(st.integers(1, g.n - k + 1))
        inst = GppInstance.make(g, k, (first, g.n - first) if k == 2 else (g.n,))
        _assert_matches_reference_walk(build_gpp(inst, "orthogonal"))

    def test_integer_target_is_enumerated_not_lifted(self):
        m = MisdpModel(
            [("a", VarDomain.binary()), ("b", VarDomain.binary()), ("X", VarDomain.binary())],
            Objective("min", {"a": -1, "b": -1, "X": 1}),
            rows=[LinRow((("X", 1), ("a", -1)), "<=", 0)],
            metadata={"hints": [_gram([["a"], ["b"]], [["X", 0, 1]])]},
        )
        plan = search._Plan(m, budget=10)
        assert plan.family.int_names == ["a", "b", "X"] and _lifted(plan) == set()
        _assert_matches_reference_walk(m)
        assert solve_by_enumeration(m).feasible_count == 6

    def test_target_with_a_continuous_factor_is_set_at_the_leaf(self):
        # Y = a * a has an integer factor and is lifted; Z = Y * Y has the
        # continuous factor Y, so only the leaf's gram stage sets it
        m = MisdpModel(
            [("a", VarDomain.binary()), ("Y", VarDomain.continuous(0, 1)),
             ("Z", VarDomain.continuous(0, 1))],
            Objective("min", {"a": -1}),
            rows=[LinRow((("Y", 1), ("Z", 1)), "<=", 2), LinRow((("Z", 2), ("a", -1)), "<=", 1)],
            metadata={"hints": [_gram([["a"]], [["Y", 0, 0]]), _gram([["Y"]], [["Z", 0, 0]])]},
        )
        assert _lifted(search._Plan(m, budget=10)) == {"Y"}
        res = solve_by_enumeration(m)
        assert res.feasible_count == 2 and res.optimum == -1
        assert res.minimizers == [{"a": 1, "Y": 1, "Z": 1}]
        _assert_matches_reference_walk(m)

    def test_a_target_no_row_reads_is_left_to_the_leaf(self):
        m = build_stable_set(Graph.make(3, [(0, 1)]))
        assert _lifted(search._Plan(m, budget=10)) == {"X[0,1]"}
        assert all(sol["X[0,2]"] == sol["x[0]"] * sol["x[2]"] for sol in solve_by_enumeration(m).minimizers)

    @pytest.mark.parametrize("coef, nodes", [(10**10, 6), (1e10, 7)])
    def test_float_row_over_a_lifted_target_keeps_its_window(self, coef, nodes):
        # X = a b; 10^10 X <= 10^10 - 1 fails at a = b = 1 by 1: the exact row
        # prunes that node, while the float row gets no node test and its
        # leaf check rejects it
        m = MisdpModel(
            [("a", VarDomain.binary()), ("b", VarDomain.binary()), ("X", VarDomain.continuous(0, 1))],
            Objective("min", {"a": 1}),
            rows=[LinRow((("X", coef),), "<=", coef - 1)],
            metadata={"hints": [_gram([["a"], ["b"]], [["X", 0, 1]])]},
        )
        res = solve_by_enumeration(m)
        assert res.feasible_count == 3 and res.nodes == nodes
        _assert_matches_reference_walk(m)

    def test_lifted_range_is_what_eval_point_accepts(self):
        # X = a b in continuous(0, 0.9999999995): eval_point accepts X = 1
        # within lin_feas, so the slot's range is widened as a continuous
        # range is; the unwidened [0, 0.9999999995] pruned a = 1 at the root
        m = MisdpModel(
            [("a", VarDomain.binary()), ("b", VarDomain.binary()), ("X", VarDomain.continuous(0, 0.9999999995))],
            Objective("min", {"a": -1}),
            rows=[LinRow((("X", 1), ("a", -1)), ">=", 0)],
            metadata={"hints": [_gram([["a"], ["b"]], [["X", 0, 1]])]},
        )
        assert eval_point(m, {"a": 1, "b": 1, "X": 1}).feasible
        res = solve_by_enumeration(m)
        assert (res.optimum, res.feasible_count) == (-1, 3)
        _assert_matches_reference_walk(m)

    def test_seed_zero_node_totals(self, monkeypatch):
        counts = {"nodes": 0, "leaves": 0}
        real_solve, real_leaf = verify.solve_by_enumeration, search._Plan.leaf

        def solve(model, budget=10**7):
            res = real_solve(model, budget)
            counts["nodes"] += res.nodes
            return res

        def leaf(plan):
            counts["leaves"] += 1
            real_leaf(plan)

        monkeypatch.setattr(verify, "solve_by_enumeration", solve)
        monkeypatch.setattr(search._Plan, "leaf", leaf)
        totals = {}
        for name in SUITES:
            counts.update(nodes=0, leaves=0)
            reports = equivalence_suite(name).reports
            totals[name] = (counts["nodes"], counts["leaves"], sum(r.misdp_feasible for r in reports))
        # stable-set-n5, n4 and qcqp-random took 64,512, 1,984 and 361 nodes
        # before lifting; every leaf of stable-set-n5 is now a stable set, as
        # the edge rows prune the rest.  cvetkovic-hamiltonicity took 725 while
        # its constant 1 was the float 0.9999999999999998: the integral pencil
        # gets node checks and another variable order.  sils-small took 10,191
        # while its closure windows (y1, y2 >= 0) were decided at the leaves
        assert {name: t[0] for name, t in totals.items()} == {
            "stable-set-n5": 33761, "stable-set-n4": 1321, "mkcs-small": 37084, "qcqp-random": 322,
            "qbpp-random": 219, "qmkp-random": 3072, "qap-random": 900, "tsp-small": 2180,
            "gpp-cross": 738, "kep-gep-vs-assoc": 288, "sils-small": 8625, "completion-2x2": 146,
            "cvetkovic-hamiltonicity": 756,
        }
        assert totals["stable-set-n5"][1:] == (12625, 12625)


class TestLinearObjective:
    """The leaf check sums an objective of int/Fraction data in ints at int
    values, with the value and type of `Objective.value`."""

    @staticmethod
    def _check(objective, point):
        names = sorted(point)
        m = MisdpModel([(n, VarDomain.continuous()) for n in names], objective)
        got, residual = search._LeafCheck(m)(point)
        ref = objective.value(point)
        assert type(got) is type(ref) and got == ref and residual == 0.0

    @pytest.mark.parametrize("coeffs, constant, as_fraction", [
        ({"a": 2, "b": -3}, 5, False),
        ({"a": Fraction(4, 2), "b": -3}, 5, True),  # a Fraction with denominator 1 keeps its type
        ({"a": 2, "b": -3}, Fraction(1, 3), True),
        ({"a": Fraction(1, 6), "b": Fraction(-3, 4)}, Fraction(5, 8), True),
        ({}, 7, False),
        ({}, Fraction(7, 2), True),
    ])
    def test_int_values_match_objective_value(self, coeffs, constant, as_fraction):
        objective = Objective("min", coeffs, constant)
        assert search._linear_objective(objective)[-1] is as_fraction
        for a, b in itertools.product((-2, 0, 3), (0, 1, 5)):
            self._check(objective, {"a": a, "b": b})

    @pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0])
    def test_other_values_fall_back_on_objective_value(self, a):
        for constant in (5, Fraction(1, 3)):
            self._check(Objective("min", {"a": Fraction(4, 2), "b": -3}, constant), {"a": a, "b": 1})

    @pytest.mark.parametrize("coeffs, constant", [({"a": 0.5}, 1), ({"a": 1}, 0.5), ({"a": True}, 0),
                                                  ({"a": np.int64(2)}, 0)])
    def test_other_data_is_not_compiled(self, coeffs, constant):
        objective = Objective("min", coeffs, constant)
        assert search._linear_objective(objective) is None
        self._check(objective, {"a": 3})


class TestFamilies:
    """Models that agree on variables, pencils and hints share one family;
    any difference gives another, and the caches stay bounded."""

    def test_same_content_shares_one_family(self):
        g = Graph.cycle(4)
        a, b = build_stable_set(g), build_stable_set(Graph.make(4, [(0, 2)]))
        assert a.pencils[0] is b.pencils[0]
        assert search._family(a) is search._family(b) is search._family(build_stable_set(g))

    def test_hints_domains_and_variables_part_families(self):
        base = build_stable_set(Graph.cycle(4))
        family = search._family(base)
        no_hints = MisdpModel(base.variables, base.objective, base.rows, base.pencils, {})
        # continuous(0.0, 1.0) equals continuous(0, 1) and parts the family; its
        # finite float bounds keep the edge row over X[0,1] exact, decided at its
        # last slot as in `base`
        floats = [(n, VarDomain.continuous(0.0, 1.0) if n == "X[0,1]" else d) for n, d in base.variables]
        wider = [*base.variables, ("spare", VarDomain.binary())]
        variants = [no_hints, *(MisdpModel(v, base.objective, base.rows, base.pencils, base.metadata)
                                for v in (floats, wider, base.variables[::-1]))]
        families = [search._family(m) for m in variants]
        assert all(f is not family for f in families) and len(set(map(id, families))) == len(families)
        assert search._Plan(base, 10**6).check.rows == []
        assert _lifted(search._Plan(no_hints, 10**6)) == set()
        assert search._Plan(variants[1], 10**6).check.rows == []
        assert search._Plan(variants[2], 10**6).family.int_names[-1] == "spare"
        for m in variants[1:]:
            _assert_matches_reference_walk(m)
        assert solve_by_enumeration(variants[2]).feasible_count == 2 * solve_by_enumeration(base).feasible_count

    def test_unknown_rule_raises_on_a_cache_hit(self):
        m = build_stable_set(Graph.cycle(4))
        solve_by_enumeration(m)  # the family is kept
        m.metadata["hints"] = m.metadata["hints"] + [{"rule": "grahm"}]
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown hint rule"):
                solve_by_enumeration(m)

    def test_no_cache_hit_leaks_between_models(self):
        # the models of one family, solved in interleaved orders, each match
        # a brute-force walk that reads no leaf store
        models = [build_stable_set(verify.graph_from_mask(4, mask)) for mask in range(64)]
        models += [build_mkcs(verify.graph_from_mask(3, mask), k) for mask in range(8) for k in (1, 2, 3)]
        expected = [_reference_walk(m) for m in models]
        order = list(range(len(models)))
        for _ in range(2):
            np.random.default_rng(len(order)).shuffle(order)
            for t in order:
                got = solve_by_enumeration(models[t])
                assert (got.optimum, got.feasible_count, got.max_residual) == expected[t]
                assert type(got.optimum) is type(expected[t][0])
            order.reverse()
        assert len({id(search._family(m)) for m in models}) == 4
        assert all(search._family(m).leaves for m in models)

    def test_binding_changes_nothing(self, monkeypatch):
        # each model solved on its kept family (bound) equals the same model
        # on a fresh one-off family (unbound): cold stores, warm stores, and
        # warm again in a shuffled order
        models = [m for m in _one_model_per_builder() if m.metadata["problem"] != "tsp_qap"]  # 2 s each
        models += _suite_models(monkeypatch, count=3)
        # one family, objectives that differ only in their numbers' types
        base = build_stable_set(Graph.cycle(4))
        models += [MisdpModel(base.variables, Objective("min", {"x[0]": c, "x[1]": -1}, k), base.rows, base.pencils,
                              base.metadata) for c, k in ((-1, 0), (Fraction(-1), 0), (-1.0, 0), (-1, Fraction(0)))]

        def fresh(m):
            return search._Family(m.variables, m.pencils, m.metadata.get("hints", []))

        with monkeypatch.context() as patch:
            patch.setattr(search, "_family", fresh)
            expected = [repr(solve_by_enumeration(m, budget=10**9)) for m in models]
        search._FAMILIES.clear()
        order = list(range(len(models)))
        for shuffled in (False, False, True):
            if shuffled:
                np.random.default_rng(0).shuffle(order)
            for t in order:
                assert repr(solve_by_enumeration(models[t], budget=10**9)) == expected[t]
        assert search._FAMILIES

    def test_cold_and_warm_solves_agree(self, monkeypatch):
        # a warm family refuses a leaf on the pencil verdicts it stored before
        # the leaf is completed, where a cold one decides it at the leaf
        # check; the suites' oracles check the cold answers
        real = verify.solve_by_enumeration

        def cold_then_warm(model, budget=search.DEFAULT_BUDGET):
            search._FAMILIES.clear()
            cold, warm = real(model, budget), real(model, budget)
            assert type(cold.optimum) is type(warm.optimum) and repr(cold) == repr(warm)
            return cold

        monkeypatch.setattr(verify, "solve_by_enumeration", cold_then_warm)
        for name in ("sils-small", "mkcs-small", "qmkp-random", "stable-set-n4"):
            assert equivalence_suite(name).passed, name
        assert sum(cold_then_warm(m, 10**9).feasible_count for m in _one_model_per_builder()) > 0

    def test_siblings_in_a_warm_family_keep_the_answer(self, monkeypatch):
        # a model's rows and objective are not part of its family, so a
        # sibling that changes only them reads the verdicts the model stored:
        # its rows reversed, each scaled by a positive int (2 for a float
        # row) and its <= rows negated into >= rows, or its objective negated
        # with its sense flipped, changes no count and the optimum as it must;
        # each example draws a builder, then one of its suite models
        models = {}
        for m in _suite_models(monkeypatch):
            models.setdefault(m.metadata["problem"], []).append(m)

        def points(result):
            return {frozenset(point.items()) for point in result.minimizers}

        @settings(max_examples=120, derandomize=True, deadline=None)
        @given(st.sampled_from(sorted(models)), st.data())
        def relations_hold(problem, data):
            m = data.draw(st.sampled_from(models[problem]))
            scales = data.draw(st.lists(st.integers(1, 3), min_size=len(m.rows), max_size=len(m.rows)))
            rows = []
            for row, k in zip(reversed(m.rows), scales):
                if not model_module._exact(row.rhs, *(c for _, c in row.coeffs)):
                    k = 2
                k = -k if row.rel == "<=" else k
                rows.append(LinRow(tuple((n, k * c) for n, c in row.coeffs), ">=" if row.rel == "<=" else row.rel,
                                   k * row.rhs, row.label))
            o = m.objective
            negated = Objective("max" if o.sense == "min" else "min", {n: -c for n, c in o.coeffs.items()}, -o.constant)
            scaled = MisdpModel(m.variables, o, rows, m.pencils, m.metadata)
            flipped = MisdpModel(m.variables, negated, m.rows, m.pencils, m.metadata)
            base = solve_by_enumeration(m)
            for sibling in (scaled, flipped):
                assert search._family(sibling) is search._family(m)
            got = solve_by_enumeration(scaled)
            assert repr(got.optimum) == repr(base.optimum) and got.feasible_count == base.feasible_count
            assert points(got) == points(base)
            got = solve_by_enumeration(flipped)
            assert got.feasible_count == base.feasible_count and type(got.optimum) is type(base.optimum)
            assert got.optimum == (None if base.optimum is None else -base.optimum)  # 0.0 == -0.0

        relations_hold()

    def test_variable_order_keeps_the_answer(self, monkeypatch):
        # the same model with its variables listed in a drawn order gets a
        # family of its own, whose search order, corner order and names-known
        # pass start from that order; the optimum (value and type), the count
        # and the minimizer set stay; each example draws a builder, then one
        # of its suite models
        models = {}
        for m in _suite_models(monkeypatch):
            models.setdefault(m.metadata["problem"], []).append(m)

        def points(result):
            return {frozenset(point.items()) for point in result.minimizers}

        @settings(max_examples=120, derandomize=True, deadline=None)
        @given(st.sampled_from(sorted(models)), st.data())
        def relation_holds(problem, data):
            m = data.draw(st.sampled_from(models[problem]))
            reordered = MisdpModel(data.draw(st.permutations(m.variables)), m.objective, m.rows, m.pencils,
                                   m.metadata)
            base, got = solve_by_enumeration(m), solve_by_enumeration(reordered)
            assert repr(got.optimum) == repr(base.optimum) and got.feasible_count == base.feasible_count
            assert points(got) == points(base)

        relation_holds()

    def test_pencil_permutation_keeps_the_answer(self, monkeypatch):
        # each pencil with its rows and columns permuted together, P A P^T,
        # is PSD exactly when A is, so the optimum (value and type), the count
        # and the minimizer set stay; a model whose hints read a pencil by
        # position (nuclear) is left out; each example draws a builder, then
        # one of its suite models
        models = {}
        for m in _suite_models(monkeypatch):
            if not any(hints._HINT_RULES[h["rule"]].pencils(h) for h in m.metadata.get("hints", [])):
                models.setdefault(m.metadata["problem"], []).append(m)

        def points(result):
            return {frozenset(point.items()) for point in result.minimizers}

        @settings(max_examples=120, derandomize=True, deadline=None)
        @given(st.sampled_from(sorted(models)), st.data())
        def relation_holds(problem, data):
            m = data.draw(st.sampled_from(models[problem]))
            pencils = []
            for p in m.pencils:
                perm = data.draw(st.permutations(range(p.order)))

                def moved(triples, perm=perm):
                    return [(perm[r], perm[c], x) for r, c, x in triples]

                pencils.append(MatrixPencil(p.order, moved(p.entries[0]), [(name, moved(t)) for name, t in p.terms]))
            permuted = MisdpModel(m.variables, m.objective, m.rows, pencils, m.metadata)
            base, got = solve_by_enumeration(m), solve_by_enumeration(permuted)
            assert repr(got.optimum) == repr(base.optimum) and got.feasible_count == base.feasible_count
            assert points(got) == points(base)

        relation_holds()

    def test_congruence_keeps_the_answer(self, monkeypatch):
        # each integral pencil whose terms are all on integer variables, taken
        # to U A U^T with U = I + e_i e_j^T (i != j; row j added to row i, then
        # column j to column i), in its constant and in every term, is PSD
        # exactly when A is, so the optimum (value and type), the count and
        # the minimizer set stay; a pencil with a continuous term is left as
        # it is, so its corners and hints still match; each example draws a
        # builder, then one of its suite models that has a pencil to move
        def movable(p, doms):
            return p.order > 1 and p.integral and all(doms[n].is_integer for n, _ in p.terms)

        models = {}
        for m in _suite_models(monkeypatch):
            if any(movable(p, dict(m.variables)) for p in m.pencils):
                models.setdefault(m.metadata["problem"], []).append(m)
        assert sorted(models) == ["gpp", "kep_assoc", "mkcs", "qmkp", "sils", "tsp_cvetkovic"]

        def points(result):
            return {frozenset(point.items()) for point in result.minimizers}

        def congruent(triples, order, i, j):
            a = [[0] * order for _ in range(order)]
            for r, c, x in triples:
                a[r][c] = a[c][r] = x
            for c in range(order):
                a[i][c] += a[j][c]
            for r in range(order):
                a[r][i] += a[r][j]
            return [(r, c, a[r][c]) for r in range(order) for c in range(r, order) if a[r][c]]

        @settings(max_examples=120, derandomize=True, deadline=None)
        @given(st.sampled_from(sorted(models)), st.data())
        def relation_holds(problem, data):
            m = data.draw(st.sampled_from(models[problem]))
            doms, pencils = dict(m.variables), []
            for p in m.pencils:
                if not movable(p, doms):
                    pencils.append(p)
                    continue
                i, j = data.draw(st.lists(st.integers(0, p.order - 1), min_size=2, max_size=2, unique=True))
                pencils.append(MatrixPencil(p.order, congruent(p.entries[0], p.order, i, j),
                                            [(name, congruent(t, p.order, i, j)) for name, t in p.terms]))
            moved = MisdpModel(m.variables, m.objective, m.rows, pencils, m.metadata)
            base, got = solve_by_enumeration(m), solve_by_enumeration(moved)
            assert repr(got.optimum) == repr(base.optimum) and got.feasible_count == base.feasible_count
            assert points(got) == points(base)

        relation_holds()

    def test_defects_on_a_kept_family_raise_validates_list(self):
        base = build_stable_set(Graph.cycle(4))
        solve_by_enumeration(base)  # the family is kept
        variants = [
            (base.objective, [LinRow((("ghost", 1), ("x[0]", 1)), "<=", 1)]),
            (base.objective, [LinRow((("x[0]", float("nan")),), "<=", 1)]),
            (base.objective, [LinRow((("x[1]", math.inf),), ">=", 0), LinRow((("X[0,1]", 1),), "==", math.nan)]),
            (Objective("min", {"x[0]": 1, "ghost": 2}), []),
        ]
        for objective, rows in variants:
            m = MisdpModel(base.variables, objective, base.rows + rows, base.pencils, base.metadata)
            assert search._family(m) is search._family(base)
            for _ in range(2):  # compiled, then read from the family's caches
                with pytest.raises(ValueError) as exc:
                    solve_by_enumeration(m)
                assert str(exc.value) == f"model has defects: {model_module.validate(m)}"
        # an unsound family (a variable named twice) holds nothing but its verdict
        twice = MisdpModel([*base.variables, base.variables[0]], base.objective, base.rows, base.pencils,
                           base.metadata)
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate variable names"):
                solve_by_enumeration(twice)
        assert not search._family(twice).sound

    def test_lift_values_outside_their_bounds_are_rejected(self):
        # X = x0 x1 over ternary factors is -1 at two of the nine points, below
        # the bound 0; no row reads X, so only the leaf entry's bounds verdict
        # rejects them, on a cold and on a warm store
        pencil = formulations.shared_pencil(1, [(0, 0, 2)], [("x0", [(0, 0, 1)])])
        m = MisdpModel([("x0", VarDomain.ternary()), ("x1", VarDomain.ternary()), ("X", VarDomain.continuous(0, 1))],
                       Objective("min", {"x0": 1, "x1": 2}), pencils=[pencil],
                       metadata={"hints": [{"rule": "gram", "factors": [["x0"], ["x1"]], "targets": [["X", 0, 1]]}]})
        expected = _reference_walk(m)
        for _ in range(2):
            got = solve_by_enumeration(m)
            assert (got.optimum, got.feasible_count, got.max_residual) == expected == (-3, 7, 0.0)
        leaves = search._family(m).leaves
        assert {key for key, (_, ok, _) in leaves.items() if not ok} == {(-1, 1), (1, -1)}

    def test_caches_stay_bounded(self):
        # 300 families, half of them on one shared pencil and half on
        # pencils built by hand, and as many distinct rows in one family,
        # keep at most the caps
        pencil = formulations.shared_pencil(2, [(1, 1, 1)], [("a", [(0, 0, 1)])])
        assert search._FAMILY_CAP >= 39  # what a `verify --suite all` run makes
        for t in range(300):
            m = MisdpModel([("a", VarDomain.binary()), (f"b{t}", VarDomain.binary())], Objective("min", {"a": 1}),
                           pencils=[pencil if t % 2 else MatrixPencil(2, [(1, 1, 1)], [("a", [(0, 0, 1)])])])
            search._Plan(m, budget=10)
            assert len(search._FAMILIES) == min(t + 1, search._FAMILY_CAP)
        variables = [("a", VarDomain.binary()), ("b", VarDomain.integer_range(0, 2 * search._ROW_CAP))]
        for t in range(2 * search._ROW_CAP):
            m = MisdpModel(variables, Objective("min", {"a": 1}),
                           rows=[LinRow((("a", 1), ("b", 1)), "<=", t)], pencils=[pencil])
            plan = search._Plan(m, budget=10**6)
        family = search._family(m)
        assert len(family.rows) == search._ROW_CAP and len(family.reduced) == 1
        assert len(search._FAMILIES) <= search._FAMILY_CAP
        # a + b <= t with t = 2 * _ROW_CAP - 1 and a pencil PSD at a >= 0
        assert plan.check.rows == [] and solve_by_enumeration(m).feasible_count == 2 * t + 1
        # twice as many leaves as the leaf store keeps: the pencil b - 1000
        # changes its verdict inside the cap, and the lift X = a b its bounds
        # verdict (X <= 3000) past it; the store keeps the first leaves
        # (b < _LEAF_CAP / 2, in search order b then a), and the rest are
        # lifted, bounded and decided at every visit
        cap = search._LEAF_CAP
        line = formulations.shared_pencil(1, [(0, 0, -1000)], [("b", [(0, 0, 1)])])
        m = MisdpModel([("a", VarDomain.binary()), ("b", VarDomain.integer_range(0, 2 * cap)),
                        ("X", VarDomain.continuous(0, 3000))],
                       Objective("min", {"b": 1, "X": -2}), pencils=[line],
                       metadata={"hints": [{"rule": "gram", "factors": [["a"], ["b"]], "targets": [["X", 0, 1]]}]})
        for _ in range(2):
            res = solve_by_enumeration(m)
            assert res.feasible_count == (2 * cap + 1 - 1000) + 2001
            assert res.optimum == -3000 and res.minimizers == [{"a": 1, "b": 3000, "X": 3000}]
        shared = search._family(m)
        leaves = shared.leaves
        assert len(leaves) == cap and set(leaves) == {(b, a) for b in range(cap // 2) for a in (0, 1)}
        assert all(entry == [(a * b,), True, b >= 1000] for (b, a), entry in leaves.items())
        # the same model on a pencil built by hand gets a family of its own,
        # whose store keeps the same entries
        m.pencils = [MatrixPencil(1, [(0, 0, -1000)], [("b", [(0, 0, 1)])])]
        assert repr(solve_by_enumeration(m)) == repr(res)
        assert search._family(m) is not shared and search._family(m).leaves == leaves

    def test_a_dropped_pencil_never_meets_its_old_family(self):
        # models on pencils built by hand, each dropped once solved: a kept
        # family holds its pencil, so no later pencil takes its id while the
        # family is kept, and an evicted family is never met again; the
        # constant c in {-1, 0, 1} gives each pencil its own kept verdicts
        import gc

        variables = [("a", VarDomain.binary()), ("b", VarDomain.binary())]
        for t in range(3 * search._FAMILY_CAP):
            c = t % 3 - 1
            m = MisdpModel(variables, Objective("min", {"a": 1, "b": 1}),
                           pencils=[MatrixPencil(1, [(0, 0, c)], [("a", [(0, 0, 1)])])])
            assert solve_by_enumeration(m).feasible_count == (2 if c < 0 else 4)
            assert search._family(m).pencils[0] is m.pencils[0]
            del m
            gc.collect()


@st.composite
def _bounded_closure_models(draw):
    """Integer variables and bounded continuous unknowns u0, u1, ..., set by
    equality rows over integer variables in which row j also reads some
    later unknowns, so only the closure's forms, not the rows, bound the
    integer part; sometimes one more row over the unknowns."""
    doms = {
        f"v{i}": draw(st.sampled_from([
            VarDomain.binary(), VarDomain.ternary(), VarDomain.integer_range(-2, 2), VarDomain.finite_set([-1, 2]),
        ]))
        for i in range(draw(st.integers(1, 3)))
    }
    ints = sorted(doms)
    # float bounds, some next to a closure value (1/3, 0.1) that eval_point accepts within lin_feas
    bound = st.one_of(st.none(), st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3),
                      st.sampled_from([-1.5, 0.5, 1.0, 1 / 3, -2 / 3, 0.1, -0.1]))
    coef = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)).filter(bool)
    unknowns = [f"u{j}" for j in range(draw(st.integers(1, 3)))]
    rows = []
    for j, name in enumerate(unknowns):
        lo, hi = draw(bound), draw(bound)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        doms[name] = VarDomain.continuous(lo, hi)
        used = [name, *draw(st.lists(st.sampled_from(unknowns[j + 1:] or [name]), unique=True))]
        used += draw(st.lists(st.sampled_from(ints), max_size=3, unique=True))
        rows.append(LinRow(tuple((n, draw(coef)) for n in dict.fromkeys(used)), "==",
                           draw(st.one_of(st.just(0), coef))))
    if draw(st.booleans()):
        rows.append(LinRow(tuple((n, draw(coef)) for n in unknowns), draw(st.sampled_from(["<=", ">=", "=="])),
                           draw(st.integers(-2, 2))))
    return MisdpModel(
        list(doms.items()),
        Objective(draw(st.sampled_from(["min", "max"])), {n: draw(st.integers(-2, 2)) for n in doms}),
        rows=rows,
    )


class TestWindowsAtNodes:
    """A closure window over integer variables alone is a forward-checker
    test, so no search leaf fails it; the brute-force walk still checks
    every window at the leaf."""

    @settings(max_examples=200, deadline=None)
    @given(_bounded_closure_models())
    def test_random_models_match_reference_walk(self, m):
        _assert_matches_reference_walk(m)

    def test_window_prunes_at_its_last_slot(self):
        # y1 - y2 = a and y1 + y2 = b give y1 = (a + b) / 2 and y2 = (b - a) / 2;
        # neither row alone bounds a or b, but y1, y2 >= 0 keep |a| <= b, so
        # (a, b) = (+-1, 0) are pruned at b and no leaf is rejected
        m = MisdpModel([("a", VarDomain.ternary()), ("b", VarDomain.binary()),
                        ("y1", VarDomain.continuous(0)), ("y2", VarDomain.continuous(0))],
                       Objective("max", {"y1": 1}),
                       rows=[LinRow((("y1", 1), ("y2", -1), ("a", -1)), "==", 0),
                             LinRow((("y1", 1), ("y2", 1), ("b", -1)), "==", 0)])
        plan = search._Plan(m, budget=10)
        assert sorted(plan.closure.tests) == [([("a", -1), ("b", 1)], 0, math.inf),
                                              ([("a", 1), ("b", 1)], 0, math.inf)]
        assert plan.check.rows == [] and plan.check.bounds == []
        leaves = []
        walk = copy.copy(plan)
        walk.leaf = lambda: leaves.append(dict(walk.assignment))
        walk.dfs(0)
        assert leaves == [{"a": -1, "b": 1}, {"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 1, "b": 1}]
        res = solve_by_enumeration(m)
        assert res.feasible_count == 4 and res.nodes == 8 and res.optimum == 1
        # outside the search every window is still checked at the leaf
        assert plan.resolve({"a": 1, "b": 0}) is None
        assert plan.resolve({"a": 1, "b": 0}, searched=True) == {"a": 1, "b": 0, "y1": Fraction(1, 2),
                                                                  "y2": Fraction(-1, 2)}
        _assert_matches_reference_walk(m)


class TestOracleProperties:
    """Builders against their brute-force oracles on random instances; each
    claims a bijection, so the feasible counts must agree as well."""

    @settings(max_examples=40, deadline=None)
    @given(_graphs(6))
    def test_stable_set(self, g):
        assert run_case("g", build_stable_set(g), "stable_set", (g,), True).ok()

    @settings(max_examples=40, deadline=None)
    @given(_graphs(5), st.data())
    def test_mkcs(self, g, data):
        k = data.draw(st.integers(1, g.n))
        assert run_case("g", build_mkcs(g, k), "mkcs", (g, k), True).ok()

    @settings(max_examples=60, deadline=None)
    @given(_qcqp_instances(4), st.booleans())
    def test_bsdp_qcqp(self, inst, compact):
        from misdpkit.formulations import build_bsdp_qcqp

        assert run_case("q", build_bsdp_qcqp(inst, compact=compact), "qcqp", (inst,), True).ok()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=10, max_size=10))
    def test_tsp_cvetkovic(self, upper):
        # ties and zeros; on 5 vertices every 2-regular graph is a tour
        d = np.zeros((5, 5), dtype=np.int64)
        d[np.triu_indices(5, 1)] = upper
        d += d.T
        assert run_case("t", build_tsp_cvetkovic(d), "tsp", (d,), True).ok()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=10, max_size=10))
    def test_tsp_lee(self, upper):
        # ties and zeros; each of the 12 tours on 5 vertices is one binary X1
        from misdpkit.problems import build_tsp_lee

        d = np.zeros((5, 5), dtype=np.int64)
        d[np.triu_indices(5, 1)] = upper
        d += d.T
        assert run_case("t", build_tsp_lee(d), "tsp", (d,), True).ok()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3)]), st.data())
    def test_matrix_completion(self, shape, data):
        from misdpkit.problems import build_matrix_completion

        cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
        observed = {c: data.draw(st.integers(-2, 3)) for c in data.draw(st.lists(st.sampled_from(cells), unique=True))}
        # a value set with gaps: steps of 2 or 3 from the first value
        values = list(itertools.accumulate(data.draw(st.lists(st.integers(2, 3), max_size=2)),
                                           initial=data.draw(st.integers(-2, 1))))
        m = build_matrix_completion(shape, observed, values)
        assert run_case("c", m, "completion", (shape, observed, tuple(values)), True).ok()
