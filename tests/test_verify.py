import numpy as np
import pytest

from misdpkit.errors import BudgetExceeded, UnsupportedContinuousPattern
from misdpkit.model import LinRow, MatrixPencil, MisdpModel, Objective, VarDomain
from misdpkit.problems import Graph, build_stable_set, build_tsp_cvetkovic
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

    def test_unsupported_continuous(self):
        # a continuous variable with no elimination pattern at all
        m = MisdpModel(
            [("x", VarDomain.binary()), ("t", VarDomain.continuous())],
            Objective("min", {"x": 1}),
            pencils=[
                MatrixPencil(
                    np.zeros((2, 2)),
                    [("t", np.eye(2)), ("x", np.ones((2, 2)))],
                )
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
        from misdpkit.verify import _HINT_RULES

        emitted = {
            hint["rule"]
            for m in _one_model_per_builder()
            for hint in m.metadata.get("hints", [])
        }
        assert emitted == set(_HINT_RULES)

    @pytest.mark.parametrize("hint", [{"rule": "grahm"}, {"targets": []}])
    def test_unknown_rule_raises_before_search(self, hint):
        m = build_stable_set(Graph.cycle(4))
        m.metadata["hints"] = m.metadata.get("hints", []) + [hint]
        with pytest.raises(ValueError, match="unknown hint rule"):
            solve_by_enumeration(m)


class TestFloatSuiteReports:
    """Report bytes of the suites that exercise the nuclear, cycle_distance
    and valid_cuts hints and the corner scalars."""

    @pytest.mark.parametrize("name,digest", [
        ("completion-2x2", "3aa2e5ddf72cd70228324fb1708b3ec6838ce4147d95e35bea18403a8ea56e20"),
        ("cvetkovic-hamiltonicity", "ea08021cf84f0d285147e115da5210dca4a2bf9e39dff1c8e2a8b815964b5fad"),
        ("qbpp-random", "df42458c381a4b925fcc4e133498953bfa94bcc8f836898477f0455c146d9b5a"),
        ("tsp-small", "337d6213a456a7d90c15361b1773b3ac51c7f282f79e3da57b58a37726e995c3"),
    ])
    def test_report_bytes(self, name, digest):
        import hashlib

        lines = [report_json(r) for r in equivalence_suite(name).reports]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
