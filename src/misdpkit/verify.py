"""Desk-scale exact verification of compiled models.

`run_case` solves a compiled model with `search.solve_by_enumeration` and
compares its optimum, and its feasible count where a bijection is claimed,
with the brute-force answer of `oracles.oracle`.  Each of the `SUITES`
checks its lazily built cases one per step under the caller's budget;
`equivalence_suite` runs one by name.
"""

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .formulations import QcqpInstance, build_bsdp_qcqp
from .model import MisdpModel, _exact
from .oracles import oracle
from .problems import (
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
)
from .search import DEFAULT_BUDGET, solve_by_enumeration

REL_TOL = 1e-7


def natural_optimum(model: MisdpModel, raw):
    """Undo the max->min normalization recorded by the builders."""
    if raw is None:
        return None
    if model.metadata.get("sense_original") == "max":
        return -raw
    return raw


@dataclass
class VerificationReport:
    instance: str
    oracle_optimum: object
    misdp_optimum: object
    misdp_feasible: int
    oracle_feasible: int
    bijection: object      # True/False when claimed, None otherwise
    max_residual: float
    match: bool
    seed: object = None

    def ok(self):
        return self.match and self.bijection is not False


def optima_match(oracle_opt, misdp_opt):
    if oracle_opt is None or misdp_opt is None:
        return oracle_opt is None and misdp_opt is None
    if _exact(oracle_opt, misdp_opt):
        return oracle_opt == misdp_opt
    return abs(float(oracle_opt) - float(misdp_opt)) <= REL_TOL * max(1.0, abs(float(oracle_opt)))


def report_json(report: VerificationReport) -> str:
    def enc(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, tuple):  # the two optima of a mismatched kep pair
            return [enc(x) for x in v]
        return v

    obj = {
        "instance": report.instance,
        "oracle": enc(report.oracle_optimum),
        "misdp": enc(report.misdp_optimum),
        "misdp_feasible": report.misdp_feasible,
        "oracle_feasible": report.oracle_feasible,
        "bijection": report.bijection,
        "max_residual": report.max_residual,
        "match": report.match,
        "seed": report.seed,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_table(reports) -> str:
    head = f"{'instance':<32} {'oracle':>12} {'misdp':>12} {'#misdp':>7} {'#oracle':>8} {'bij':>5} {'ok':>4}"
    lines = [head, "-" * len(head)]
    for r in reports:
        bij = "-" if r.bijection is None else ("yes" if r.bijection else "NO")
        misdp = r.misdp_optimum
        if isinstance(misdp, tuple):  # str() of a tuple shows its members' repr
            misdp = f"({', '.join(map(str, misdp))})"
        lines.append(
            f"{r.instance:<32} {str(r.oracle_optimum):>12} {str(misdp):>12} "
            f"{r.misdp_feasible:>7} {r.oracle_feasible:>8} {bij:>5} {'yes' if r.ok() else 'NO':>4}"
        )
    return "\n".join(lines)


def run_case(instance_id, model, okind, oargs, bijection_claimed=False, seed=None, budget=DEFAULT_BUDGET):
    enum = solve_by_enumeration(model, budget=budget)
    orc = oracle(okind, *oargs)
    misdp_opt = natural_optimum(model, enum.optimum)
    bij = None
    if bijection_claimed:
        bij = enum.feasible_count == orc.feasible_count
    return VerificationReport(
        instance_id,
        orc.optimum,
        misdp_opt,
        enum.feasible_count,
        orc.feasible_count,
        bij,
        enum.max_residual,
        optima_match(orc.optimum, misdp_opt),
        seed,
    )


def _check_kep(instance_id, inst, budget):
    """The GEP and the association-scheme KEP model of one GPP instance,
    checked against the oracle and against each other."""
    gep = solve_by_enumeration(build_gpp(inst, "equipartition"), budget=budget)
    ass = solve_by_enumeration(build_kep_assoc(inst), budget=budget)
    orc = oracle("gpp", inst)
    gep_opt, ass_opt = gep.optimum, ass.optimum
    ok = optima_match(orc.optimum, gep_opt) and optima_match(orc.optimum, ass_opt)
    return VerificationReport(
        instance_id,
        orc.optimum,
        gep_opt if gep_opt == ass_opt else (gep_opt, ass_opt),
        ass.feasible_count,
        gep.feasible_count,
        gep.feasible_count == ass.feasible_count,
        max(gep.max_residual, ass.max_residual),
        ok and gep_opt == ass_opt,
    )


def _suite(cases, check=run_case):
    """The suite whose cases `cases(seed)` yields, one checked per `next()`.

    A case is the positional arguments of `check`; for `run_case` that is the
    instance id, model, oracle kind, oracle args, bijection claimed and, in a
    seeded family, the report seed.  `cases` builds each model only when it
    yields it, so every step builds, enumerates and checks one case.
    """
    def suite(budget=None, seed=0):
        budget = DEFAULT_BUDGET if budget is None else budget
        for case in cases(seed):
            yield check(*case, budget=budget)
    return suite


def _seeded(base, count, draw):
    """The cases of a random family: case t draws its instance(s) with
    `draw(t, rng)` from its own generator, seeded base + seed + t, and the
    reports record that seed."""
    def cases(seed):
        for t in range(count):
            seed_v = base + seed + t
            for case in draw(t, np.random.default_rng(seed_v)):
                yield *case, seed_v
    return cases


def graph_from_mask(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.make(n, [pairs[t] for t in range(len(pairs)) if mask >> t & 1])


def _stable_set_cases(n, width, seed):
    for mask in range(1 << (n * (n - 1) // 2)):
        g = graph_from_mask(n, mask)
        yield f"stable-set/g{mask:0{width}d}", build_stable_set(g), "stable_set", (g,), True


def _mkcs_cases(seed):
    for n in (2, 3, 4):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            for k in range(1, min(3, n) + 1):
                yield f"mkcs/n{n}-g{mask}-k{k}", build_mkcs(g, k), "mkcs", (g, k), True


def _symmetric(a, diagonal=True):
    """The symmetric matrix on the lower triangle of `a`, with its diagonal or a zero one."""
    return np.tril(a, 0 if diagonal else -1) + np.tril(a, -1).T


def _draw_qcqp(t, rng):
    n = 3
    q0 = _symmetric(rng.integers(-3, 4, (n, n)))
    c0 = rng.integers(-3, 4, n)
    q1 = _symmetric(rng.integers(0, 3, (n, n)))
    d1 = int(rng.integers(2, 9))
    a = rng.integers(0, 2, n)
    if not a.any():
        a[0] = 1
    xstar = rng.integers(0, 2, n)
    b = int(a @ xstar)
    inst = QcqpInstance(n, q0, c0, quads=[(q1, None, d1)], lin_eq=[(a, b)])
    for tag in ("plain", "compact"):
        yield f"qcqp/s{t}-{tag}", build_bsdp_qcqp(inst, compact=tag == "compact"), "qcqp", (inst,), True


def _draw_qbpp(t, rng):
    n = 3
    w = [int(v) for v in rng.integers(1, 4, n)]
    cap = max(w) + int(rng.integers(0, 4))
    cost = int(rng.integers(1, 4))
    d = _symmetric(rng.integers(0, 4, (n, n)), diagonal=False)
    yield f"qbpp/s{t}", build_qbpp(w, cap, cost, d), "qbpp", (w, cap, cost, d), True


def _draw_qmkp(t, rng):
    n, k = 3, 2
    w = [int(v) for v in rng.integers(1, 4, n)]
    c = [int(v) for v in rng.integers(0, 5, k)]
    p = [int(v) for v in rng.integers(0, 4, n)]
    r = _symmetric(rng.integers(0, 3, (n, n)))
    yield f"qmkp/s{t}", build_qmkp(w, c, p, r), "qmkp", (w, c, p, r), True


def _draw_qap(t, rng):
    n = 3
    a = _symmetric(rng.integers(0, 4, (n, n)))
    b = _symmetric(rng.integers(0, 4, (n, n)))
    c = rng.integers(0, 4, (n, n))
    inst = QapInstance.make(a, b, c)
    yield f"qap/s{t}", build_qap(inst), "qap", (inst,), False


def _draw_tsp(t, rng):
    n = 5
    d = _symmetric(rng.integers(1, 10, (n, n)), diagonal=False)
    yield f"tsp/s{t}-cvetkovic", build_tsp_cvetkovic(d), "tsp", (d,), False
    yield f"tsp/s{t}-lee", build_tsp_lee(d), "tsp", (d,), False


def _gpp_cases(seed):
    for gname, g in (("K4", Graph.complete(4)), ("C4", Graph.cycle(4))):
        inst = GppInstance.make(g, 2, (2, 2))
        for variant in ("general", "equipartition", "bisection", "orthogonal"):
            yield f"gpp/{gname}-{variant}", build_gpp(inst, variant), "gpp", (inst,), False


def _kep_cases(seed):
    pairs = list(itertools.combinations(range(4), 2))
    w = np.zeros((4, 4), dtype=np.int64)
    for (u, v), val in zip(pairs, (1, 2, 3, 4, 5, 6)):
        w[u, v] = w[v, u] = val
    cases = [
        ("C4", Graph.cycle(4)),
        ("K4", Graph.complete(4)),
        ("K4w", Graph.make(4, pairs, w)),
    ]
    for gname, g in cases:
        yield f"kep/{gname}", GppInstance.make(g, 2, (2, 2))


def _sils_cases(seed):
    for k in (2, 3):
        yield from _seeded(6000 + 10 * k, 3, functools.partial(_draw_sils, k))(seed)


def _draw_sils(k, t, rng):
    n = 3
    m = rng.integers(-2, 3, (n, k))
    b = rng.integers(-2, 3, n)
    for cap in (0, 1, k):
        yield f"sils/k{k}-s{t}-K{cap}", build_sils(m, b, cap), "sils", (m, b, cap), False


def _completion_cases(seed):
    base = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for mask in range(16):
        observed = {c: base[c] for t, c in enumerate(cells) if mask >> t & 1}
        yield (f"completion/omega{mask:02d}", build_matrix_completion((2, 2), observed, [0, 1]),
               "completion", ((2, 2), observed, (0, 1)), True)


def _cvetkovic_cases(seed):
    d = np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)
    yield "cvetkovic/n6-hamiltonicity", build_tsp_cvetkovic(d), "tsp", (d,), True


SUITES = {
    "stable-set-n5": _suite(functools.partial(_stable_set_cases, 5, 4)),
    "stable-set-n4": _suite(functools.partial(_stable_set_cases, 4, 2)),
    "mkcs-small": _suite(_mkcs_cases),
    "qcqp-random": _suite(_seeded(1000, 20, _draw_qcqp)),
    "qbpp-random": _suite(_seeded(2000, 20, _draw_qbpp)),
    "qmkp-random": _suite(_seeded(3000, 20, _draw_qmkp)),
    "qap-random": _suite(_seeded(4000, 20, _draw_qap)),
    "tsp-small": _suite(_seeded(5000, 10, _draw_tsp)),
    "gpp-cross": _suite(_gpp_cases),
    "kep-gep-vs-assoc": _suite(_kep_cases, _check_kep),
    "sils-small": _suite(_sils_cases),
    "completion-2x2": _suite(_completion_cases),
    "cvetkovic-hamiltonicity": _suite(_cvetkovic_cases),
}


@dataclass
class SuiteResult:
    name: str
    reports: list
    passed: bool


def equivalence_suite(name: str, budget=None, seed=0) -> SuiteResult:
    """Run one named verification suite; passes iff every report is clean.

    `budget` sets the per-case enumeration cap (`DEFAULT_BUDGET` when None);
    `seed` offsets the fixed generator seeds of the random families (defaults
    reproduce the canonical byte-identical reports).
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    reports = list(SUITES[name](budget=budget, seed=seed))
    return SuiteResult(name, reports, all(r.ok() for r in reports))
