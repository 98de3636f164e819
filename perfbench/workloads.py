"""The four workloads: what one pass runs and how each result is checked.

A pass is a list of groups.  A group is ``(name, steps, check, stop_on_error)``:
the harness times each ``step()`` call as one operation and then, outside the
timed region, calls ``check(result)``, which returns ``(ok, report_line)``.

The three ``verify-*`` workloads split ``misdpkit verify --suite all`` by the
kind of work that dominates each suite; their steps are the successive yields
of ``verify.SUITES[name](budget=None, seed=seed)``.  ``theory-io`` runs the
matrix theory and model I/O that no suite reaches.
"""

import itertools
from fractions import Fraction

import numpy as np

from misdpkit import cbf, dpsd, formulations, linalg, model, problems, schemes, verify
from misdpkit.errors import NotPsd

VERIFY_WORKLOADS = {
    # integer pencils; is_psd at orders 3-6 and 9 does most of the work
    "verify-int": (
        "gpp-cross", "kep-gep-vs-assoc", "mkcs-small", "qap-random",
        "qcqp-random", "qmkp-random", "stable-set-n4", "stable-set-n5",
    ),
    # ~29k leaves of Fraction row checks plus the enumerator's own work
    "verify-sils": ("sils-small",),
    # float pencils, corner-scalar bisection, cycle_distance and nuclear hints
    "verify-float": (
        "completion-2x2", "cvetkovic-hamiltonicity", "qbpp-random", "tsp-small",
    ),
}
WORKLOADS = (*VERIFY_WORKLOADS, "theory-io")


# ---------------------------------------------------------------------------
# verify workloads
# ---------------------------------------------------------------------------

def check_report(report):
    """A report is correct when it is ok() and its optima really agree."""
    ok = report.ok() and verify.optima_match(report.oracle_optimum, report.misdp_optimum)
    return ok, verify.report_json(report)


def suite_group(name, seed, suites=None):
    gen = (suites or verify.SUITES)[name](budget=None, seed=seed)
    return (f"verify.suite.{name}", itertools.repeat(gen.__next__), check_report, True)


# ---------------------------------------------------------------------------
# theory-io: matrix theory checks
# ---------------------------------------------------------------------------

def _all_symmetric(n, values):
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for combo in itertools.product(values, repeat=len(upper)):
        a = np.zeros((n, n), dtype=np.int64)
        for (i, j), v in zip(upper, combo):
            a[i, j] = a[j, i] = v
        yield linalg.SymMat(a, check_symmetry=False)


def check_binary(x):
    """Clique packing, eigenvalues and the triangle system agree on PSD-ness."""
    try:
        packing = dpsd.decompose01(x)
    except NotPsd:
        packing = None
    psd = linalg.is_psd(x)
    violations = dpsd.triangle_check01(x)
    if not violations and packing is None:
        return False
    by_triangle = not violations and linalg.num_rank(x) == len(packing.parts)
    return (packing is not None) == psd == by_triangle and (
        packing is None or packing.to_matrix() == x
    )


def check_pm1(x):
    """A {+-1} matrix is PSD iff it is s s^T, and then it has rank 1."""
    try:
        s = dpsd.decompose_pm1(x)
        outer = bool(np.array_equal(np.outer(s, s), x.ints))
    except NotPsd:
        outer = False
    psd = linalg.is_psd(x)
    return outer == psd and (not psd or linalg.num_rank(x) == 1)


def check_ternary(x):
    """A {0,+-1} matrix is PSD iff its signed blocks rebuild it; rank = #blocks."""
    try:
        blocks = dpsd.decompose_ternary(x)
        rebuilt = blocks.reconstruct() == x
    except NotPsd:
        blocks, rebuilt = None, False
    psd = linalg.is_psd(x)
    return rebuilt == psd and (not psd or linalg.num_rank(x) == len(blocks.blocks))


def check_count(n, r):
    return len(dpsd.enumerate_Dnr(n, r)) == dpsd.count_Dnr(n, r)


def _frac_matrix(mat):
    return [[Fraction(int(v)) for v in row] for row in mat.ints]


def _pairing(g, x):
    # the LP is posed on the upper triangle, so the certificate pairs there
    n = len(x)
    return sum(g[i][j] * x[i][j] for i in range(n) for j in range(i, n))


def check_membership_P(x, r, vertices, expect):
    """Exact membership in conv(D^n_r): weights rebuild x, or G separates x."""
    res = dpsd.membership_Pnr(x, r)
    if res.member != expect:
        return False
    n = len(x)
    if res.member:
        total = [[Fraction(0)] * n for _ in range(n)]
        for packing, w in res.weights.items():
            if w < 0:
                return False
            v = packing.to_matrix().ints
            for i in range(n):
                for j in range(n):
                    total[i][j] += w * int(v[i, j])
        return total == x and sum(res.weights.values()) == 1
    g, gamma = res.separating
    return _pairing(g, x) > gamma and all(_pairing(g, v) <= gamma for v in vertices)


def check_membership_R(x, r, expect):
    """Exact membership in the subset-weight relaxation R^n_r."""
    res = dpsd.membership_Rnr(x, r)
    if res.member != expect:
        return False
    if res.member:
        return all(w >= 0 for w in res.weights.values())
    g, gamma = res.separating
    return _pairing(g, x) > gamma


def check_lee(n):
    scheme = schemes.lee_scheme(n)
    return scheme.r == n // 2 and int(scheme.p_numbers[0, 1, 1]) == 2


def check_kep_scheme(m, k):
    scheme = schemes.verify_axioms(schemes.kep_scheme_matrices(m, k))
    return float(np.max(np.abs(scheme.eigen_q - schemes.kep_scheme_eigen(m, k)))) <= 1e-8


def membership_points(rng):
    """Seeded rational points of P^n_r and points outside it.

    A member is a convex combination of three vertices of D^n_r with random
    positive weights.  Raising an off-diagonal entry above its diagonal entry
    gives a non-member of both P^n_r and R^n_r, since every vertex has
    X_ij <= X_ii.
    """
    points = []
    for n, r in ((3, 1), (3, 2), (3, 3)):
        vertices = [_frac_matrix(v) for v in dpsd.enumerate_Dnr(n, r)]
        for _ in range(2):
            picks = rng.choice(len(vertices), size=3, replace=False)
            raw = [int(w) for w in rng.integers(1, 10, 3)]
            weights = [Fraction(w, sum(raw)) for w in raw]
            x = [
                [sum(w * vertices[p][i][j] for w, p in zip(weights, picks)) for j in range(n)]
                for i in range(n)
            ]
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            outside = [row[:] for row in x]
            outside[i][j] = outside[j][i] = x[i][i] + Fraction(1, int(rng.integers(2, 7)))
            points.append((n, r, vertices, x, outside))
    return points


# ---------------------------------------------------------------------------
# theory-io: builders and serialization round trips
# ---------------------------------------------------------------------------

def _rand_sym(rng, n, lo, hi):
    a = rng.integers(lo, hi + 1, (n, n))
    return np.tril(a) + np.tril(a, -1).T


def _rand_graph(rng, n, p=0.5):
    return problems.Graph.make(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def _rand_dist(rng, n):
    d = rng.integers(1, 10, (n, n))
    return np.tril(d, -1) + np.tril(d, -1).T


def roundtrip_builds(rng):
    """One seeded instance for every builder: (builder name, args)."""
    n = 6
    g = _rand_graph(rng, 8)
    gpp = problems.GppInstance.make(_rand_graph(rng, n, 0.6), 2, (3, 3))
    w = [int(v) for v in rng.integers(1, 5, 5)]
    dissimilarity = _rand_sym(rng, 5, 0, 3) * (1 - np.eye(5, dtype=np.int64))
    qap = problems.QapInstance.make(_rand_sym(rng, 5, 0, 4), _rand_sym(rng, 5, 0, 4),
                                    rng.integers(0, 4, (5, 5)))
    observed = {(int(i), int(j)): int(rng.integers(-1, 2))
                for i, j in zip(rng.integers(0, 3, 4), rng.integers(0, 3, 4))}
    qcqp = formulations.QcqpInstance(
        n, _rand_sym(rng, n, -3, 3), rng.integers(-3, 4, n),
        quads=[(_rand_sym(rng, n, 0, 2), None, int(rng.integers(4, 12)))],
        lin_eq=[(rng.integers(0, 2, n), 2)],
    )
    qmp1 = formulations.Qmp1Instance(
        5, 3, _rand_sym(rng, 5, -2, 2),
        quads=[(_rand_sym(rng, 5, 0, 2), -int(rng.integers(2, 9)))],
        caps=[(rng.integers(0, 3, 5), int(rng.integers(1, 5)))],
    )
    qmp2 = formulations.Qmp2Instance(
        5, 3, _rand_sym(rng, 5, -2, 2), rng.integers(-2, 3, (5, 3)), int(rng.integers(-2, 3)),
        constraints=[(_rand_sym(rng, 5, 0, 1), rng.integers(0, 2, (5, 3)), -5)],
        partition=True,
    )
    return [
        ("build_stable_set", (g,)),
        ("build_mkcs", (g, 3)),
        ("build_qbpp", (w, max(w) + 2, 2, dissimilarity)),
        ("build_qmkp", (w, [int(v) for v in rng.integers(2, 8, 3)],
                        [int(v) for v in rng.integers(0, 5, 5)], _rand_sym(rng, 5, 0, 3))),
        ("build_qap", (qap,)),
        ("build_tsp_qap", (_rand_dist(rng, n),)),
        ("build_tsp_cvetkovic", (_rand_dist(rng, n),)),
        ("build_tsp_lee", (_rand_dist(rng, 7),)),
        *(("build_gpp", (gpp, v)) for v in problems.GPP_VARIANTS),
        ("build_kep_assoc", (gpp,)),
        ("build_matrix_completion", ((3, 3), observed, [-1, 0, 1])),
        ("build_sils", (rng.integers(-3, 4, (5, 4)), rng.integers(-3, 4, 5), 2)),
        ("build_bsdp_qcqp", (qcqp,)),
        ("build_bsdp_qcqp", (qcqp, True)),
        ("build_bsdp_qmp1", (qmp1,)),
        ("build_bsdp_qmp2", (qmp2,)),
    ]


def check_roundtrip(builder, args):
    """Build, then export -> import -> export in CBF and JSON, byte for byte.

    The builder and the I/O functions are looked up on their modules at call
    time, so a traced run sees them.
    """
    module = problems if hasattr(problems, builder) else formulations
    m = getattr(module, builder)(*args)
    text = cbf.export_cbf(m)
    if cbf.export_cbf(cbf.import_cbf(text)) != text:
        return False
    jt = model.export_json(m)
    back = model.import_json(jt)
    return back == m and model.export_json(back) == jt


# ---------------------------------------------------------------------------
# pass construction
# ---------------------------------------------------------------------------

def _check_bool(ok):
    return bool(ok), None


def _checks(name, thunks):
    return (name, thunks, _check_bool, False)


def prepare(workload, seed):
    """Everything a pass needs before the first operation; returns a factory.

    The factory returns a fresh list of groups for each pass.  Inputs of
    ``theory-io`` are generated here, so the same inputs feed every pass.
    """
    if workload in VERIFY_WORKLOADS:
        names = VERIFY_WORKLOADS[workload]
        return lambda: [suite_group(name, seed) for name in names]
    if workload != "theory-io":
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    rng = np.random.default_rng(seed)
    binary = [x for n in range(1, 5) for x in _all_symmetric(n, (0, 1))]
    pm1 = [x for n in range(1, 5) for x in _all_symmetric(n, (-1, 1))]
    ternary = [x for n in range(1, 4) for x in _all_symmetric(n, (-1, 0, 1))]
    points = membership_points(rng)
    builds = roundtrip_builds(rng)

    def groups():
        member = []
        for n, r, vertices, x, outside in points:
            member += [
                lambda x=x, r=r, v=vertices: check_membership_P(x, r, v, True),
                lambda x=outside, r=r, v=vertices: check_membership_P(x, r, v, False),
                lambda x=x, r=r: check_membership_R(x, r, True),
                lambda x=outside, r=r: check_membership_R(x, r, False),
            ]
        # I/n lies in every P^n_r and R^n_r; these larger LPs do not depend on
        # the seed, so the seeded points above do not decide the tail latency
        for n in range(1, 5):
            x = [[Fraction(int(i == j), n) for j in range(n)] for i in range(n)]
            member += [lambda x=x, r=r: check_membership_P(x, r, None, True) for r in range(1, n + 1)]
            member += [lambda x=x, r=r: check_membership_R(x, r, True) for r in range(1, n + 1)]
        return [
            _checks("theory.binary", [lambda x=x: check_binary(x) for x in binary]),
            _checks("theory.pm1", [lambda x=x: check_pm1(x) for x in pm1]),
            _checks("theory.ternary", [lambda x=x: check_ternary(x) for x in ternary]),
            _checks("theory.count", [lambda n=n, r=r: check_count(n, r)
                                     for n in range(1, 7) for r in range(1, n + 1)]),
            _checks("theory.membership", member),
            _checks("theory.schemes", [lambda n=n: check_lee(n) for n in (5, 7, 9)]
                    + [lambda m=m, k=k: check_kep_scheme(m, k)
                       for m, k in ((2, 2), (2, 3), (3, 2), (3, 3))]),
            _checks("theory.roundtrip", [lambda b=b, a=a: check_roundtrip(b, a)
                                         for b, a in builds]),
        ]

    return groups
