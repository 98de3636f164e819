"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from misdpkit import dpsd
from misdpkit.cbf import export_cbf, import_cbf
from misdpkit.cosring import CosInt
from misdpkit.errors import NotPsd
from misdpkit.linalg import SymMat, is_psd, num_rank
from misdpkit.model import MatrixPencil, export_json, import_json
from misdpkit.problems import (
    Graph,
    GppInstance,
    build_gpp,
    build_matrix_completion,
    build_mkcs,
    build_qbpp,
    build_sils,
    build_stable_set,
    build_tsp_cvetkovic,
)
from misdpkit.schemes import (
    distance_matrices,
    idempotents,
    kep_scheme_eigen,
    kep_scheme_matrices,
    lee_scheme,
    verify_axioms,
)
from misdpkit.verify import equivalence_suite, graph_from_mask


@contextmanager
def criterion(num, description, limit_s):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.perf_counter() - t0
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {num}: {status} - {description} ({dt:.1f}s / limit {limit_s}s)")
    assert dt < limit_s, f"criterion {num} exceeded its time limit ({dt:.1f}s)"


def sym_from_upper(n, vals):
    a = np.zeros((n, n), dtype=np.int64)
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = next(it)
    return SymMat(a, check_symmetry=False)


def all_symmetric(n, values):
    for combo in itertools.product(values, repeat=n * (n + 1) // 2):
        yield sym_from_upper(n, combo)


def test_criterion_1_counting():
    with criterion(1, "exact counts match exhaustive enumeration", 10):
        for n in range(1, 6):
            for r in range(1, n + 1):
                assert len(dpsd.enumerate_Dnr(n, r)) == dpsd.count_Dnr(n, r)
        for n in range(1, 21):
            assert dpsd.count_Dnr(n, 1) == 2**n
        assert [dpsd.bell(k) for k in (4, 5, 6)] == [15, 52, 203]
        for n in range(1, 6):
            assert dpsd.count_Dnr(n, n) == dpsd.bell(n + 1)


def test_criterion_2_characterization_equivalence():
    with criterion(2, "four PSD-binary characterizations agree exhaustively (n <= 4)", 30):
        for n in range(1, 5):
            for x in all_symmetric(n, (0, 1)):
                try:
                    packing = dpsd.decompose01(x)
                    p_combinatorial = True
                except NotPsd:
                    packing, p_combinatorial = None, False
                p_eigen = is_psd(x)
                if dpsd.triangle_check01(x):
                    p_triangle = False
                else:
                    p_triangle = num_rank(x) == len(dpsd.decompose01(x).parts)
                p_lmi = p_eigen and dpsd.rank_upper_certificate(x, num_rank(x))
                assert p_combinatorial == p_eigen == p_triangle == p_lmi
                if p_combinatorial:
                    assert x == packing.to_matrix()


def test_criterion_3_rank1_iff_binary():
    with criterion(3, "rank-1 <=> binary on bordered lifts; counterexample classified", 1):
        for n in (1, 2, 3):
            for bits in itertools.product((0, 1), repeat=n):
                x = np.array(bits, dtype=float)
                y = np.zeros((n + 1, n + 1))
                y[0, 0] = 1.0
                y[0, 1:] = x
                y[1:, 0] = x
                y[1:, 1:] = np.outer(x, x)
                r1, binary = dpsd.rank1_iff_binary(SymMat(y, check_symmetry=False))
                assert r1 and binary
        y = SymMat(0.5 * (np.ones((3, 3)) + 3 * np.outer([1.0, 0, 0], [1.0, 0, 0])))
        assert is_psd(y)
        assert num_rank(y) == 2
        assert dpsd.rank1_iff_binary(y) == (False, False)


def test_criterion_4_sign_and_ternary_theory():
    with criterion(4, "sign/ternary decompositions match PSD-ness exhaustively", 60):
        for n in range(1, 5):
            for x in all_symmetric(n, (-1, 1)):
                try:
                    s = dpsd.decompose_pm1(x)
                    ok = bool(np.array_equal(np.outer(s, s), x.ints))
                except NotPsd:
                    ok = False
                assert ok == is_psd(x)
                y = dpsd.pm1_to_01_rank2(x)
                transfer = (
                    bool(np.all(np.diag(y.ints) == 1)) and is_psd(y) and num_rank(y) <= 2
                )
                assert is_psd(x) == transfer
        for n in range(1, 4):
            for x in all_symmetric(n, (-1, 0, 1)):
                try:
                    blocks = dpsd.decompose_ternary(x)
                    ok = blocks.reconstruct() == x
                except NotPsd:
                    ok = False
                assert ok == is_psd(x)


def test_criterion_5_formulation_equivalences():
    suites = [
        "stable-set-n5",
        "mkcs-small",
        "qmkp-random",
        "qbpp-random",
        "qap-random",
        "tsp-small",
        "gpp-cross",
        "kep-gep-vs-assoc",
        "sils-small",
        "completion-2x2",
    ]
    with criterion(5, "enumerated MISDP optima equal brute-force oracles", 600):
        for name in suites:
            res = equivalence_suite(name)
            bad = [r.instance for r in res.reports if not r.ok()]
            assert res.passed, f"suite {name} failed on {bad[:5]}"
        # cross-formulation equality on the tour suite
        tsp = equivalence_suite("tsp-small").reports
        by_seed = {}
        for r in tsp:
            by_seed.setdefault(r.seed, []).append(r.misdp_optimum)
        assert all(len(set(v)) == 1 for v in by_seed.values())


def _two_regular_graphs_n6():
    """All 2-regular simple graphs on 6 labeled vertices: 60 hexagons + 10 triangle pairs."""
    graphs = []
    rest = list(itertools.permutations(range(1, 6)))
    seen = set()
    for perm in rest:
        cyc = (0,) + perm
        edges = frozenset(
            (min(cyc[i], cyc[(i + 1) % 6]), max(cyc[i], cyc[(i + 1) % 6])) for i in range(6)
        )
        if edges not in seen:
            seen.add(edges)
            graphs.append((edges, True))
    for tri in itertools.combinations(range(6), 3):
        other = tuple(sorted(set(range(6)) - set(tri)))
        if tri[0] != 0:
            continue  # each split once
        edges = frozenset(
            [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]),
             (other[0], other[1]), (other[0], other[2]), (other[1], other[2])]
        )
        graphs.append((edges, False))
    return graphs


def test_criterion_6_cvetkovic_feasibility_is_hamiltonicity():
    with criterion(6, "tour pencil accepts exactly the 6-cycles among 2-regular graphs", 60):
        n = 6
        alpha = 2.0 * (1.0 - math.cos(2.0 * math.pi / n))
        assert abs(alpha - 1.0) < 1e-14
        graphs = _two_regular_graphs_n6()
        assert len(graphs) == 70
        accepted = 0
        for edges, is_cycle in graphs:
            x = np.zeros((n, n))
            for u, v in edges:
                x[u, v] = x[v, u] = 1.0
            pencil = 2.0 * np.eye(n) - x + alpha * (np.ones((n, n)) - np.eye(n))
            ok = is_psd(pencil)
            assert ok == is_cycle
            accepted += ok
        assert accepted == 60


def test_criterion_7_association_schemes():
    with criterion(7, "cycle and class schemes verify with tight residuals", 60):
        for n in (5, 7, 9):
            scheme = verify_axioms(distance_matrices(Graph.cycle(n)))
            assert scheme.r == n // 2
            # intersection numbers are exact integers by construction; spot-check
            assert scheme.p_numbers[0, 1, 1] == 2
            _, residuals = idempotents(scheme)
            assert all(v <= 1e-8 for v in residuals.values())
            assert np.max(np.abs(scheme.eigen_q[:, 0] - 1.0)) <= 1e-8
            assert np.max(np.abs(scheme.eigen_q[0, 1:] - 2.0)) <= 1e-8
            lee = lee_scheme(n)
            assert np.max(np.abs(lee.eigen_q - scheme.eigen_q)) <= 1e-8
        for m, k in ((2, 2), (2, 3), (3, 2)):
            scheme = verify_axioms(kep_scheme_matrices(m, k))
            assert np.max(np.abs(scheme.eigen_q - kep_scheme_eigen(m, k))) <= 1e-8


def test_criterion_8_polytope_membership():
    with criterion(8, "exact LP membership: inclusions and separations", 60):
        for x in dpsd.enumerate_Dnr(4, 2):
            assert dpsd.membership_Rnr(x, 2).member
        res = dpsd.membership_Pnr(SymMat.identity(2), 1)
        assert not res.member
        g, gamma = res.separating
        for p in dpsd.iter_packings(2, 1):
            v = p.to_matrix().ints
            val = sum(g[i][j] * int(v[i, j]) for i in range(2) for j in range(2))
            assert val <= gamma
        assert g[0][0] + g[1][1] > gamma
        for n in range(1, 5):
            for r in range(1, n + 1):
                x = [[Fraction(1, n) if i == j else Fraction(0) for j in range(n)]
                     for i in range(n)]
                assert dpsd.membership_Pnr(x, r).member


def _fifty_models():
    rng = np.random.default_rng(99)
    models = []
    for mask in range(20):
        models.append(build_stable_set(graph_from_mask(4, mask * 3 % 64)))
    for mask in range(10):
        models.append(build_mkcs(graph_from_mask(4, mask * 5 % 64), 1 + mask % 3))
    for seed in range(6):
        w = [int(v) for v in rng.integers(1, 4, 3)]
        d = rng.integers(0, 3, (3, 3))
        d = np.tril(d, -1) + np.tril(d, -1).T
        models.append(build_qbpp(w, max(w) + 2, 1, d))
    inst = GppInstance.make(Graph.complete(4), 2, (2, 2))
    for variant in ("general", "equipartition", "bisection", "orthogonal"):
        models.append(build_gpp(inst, variant))
    for seed in range(5):
        m = rng.integers(-2, 3, (3, 2))
        b = rng.integers(-2, 3, 3)
        models.append(build_sils(m, b, 1))
    for t in range(4):
        obs = {(0, 0): 1} if t % 2 else {(0, 0): 1, (1, 1): 1}
        models.append(build_matrix_completion((2, 2), obs, [0, 1]))
    models.append(build_tsp_cvetkovic(np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)))
    return models[:50]


def _float_exact(model):
    nums = list(model.objective.coeffs.values()) + [model.objective.constant]
    for row in model.rows:
        nums.extend(c for _, c in row.coeffs)
        nums.append(row.rhs)
    return all(float(v) == v for v in nums)


def _with_float_ring_entries(model):
    """`model` with every CosInt pencil entry x replaced by float(x)."""
    def floats(triples):
        return [(r, c, float(x) if type(x) is CosInt else x) for r, c, x in triples]

    pencils = [MatrixPencil(p.order, floats(p.entries[0]), [(n, floats(t)) for n, t in p.terms])
               for p in model.pencils]
    return dataclasses.replace(model, pencils=pencils)


def test_criterion_9_serialization_round_trips():
    with criterion(9, "CBF and JSON round trips are byte-stable on 50 models", 5):
        models = _fifty_models()
        assert len(models) == 50
        for m in models:
            jt = export_json(m)
            assert export_json(import_json(jt)) == jt
            assert import_json(jt) == m
            ct = export_cbf(m)
            assert export_cbf(import_cbf(ct)) == ct
            if _float_exact(m):
                # CBF re-parses to an equal model whenever the coefficients
                # are exactly float-representable (non-dyadic rationals are
                # rounded by the 17-digit float rendering); a pencil entry in
                # Z[2cos(2pi/n)] comes back as the float CBF writes of it
                assert import_cbf(ct) == _with_float_ring_entries(m)
