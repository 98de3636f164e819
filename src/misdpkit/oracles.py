"""Brute-force combinatorial optima, the side of each check that reads no
compiled model: `oracle(kind, *args)` runs the exhaustive search of one
named problem kind.
"""

import itertools
from fractions import Fraction

import numpy as np

from . import dpsd
from .errors import BudgetExceeded
from .formulations import QcqpInstance, Qmp1Instance, Qmp2Instance, pynum
from .problems import Graph, GppInstance, QapInstance
from .search import OracleResult, _best_tracker


def _oracle_stable_set(g: Graph):
    if g.n > 20:
        raise BudgetExceeded("stable-set oracle enumerates at most 2^20 subsets")
    offer, result = _best_tracker("max")
    for mask in range(1 << g.n):
        if all(not (mask >> u & 1 and mask >> v & 1) for u, v in g.edges):
            offer(int(mask).bit_count(), mask)
    return result()


def _oracle_mkcs(g: Graph, k: int):
    offer, result = _best_tracker("max")
    for packing in dpsd.iter_packings(g.n, k):
        if all(
            not (u in part and v in part) for part in packing.parts for u, v in g.edges
        ):
            offer(sum(len(p) for p in packing.parts), packing)
    return result()


def _oracle_qcqp(inst: QcqpInstance):
    offer, result = _best_tracker(inst.sense)
    n = inst.n
    for bits in itertools.product((0, 1), repeat=n):
        x = np.array(bits)
        ok = all(
            pynum(x @ q @ x) + pynum(c @ x) <= d for q, c, d in inst.quads
        ) and all(pynum(a @ x) == b for a, b in inst.lin_eq)
        if ok:
            offer(pynum(x @ inst.q0 @ x) + pynum(inst.c0 @ x), bits)
    return result()


def _oracle_qmp1(inst: Qmp1Instance):
    offer, result = _best_tracker("min")
    for packing in dpsd.iter_packings(inst.n, inst.k):
        if inst.partition and sum(len(p) for p in packing.parts) != inst.n:
            continue
        x = packing.to_matrix().ints
        if any(pynum((q * x).sum()) + d > 0 for q, d in inst.quads):
            continue
        if any(
            sum(pynum(a[t]) for t in part) > b
            for a, b in inst.caps
            for part in packing.parts
        ):
            continue
        offer(pynum((inst.q0 * x).sum()), packing)
    return result()


def _oracle_qmp2(inst: Qmp2Instance):
    offer, result = _best_tracker("min")
    n, k = inst.n, inst.k
    classes = range(1, k + 1) if inst.partition else range(k + 1)
    for f in itertools.product(classes, repeat=n):
        if inst.exact_rank and any(a + 1 not in f for a in range(k)):
            continue
        parts = [[i for i in range(n) if f[i] == a + 1] for a in range(k)]

        def value(q, b, d):
            quad = sum(pynum(q[i, j]) for part in parts for i in part for j in part)
            lin = 2 * sum(pynum(b[i, f[i] - 1]) for i in range(n) if f[i] > 0)
            return quad + lin + d

        if any(value(q, b, d) > 0 for q, b, d in inst.constraints):
            continue
        offer(value(inst.q0, inst.b0, inst.d0), f)
    return result()


def _oracle_qbpp(weights, capacity, bin_cost, dissimilarity):
    d = [list(map(pynum, row)) for row in dissimilarity]
    n = len(weights)
    if dpsd.bell(n) > 10**5:
        raise BudgetExceeded("partition oracle enumerates at most 10^5 partitions")
    offer, result = _best_tracker("min")
    for packing in dpsd.iter_packings(n, n):
        if sum(len(p) for p in packing.parts) != n:
            continue
        if any(sum(weights[i] for i in part) > capacity for part in packing.parts):
            continue
        cost = bin_cost * len(packing.parts)
        cost += sum(d[i][j] for part in packing.parts for i in part for j in part)
        offer(cost, packing)
    return result()


def _oracle_qmkp(weights, capacities, profits, revenue):
    r = [list(map(pynum, row)) for row in revenue]
    n, k = len(weights), len(capacities)
    offer, result = _best_tracker("max")
    for f in itertools.product(range(k + 1), repeat=n):
        if any(
            sum(weights[i] for i in range(n) if f[i] == a + 1) > capacities[a]
            for a in range(k)
        ):
            continue
        chosen = [i for i in range(n) if f[i] > 0]
        profit = sum(profits[i] for i in chosen)
        profit += sum(r[i][j] for i in chosen for j in chosen if f[i] == f[j])
        offer(profit, f)
    return result()


def _oracle_qap(inst: QapInstance):
    if inst.n > 8:
        raise BudgetExceeded("assignment oracle enumerates at most 8! permutations")
    offer, result = _best_tracker("min")
    n = inst.n
    for perm in itertools.permutations(range(n)):
        cost = sum(
            pynum(inst.a[i, j]) * pynum(inst.b[perm[i], perm[j]])
            for i in range(n)
            for j in range(n)
        )
        cost += sum(pynum(inst.c[i, perm[i]]) for i in range(n))
        offer(cost, perm)
    return result()


def _oracle_tsp(d):
    d = [list(map(pynum, row)) for row in d]
    n = len(d)
    if n > 9:
        raise BudgetExceeded("tour oracle enumerates at most 8!/2 tours")
    offer, result = _best_tracker("min")
    for rest in itertools.permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue  # one orientation per tour
        tour = (0,) + rest
        cost = sum(d[tour[i]][tour[(i + 1) % n]] for i in range(n))
        offer(cost, tour)
    return result()


def _oracle_gpp(inst: GppInstance):
    g, k, sizes = inst.graph, inst.k, inst.sizes
    w = g.weight_matrix()
    offer, result = _best_tracker("min")
    seen = set()
    for f in itertools.product(range(k), repeat=g.n):
        counts = tuple(sorted((f.count(a) for a in range(k)), reverse=True))
        if counts != inst.sizes:
            continue
        key = frozenset(frozenset(i for i in range(g.n) if f[i] == a) for a in range(k))
        if key in seen:
            continue
        seen.add(key)
        cut = sum(pynum(w[u, v]) for u, v in g.edges if f[u] != f[v])
        offer(cut, key)
    return result()


def _oracle_sils(m_mat, b, cap):
    n, k = np.shape(m_mat)
    m_rows, b = [list(map(pynum, row)) for row in m_mat], list(map(pynum, b))
    offer, result = _best_tracker("min")
    for x in itertools.product((-1, 0, 1), repeat=k):
        if sum(1 for v in x if v) > cap:
            continue
        # ||Mx - b||^2 in Python numbers: exact on ints of any size
        r = [sum(a * t for a, t in zip(row, x)) - v for row, v in zip(m_rows, b)]
        val = sum(v * v for v in r)
        offer(Fraction(val, n) if isinstance(val, int) else val / n, x)
    return result()


def _oracle_completion(shape, observed, values):
    n, m = shape
    free = [(i, j) for i in range(n) for j in range(m) if (i, j) not in observed]
    offer, result = _best_tracker("min")
    base = np.zeros((n, m))
    for (i, j), v in observed.items():
        base[i, j] = float(v)
    for combo in itertools.product(values, repeat=len(free)):
        x = base.copy()
        for (i, j), v in zip(free, combo):
            x[i, j] = float(v)
        # independent nuclear-norm route: LAPACK SVD, not the Jacobi kernel
        offer(float(np.linalg.svd(x, compute_uv=False).sum()), combo)
    return result()


_ORACLES = {
    "stable_set": _oracle_stable_set,
    "mkcs": _oracle_mkcs,
    "qcqp": _oracle_qcqp,
    "qmp1": _oracle_qmp1,
    "qmp2": _oracle_qmp2,
    "qbpp": _oracle_qbpp,
    "qmkp": _oracle_qmkp,
    "qap": _oracle_qap,
    "tsp": _oracle_tsp,
    "gpp": _oracle_gpp,
    "sils": _oracle_sils,
    "completion": _oracle_completion,
}


def oracle(kind: str, *args, **kwargs) -> OracleResult:
    """Exhaustive combinatorial optimum for one of the named problem kinds."""
    try:
        fn = _ORACLES[kind]
    except KeyError:
        raise ValueError(f"unknown oracle kind {kind!r}; have {sorted(_ORACLES)}")
    return fn(*args, **kwargs)
