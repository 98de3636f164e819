"""Association schemes: axioms, intersection numbers, eigenmatrices.

A scheme is verified from its basis matrices with exact integer arithmetic;
its spectral side (minimal idempotents, eigenmatrices P and Q) is recovered
by refining the eigenspaces of the basis matrices one at a time until every
basis matrix is scalar on each subspace.  The convention here fixes E_0 as
the normalized all-ones projector and orders the remaining idempotents by
descending rank, then by descending eigenvalue on A_1.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import AxiomViolation, Disconnected, EvenOrder, MisdpkitError, PreconditionViolated
from .linalg import SymMat, eigensym
from .problems import Graph


@dataclass
class AssociationScheme:
    n: int
    r: int
    mats: list                 # A_0 .. A_r as SymMat
    p_numbers: np.ndarray      # intersection numbers, p_numbers[h, i, j]
    eigen_p: np.ndarray        # (r+1) x (r+1); row j holds eigenvalues on E_j
    eigen_q: np.ndarray        # dual eigenvalues, Q[i, j] = n (E_j)|supp(A_i)
    multiplicities: list       # rank of each E_j
    valencies: list            # row sums of each A_i
    projectors: list           # E_j as float arrays
    q_residual: float          # max deviation of E_j from constancy on supports


def distance_matrices(g: Graph):
    """A_0 .. A_d with (A_i)_{uv} = 1 iff d(u, v) = i, via BFS."""
    n = g.n
    adj = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for v in adj[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = dist[s, u] + 1
                        nxt.append(v)
            queue = nxt
    if np.any(dist < 0):
        raise Disconnected("distance matrices need a connected graph")
    diam = int(dist.max())
    return [SymMat((dist == d).astype(np.int64), check_symmetry=False) for d in range(diam + 1)]


def _refine_eigenspaces(mats):
    """Common eigenspace bases of a commuting symmetric family.

    Returns (bases, eigenvalue table) where table[g][t] is the eigenvalue of
    mats[t] on basis g.
    """
    n = mats[0].shape[0]
    groups = [np.eye(n)]
    eigvals = [[]]
    for t, a in enumerate(mats):
        new_groups = []
        new_eigs = []
        for basis, known in zip(groups, eigvals):
            b = basis.T @ (a @ basis)
            b = 0.5 * (b + b.T)
            res = eigensym(b)
            w, v = res.eigenvalues, res.eigenvectors
            scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
            tol = config.DEFAULT.eig_group * scale
            start = 0
            for i in range(1, len(w) + 1):
                if i == len(w) or abs(w[i] - w[start]) > tol:
                    cluster = basis @ v[:, start:i]
                    new_groups.append(cluster)
                    new_eigs.append(known + [float(np.mean(w[start:i]))])
                    start = i
        groups, eigvals = new_groups, new_eigs
    return groups, eigvals


def verify_axioms(mats) -> AssociationScheme:
    """Check a matrix family against the scheme axioms, exactly.

    Raises AxiomViolation naming the first failed axiom.  The spectral data
    (P, Q, idempotents) is computed on success.
    """
    if not mats:
        raise AxiomViolation("i", "empty matrix family")
    mats = [m if isinstance(m, SymMat) else SymMat(m) for m in mats]
    n = mats[0].n
    r = len(mats) - 1
    for m in mats:
        if m.n != n:
            raise AxiomViolation("i", "matrices have mixed orders")
        if not m.values_in({0, 1}):
            raise AxiomViolation("i", "matrices must be binary")
    ints = [m.ints for m in mats]
    if not np.array_equal(ints[0], np.eye(n, dtype=np.int64)):
        raise AxiomViolation("i", "A_0 must be the identity")
    if not np.array_equal(sum(ints), np.ones((n, n), dtype=np.int64)):
        raise AxiomViolation("i", "the family must sum to the all-ones matrix")

    supports = [a == 1 for a in ints]
    p_numbers = np.zeros((r + 1, r + 1, r + 1), dtype=np.int64)
    for i in range(r + 1):
        for j in range(i, r + 1):
            prod = ints[i] @ ints[j]
            if i != j and not np.array_equal(prod, ints[j] @ ints[i]):
                raise AxiomViolation("iii", f"A_{i} and A_{j} do not commute")
            for h in range(r + 1):
                vals = prod[supports[h]]
                if vals.size == 0:
                    continue
                v0 = vals[0]
                if np.any(vals != v0):
                    raise AxiomViolation(
                        "iv", f"A_{i} A_{j} is not constant on the support of A_{h}"
                    )
                p_numbers[h, i, j] = v0
                p_numbers[h, j, i] = v0

    arrays = [m.array for m in mats]
    groups, eigvals = _refine_eigenspaces(arrays)
    if len(groups) != r + 1:
        raise MisdpkitError(
            f"expected {r + 1} common eigenspaces, found {len(groups)}"
        )
    ones = np.ones(n)
    main = max(range(len(groups)), key=lambda g: float(np.linalg.norm(groups[g].T @ ones)))
    rest = [g for g in range(len(groups)) if g != main]
    rest.sort(key=lambda g: (-groups[g].shape[1], -eigvals[g][min(1, r)]))
    order = [main] + rest

    projectors = [groups[g] @ groups[g].T for g in order]
    eigen_p = np.array([eigvals[g] for g in order])
    multiplicities = [groups[g].shape[1] for g in order]
    valencies = [int(ints[i].sum(axis=1)[0]) for i in range(r + 1)]

    eigen_q = np.zeros((r + 1, r + 1))
    q_residual = 0.0
    for j, e in enumerate(projectors):
        for i in range(r + 1):
            vals = n * e[supports[i]]
            mean = float(np.mean(vals))
            eigen_q[i, j] = mean
            q_residual = max(q_residual, float(np.max(np.abs(vals - mean))) / n)

    return AssociationScheme(
        n, r, mats, p_numbers, eigen_p, eigen_q,
        multiplicities, valencies, projectors, q_residual,
    )


def idempotents(scheme: AssociationScheme):
    """Minimal idempotents E_j plus their numerical residuals."""
    es = [SymMat(0.5 * (e + e.T), check_symmetry=False) for e in scheme.projectors]
    k = len(es)
    idem = 0.0
    for i in range(k):
        for j in range(k):
            prod = scheme.projectors[i] @ scheme.projectors[j]
            target = scheme.projectors[i] if i == j else 0.0
            idem = max(idem, float(np.max(np.abs(prod - target))))
    total = sum(scheme.projectors) - np.eye(scheme.n)
    residuals = {
        "idempotency": idem,
        "sum_to_identity": float(np.max(np.abs(total))),
        "e0_vs_uniform": float(
            np.max(np.abs(scheme.projectors[0] - np.ones((scheme.n, scheme.n)) / scheme.n))
        ),
    }
    return es, residuals


def lee_scheme(n: int) -> AssociationScheme:
    """Distance scheme of the n-cycle for odd n; dual eigenvalue pattern
    Q[0, j] = 2 for j >= 1 and Q[i, 0] = 1 throughout."""
    if n % 2 == 0:
        raise EvenOrder("the cycle distance scheme is built here for odd n only")
    if n < 5:
        raise EvenOrder("need odd n >= 5")
    scheme = verify_axioms(distance_matrices(Graph.cycle(n)))
    q = scheme.eigen_q
    if np.max(np.abs(q[:, 0] - 1.0)) > 1e-8 or np.max(np.abs(q[0, 1:] - 2.0)) > 1e-8:
        raise MisdpkitError("cycle scheme eigenvalues do not match the expected pattern")
    return scheme


def kep_scheme_matrices(m: int, k: int):
    """Basis {I, between-class, within-class} for k classes of size m;
    PreconditionViolated unless m >= 1 and k >= 1."""
    if m < 1 or k < 1:
        raise PreconditionViolated(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    n = m * k
    a2 = np.kron(np.eye(k, dtype=np.int64), np.ones((m, m), dtype=np.int64) - np.eye(m, dtype=np.int64))
    a1 = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64) - a2
    return [SymMat(np.eye(n, dtype=np.int64)), SymMat(a1), SymMat(a2)]


def kep_scheme_eigen(m: int, k: int) -> np.ndarray:
    """Dual eigenvalue matrix of the k-classes-of-size-m scheme."""
    return np.array(
        [
            [1, (m - 1) * k, k - 1],
            [1, 0, -1],
            [1, -k, k - 1],
        ],
        dtype=np.int64,
    )


def scheme_report(scheme: AssociationScheme) -> dict:
    """JSON-ready summary of a verified scheme."""
    return {
        "n": scheme.n,
        "r": scheme.r,
        "valencies": scheme.valencies,
        "multiplicities": scheme.multiplicities,
        "intersection_numbers": scheme.p_numbers.tolist(),
        "P": scheme.eigen_p.tolist(),
        "Q": scheme.eigen_q.tolist(),
        "q_residual": scheme.q_residual,
    }
