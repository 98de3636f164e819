"""Problem-specific MISDP builders.

Each builder compiles one combinatorial problem into a MisdpModel whose
integer-feasible points correspond to the problem's solutions; the verify
module pairs every builder with a brute-force oracle (`oracles`).  Metadata
carries resolution hints for continuous variables that are pinned by pencil
structure rather than by equality rows (the rules of `hints`).

The builders reuse the generic lifts of `formulations`:

- bordered lift (`bordered_vars`, `bordered_pencil`): `build_stable_set`
  (corner 1) and `build_mkcs` (corner k); `build_qbpp` takes its variables
  and puts the bin count z in the corner of its own pencil;
- matrix lift (`matrix_lift`, `lift_pencil`): `build_qmkp`, `build_gpp`
  "general" (without the diag-tie rows) and the first pencil of `build_gpp`
  "orthogonal" (over X1);
- the walker `upper` for every upper-triangle list and per-pair row, and the
  coefficient map `upper_coeffs` for every objective over a matrix variable:
  <Q, X>, <L, X> / 2 (the halved diagonal a Fraction on ints), the pair
  weights, and sils's c v / n (`_ratio`: Fraction(c v, n) on ints);
- the reader `instance_array` for every instance array, `Graph.make` and
  `Graph.laplacian` too, so integer data stays exact at any size.

The equipartition, bisection, assignment, tour, association-scheme,
completion and sparse least squares models have pencils of their own.  Every
pencil comes from `formulations.shared_pencil`, one object per content.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cosring
from .errors import (
    DimensionMismatch,
    EvenOrder,
    InfeasibleItem,
    ParseError,
    PreconditionViolated,
    SizeMismatch,
    VariantPrecondition,
    json_numbers,
    json_reader,
)
from .formulations import (
    bordered_pencil,
    bordered_vars,
    gram_hint,
    instance_array,
    lift_pencil,
    matrix_lift,
    mname,
    pname,
    pynum,
    shared_pencil,
    upper,
    upper_coeffs,
    xname,
)
from .model import LinRow, MisdpModel, Objective, VarDomain

GPP_VARIANTS = ("general", "equipartition", "bisection", "orthogonal")


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, optionally edge-weighted.

    `weights`, when present, is symmetric with zero diagonal and zero entries
    off the edge set.  Two graphs are equal when their n, edges and
    `weight_matrix()` values are, so unit weights equal no weights.
    """

    n: int
    edges: tuple
    weights: object = None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges) and np.array_equal(
            self.weight_matrix(), other.weight_matrix())

    def __hash__(self):
        return hash((self.n, self.edges))

    @staticmethod
    def make(n, edges, weights=None):
        canon = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside range({n})")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        canon.sort()
        w = None
        if weights is not None:
            w = instance_array(weights, (n, n), "weight matrix", symmetric=True)
            if np.any(w[Graph(n, tuple(canon)).adjacency() == 0] != 0):
                raise ValueError("weights must vanish on non-edges and the diagonal")
            # a read-only copy, int64 when that holds every int
            w = w.astype(np.int64 if all(type(v) is int and -2**63 <= v < 2**63 for v in w.flat) else w.dtype)
            w.setflags(write=False)
        return Graph(n, tuple(canon), w)

    @staticmethod
    def complete(n):
        return Graph.make(n, itertools.combinations(range(n), 2))

    @staticmethod
    def cycle(n):
        return Graph.make(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n):
        return Graph.make(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def empty(n):
        return Graph.make(n, [])

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a

    def weight_matrix(self):
        return self.weights if self.weights is not None else self.adjacency()

    def laplacian(self):
        w = instance_array(self.weight_matrix(), (self.n, self.n), "weight matrix")
        return np.diag(w.sum(axis=1)) - w


def graph_from_dimacs(text: str) -> Graph:
    """DIMACS edge format: `p edge n m` then `e u v [w]` lines (1-based)."""
    n = None
    edges = []
    weights = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] not in ("edge", "edges", "col"):
                raise ParseError(f"bad problem line {line!r}", line=lineno)
            if n is not None:
                raise ParseError("second problem line", line=lineno)
            n = _dimacs_number(parts[2], int, lineno)
            if n < 0:
                raise ParseError(f"negative vertex count {n}", line=lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(parts) not in (3, 4):
                raise ParseError(f"bad edge line {line!r}", line=lineno)
            u, v = (_dimacs_number(t, int, lineno) - 1 for t in parts[1:3])
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u + 1},{v + 1}) outside vertices 1..{n}", line=lineno)
            if u == v or (min(u, v), max(u, v)) in seen:
                raise ParseError(f"loop or repeated edge ({u + 1},{v + 1})", line=lineno)
            seen.add((min(u, v), max(u, v)))
            x = _dimacs_number(parts[3], float, lineno) if len(parts) == 4 else None
            if x is not None and not math.isfinite(x):
                raise ParseError(f"edge weight {parts[3]!r} is not finite", line=lineno)
            edges.append((u, v))
            weights.append(x)
        else:
            raise ParseError(f"unknown DIMACS line {line!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    w = None
    if any(x is not None for x in weights):
        w = np.zeros((n, n))
        for (u, v), x in zip(edges, weights):
            val = 1.0 if x is None else x
            w[u, v] = w[v, u] = val
        if np.array_equal(w, np.rint(w)) and np.all(np.abs(w) < 2**53):  # as SymMat: int64 holds it
            w = w.astype(np.int64)
    return Graph.make(n, edges, w)


def _dimacs_number(token, cast, lineno):
    try:
        return cast(token)
    except ValueError:
        raise ParseError(f"{token!r} is not a valid {cast.__name__}", line=lineno) from None


def graph_to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    w = None if g.weights is None else g.weights.tolist()
    for u, v in g.edges:
        if w is None:
            lines.append(f"e {u + 1} {v + 1}")
        else:
            lines.append(f"e {u + 1} {v + 1} {w[u][v]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QapInstance:
    n: int
    a: object
    b: object
    c: object = None

    @staticmethod
    def make(a, b, c=None):
        a = instance_array(a, (None, None), "A", symmetric=True)
        n = len(a)
        return QapInstance(n, a, instance_array(b, (n, n), "B", symmetric=True), instance_array(c, (n, n), "C"))


def parse_qaplib(text: str) -> QapInstance:
    """QAPLIB layout: n, then the A rows, then the B rows (whitespace-tolerant)."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty QAPLIB file")
    try:
        vals = [int(t) for t in tokens]
    except ValueError:
        try:
            vals = [float(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(f"non-numeric token: {exc}")
        bad = [t for t, v in zip(tokens, vals) if not math.isfinite(v)]
        if bad:
            raise ParseError(f"token {bad[0]!r} is not a finite number")
    n = vals[0]
    if n != int(n) or n < 1:
        raise ParseError(f"size {tokens[0]!r} is not a positive integer")
    n = int(n)
    need = 1 + 2 * n * n
    if len(vals) < need:
        raise ParseError(f"expected {need} numbers for n={n}, found {len(vals)}")
    rows = [vals[1 + i * n:1 + (i + 1) * n] for i in range(2 * n)]
    return QapInstance.make(rows[:n], rows[n:])


@dataclass(frozen=True)
class GppInstance:
    """Partition the vertices into k sets of sizes m_1 >= ... >= m_k >= 1."""

    graph: Graph
    k: int
    sizes: tuple

    @staticmethod
    def make(graph, k, sizes):
        sizes = tuple(sorted((int(s) for s in sizes), reverse=True))
        if len(sizes) != k:
            raise SizeMismatch(f"need {k} sizes, got {len(sizes)}")
        if sum(sizes) != graph.n or any(s < 1 for s in sizes):
            raise SizeMismatch(f"sizes {sizes} must be >= 1 and sum to n = {graph.n}")
        return GppInstance(graph, k, sizes)


# ---------------------------------------------------------------------------
# stable set and max k-colorable subgraph
# ---------------------------------------------------------------------------

def _lifted_objective_max_count(n):
    return Objective("min", {xname(i): -1 for i in range(n)})


def build_stable_set(g: Graph) -> MisdpModel:
    """Bordered lift of the maximum stable set problem.

    Border x binary, lifted off-diagonal entries continuous in [0,1]; the
    unit corner and diagonal tie pin them to x_i x_j at feasibility.
    """
    n = g.n
    rows = [LinRow(((mname("X", u, v), 1),), "==", 0, label="edge") for u, v in g.edges]
    return MisdpModel(
        bordered_vars(n, VarDomain.continuous(0, 1)),
        _lifted_objective_max_count(n),
        rows,
        [bordered_pencil(n, 1)],
        metadata={"problem": "stable_set", "sense_original": "max",
                  "hints": [gram_hint(n)]},
    )


def build_mkcs(g: Graph, k: int) -> MisdpModel:
    """Maximum k-colorable subgraph via the matrix lift with corner k."""
    if not 1 <= k <= g.n:
        raise VariantPrecondition(f"need 1 <= k <= n, got k={k}")
    n = g.n
    rows = [LinRow(((mname("X", u, v), 1),), "==", 0, label="edge") for u, v in g.edges]
    return MisdpModel(
        bordered_vars(n, VarDomain.binary()),
        _lifted_objective_max_count(n),
        rows,
        [bordered_pencil(n, k)],
        metadata={"problem": "mkcs", "k": k, "sense_original": "max"},
    )


# ---------------------------------------------------------------------------
# quadratic bin packing / multiple knapsack
# ---------------------------------------------------------------------------

def build_qbpp(weights, capacity, bin_cost, dissimilarity) -> MisdpModel:
    """Quadratic bin packing: the bin-count scalar z stays continuous.

    The bordered pencil [[z, 1^T], [1, X]] is PSD iff z >= 1^T X^+ 1, which is
    rank(X) for a PSD binary X, so no integrality marker is needed: the
    enumerator sets z to that Schur boundary exactly.  A negative bin_cost
    leaves z unbounded above and raises PreconditionViolated.
    """
    w = instance_array(weights, (None,), "weights").tolist()
    n = len(w)
    capacity, bin_cost = pynum(capacity), pynum(bin_cost)
    d = instance_array(dissimilarity, (n, n), "dissimilarity", symmetric=True).tolist()
    if any(v <= 0 for v in w):
        raise InfeasibleItem("item weights must be positive")
    if bin_cost < 0:
        raise PreconditionViolated(f"bin_cost must be nonnegative, got {bin_cost}: z is unbounded")
    for i, v in enumerate(w):
        if v > capacity:
            raise InfeasibleItem(f"item {i} has weight {v} > capacity {capacity}")

    variables = [("z", VarDomain.continuous())] + bordered_vars(n, VarDomain.binary())
    rows = [LinRow(((xname(i), 1),), "==", 1, label="partition") for i in range(n)]
    for t in range(n):
        coeffs = ((xname(t), w[t]), *((_pair_var("X", t, j), w[j]) for j in range(n) if j != t))
        rows.append(LinRow(coeffs, "<=", capacity, label="capacity"))

    terms = [("z", [(0, 0, 1)])] + [(xname(i), [(i + 1, i + 1, 1)]) for i in range(n)]
    terms += [(name, [(i + 1, j + 1, 1)]) for name, i, j in upper("X", n, 1)]
    # <D, X> with the diagonal aliased to x, row by row
    cells = [(xname(i) if i == j else name, i, j) for name, i, j in upper("X", n)]
    coeffs = {"z": bin_cost, **upper_coeffs(d, cells)}
    return MisdpModel(
        variables,
        Objective("min", coeffs),
        rows,
        [shared_pencil(n + 1, [(0, i + 1, 1) for i in range(n)], terms)],
        metadata={"problem": "qbpp"},
    )


def build_qmkp(weights, capacities, profits, revenue) -> MisdpModel:
    """Quadratic multiple knapsack (max sense, normalized to min)."""
    w = instance_array(weights, (None,), "weights").tolist()
    n = len(w)
    c = instance_array(capacities, (None,), "capacities").tolist()
    k = len(c)
    p = instance_array(profits, (n,), "profits").tolist()
    r = instance_array(revenue, (n, n), "revenue", symmetric=True).tolist()
    if any(v <= 0 for v in w):
        raise DimensionMismatch("weights must be positive")
    if any(v < 0 for v in c):
        raise DimensionMismatch("capacities must be nonnegative")

    variables, rows, pencil = matrix_lift(n, k)
    for a in range(k):
        rows.append(
            LinRow(tuple((pname(i, a), w[i]) for i in range(n)), "<=", c[a], label="capacity")
        )
    # -<R, X> - p^T P 1, each row's P entries before its X entries
    lifted = upper_coeffs(r, upper("X", n), lambda v: -v, lambda v: -2 * v)
    coeffs = {}
    for name, i, j in upper("X", n):
        if i == j and p[i] != 0:
            coeffs.update((pname(i, a), -p[i]) for a in range(k))
        if name in lifted:
            coeffs[name] = lifted[name]
    return MisdpModel(
        variables,
        Objective("min", coeffs),
        rows,
        [pencil],
        metadata={"problem": "qmkp", "k": k, "sense_original": "max"},
    )


# ---------------------------------------------------------------------------
# QAP and TSP
# ---------------------------------------------------------------------------

def _qap_skeleton(n, b, objective: Objective, problem: str) -> MisdpModel:
    """The order-n assignment model whose rows R = X B read `b`, an array."""
    b = b.tolist()
    y, z = upper("Y", n), upper("Z", n)
    variables = [(mname("X", i, j), VarDomain.binary()) for i in range(n) for j in range(n)]
    variables += [(mname("R", i, j), VarDomain.continuous()) for i in range(n) for j in range(n)]
    variables += [(name, VarDomain.continuous()) for name, _, _ in y + z]

    rows = []
    for i in range(n):
        rows.append(LinRow(tuple((mname("X", i, j), 1) for j in range(n)), "==", 1, label="row-sum"))
    for j in range(n):
        rows.append(LinRow(tuple((mname("X", i, j), 1) for i in range(n)), "==", 1, label="col-sum"))
    for i in range(n):
        for j in range(n):
            coeffs = ((mname("R", i, j), 1), *((mname("X", i, t), -b[t][j]) for t in range(n) if b[t][j] != 0))
            rows.append(LinRow(coeffs, "==", 0, label="r-def"))

    terms = []
    for i in range(n):
        for j in range(n):
            terms.append((mname("X", i, j), [(j, n + i, 1)]))
            terms.append((mname("R", i, j), [(j, 2 * n + i, 1)]))
    for (y_ij, i, j), (z_ij, _, _) in zip(y, z):
        terms.append((y_ij, [(n + i, 2 * n + j, 1)] + ([(n + j, 2 * n + i, 1)] if i != j else [])))
        terms.append((z_ij, [(2 * n + i, 2 * n + j, 1)]))
    pencil = shared_pencil(3 * n, [(i, i, 1) for i in range(2 * n)], terms)
    hints = [{"rule": "qap_schur", "n": n, "x": "X", "r": "R", "y": "Y", "z": "Z"}]
    return MisdpModel(
        variables,
        objective,
        rows,
        [pencil],
        metadata={"problem": problem, "hints": hints},
    )


def build_qap(inst: QapInstance) -> MisdpModel:
    """Matrix-lifted assignment model with one pencil of order 3n."""
    n = inst.n
    coeffs = upper_coeffs(inst.a.tolist(), upper("Y", n))
    c = inst.c.tolist()
    coeffs.update((mname("X", i, j), c[i][j]) for i in range(n) for j in range(n) if c[i][j] != 0)
    return _qap_skeleton(n, inst.b, Objective("min", coeffs), "qap")


def cycle_adjacency(n):
    return Graph.cycle(n).adjacency()


def _ratio(v, d):
    """v / d, a Fraction when v is an int."""
    return Fraction(v, d) if isinstance(v, int) else v / d


def _laplacian_objective(lap, n, var="X"):
    """<L, var> / 2 over var[i,j], i <= j; the halved diagonal is a Fraction on ints."""
    return Objective("min", upper_coeffs(lap.tolist(), upper(var, n), lambda v: _ratio(v, 2), lambda v: v))


def build_tsp_qap(d) -> MisdpModel:
    """TSP as an assignment model against the standard tour adjacency."""
    d = instance_array(d, (None, None), "distance matrix", symmetric=True)
    n = len(d)
    if n < 3:
        raise DimensionMismatch("TSP needs n >= 3")
    return _qap_skeleton(n, cycle_adjacency(n), _laplacian_objective(d, n, var="Y"), "tsp_qap")


def _pair_var(prefix, i, j):
    return mname(prefix, min(i, j), max(i, j))


def _pair_coeffs(m, n, var):
    """m_ij over var[i,j] for each pair i < j with m_ij != 0: <M, var> / 2 at zero diagonal."""
    return upper_coeffs(m.tolist(), upper(var, n, 1), off=lambda v: v)


def build_tsp_cvetkovic(d) -> MisdpModel:
    """Tour model from the algebraic connectivity of the n-cycle."""
    d = instance_array(d, (None, None), "distance matrix", symmetric=True)
    n = len(d)
    if n < 3:
        raise DimensionMismatch("TSP needs n >= 3")
    pairs = upper("X", n, 1)
    variables = [(name, VarDomain.binary()) for name, _, _ in pairs]
    rows = []
    for i in range(n):
        rows.append(
            LinRow(tuple((_pair_var("X", i, j), 1) for j in range(n) if j != i), "==", 2,
                   label="degree")
        )
    # 2 - 2cos(2pi/n), exactly: an int at n = 3, 4 and 6, where 2cos(2pi/n) is
    # rational (Niven), else an element of Z[2cos(2pi/n)], which is_psd_at decides exactly
    gap = 2 - cosring.alpha(n)
    const = [(i, j, 2 if i == j else gap) for _, i, j in upper("X", n)]
    terms = [(name, [(i, j, -1)]) for name, i, j in pairs]
    return MisdpModel(
        variables,
        Objective("min", _pair_coeffs(d, n, "X")),
        rows,
        [shared_pencil(n, const, terms)],
        metadata={"problem": "tsp_cvetkovic"},
    )


def build_tsp_lee(d) -> MisdpModel:
    """Tour model over the distance-matrix variables of a cycle (odd n only).

    X_1 is binary; the higher distance classes stay continuous and are
    completed by the cycle recurrence during verification.  Pencil l is
    2I + sum_t 2cos(2pi tl/n) X_t, twice the paper's, so that its entries lie
    in Z[2cos(2pi/n)] and are decided exactly.  Degree rows on
    X_1 are attached as pruning-only valid cuts: every integer-feasible X_1
    is a tour adjacency, so they cut no feasible point.
    """
    d = instance_array(d, (None, None), "distance matrix", symmetric=True)
    n = len(d)
    if n % 2 == 0:
        raise EvenOrder("this tour model is derived for odd n only")
    if n < 5:
        raise DimensionMismatch("need n >= 5")
    r = n // 2
    names = [f"X{t}" for t in range(1, r + 1)]
    variables = []
    for t, base in enumerate(names):
        dom = VarDomain.binary() if t == 0 else VarDomain.continuous(0)
        variables += [(name, dom) for name, _, _ in upper(base, n, 1)]
    rows = [LinRow(tuple((mname(base, i, j), 1) for base in names), "==", 1, label="cover")
            for _, i, j in upper(names[0], n, 1)]
    # alphas[k] = 2cos(2pi k/n) in Z[alpha], alpha = alphas[1], by
    # alpha_(k+1) = alpha alpha_k - alpha_(k-1) from alpha_0 = 2
    alphas = [2, cosring.alpha(n)]
    while len(alphas) <= r * r:
        alphas.append(alphas[1] * alphas[-1] - alphas[-2])
    pencils = []
    for lmi in range(1, r + 1):
        terms = [(name, [(i, j, alphas[t * lmi])]) for t, base in enumerate(names, 1)
                 for name, i, j in upper(base, n, 1)]
        pencils.append(shared_pencil(n, [(i, i, 2) for i in range(n)], terms))
    cuts = [
        {
            "coeffs": [[_pair_var("X1", i, j), 1] for j in range(n) if j != i],
            "rel": "==",
            "rhs": 2,
        }
        for i in range(n)
    ]
    hints = [
        {"rule": "cycle_distance", "n": n, "base": "X1", "others": names[1:]},
        {"rule": "valid_cuts", "rows": cuts},
    ]
    return MisdpModel(
        variables,
        Objective("min", _pair_coeffs(d, n, "X1")),
        rows,
        pencils,
        metadata={"problem": "tsp_lee", "hints": hints},
    )


# ---------------------------------------------------------------------------
# graph partition variants
# ---------------------------------------------------------------------------

def build_gpp(inst: GppInstance, variant: str = "general") -> MisdpModel:
    """Graph partition models; `variant` picks the displayed formulation."""
    if variant not in GPP_VARIANTS:
        raise VariantPrecondition(f"variant must be one of {GPP_VARIANTS}")
    g, k, sizes = inst.graph, inst.k, inst.sizes
    n = g.n
    lap = g.laplacian()
    metadata = {"problem": "gpp", "variant": variant, "k": k, "sizes": list(sizes)}

    def diag(prefix):
        return [LinRow(((mname(prefix, i, i), 1),), "==", 1, label="diag") for i in range(n)]

    if variant in ("equipartition", "bisection"):
        # X alone with the pencil scale * X - J
        if variant == "equipartition":
            if n % k != 0 or any(s != n // k for s in sizes):
                raise VariantPrecondition("equipartition requires equal sizes n/k")
            scale = k
            extra = [
                LinRow(tuple((_pair_var("X", i, j), 1) for j in range(n)), "==", n // k,
                       label="row-sum")
                for i in range(n)
            ]
        else:
            if k != 2:
                raise VariantPrecondition("bisection requires k = 2")
            m1 = min(sizes)
            if not 1 <= m1 <= n / 2:
                raise VariantPrecondition("bisection requires 1 <= m_1 <= n/2")
            scale = 2
            mass = upper_coeffs([[1] * n] * n, upper("X", n))
            extra = [LinRow(tuple(mass.items()), "==", m1 * m1 + (n - m1) * (n - m1), label="mass")]
        cells = upper("X", n)
        variables = [(name, VarDomain.binary()) for name, _, _ in cells]
        terms = [(name, [(i, j, scale)]) for name, i, j in cells]
        minus_j = [(i, j, -1) for _, i, j in cells]
        return MisdpModel(
            variables,
            _laplacian_objective(lap, n),
            diag("X") + extra,
            [shared_pencil(n, minus_j, terms)],
            metadata=metadata,
        )

    assign = [
        LinRow(tuple((pname(i, a), 1) for a in range(k)), "==", 1, label="assign") for i in range(n)
    ]
    if variant == "general":
        variables, _, pencil = matrix_lift(n, k)
        sized = [
            LinRow(tuple((pname(i, a), 1) for i in range(n)), "==", sizes[a], label="size")
            for a in range(k)
        ]
        return MisdpModel(variables, _laplacian_objective(lap, n), assign + sized + diag("X"),
                          [pencil], metadata=metadata)

    # orthogonal: explicit P with two pencils and X2 pinned to Diag(sizes)
    x2 = upper("X2", k)
    variables = [(pname(i, a), VarDomain.binary()) for i in range(n) for a in range(k)]
    variables += [(name, VarDomain.continuous()) for name, _, _ in upper("X1", n) + x2]
    pinned = [LinRow(((name, 1),), "==", sizes[a] if a == b else 0, label="x2") for name, a, b in x2]
    terms2 = [(pname(i, a), [(i, n + a, 1)]) for i in range(n) for a in range(k)]
    terms2 += [(name, [(n + a, n + b, 1)]) for name, a, b in x2]
    metadata["hints"] = [gram_hint(n, [[pname(i, a) for a in range(k)] for i in range(n)], "X1")]
    return MisdpModel(
        variables,
        _laplacian_objective(lap, n, var="X1"),
        assign + diag("X1") + pinned,
        [lift_pencil(n, k, "X1"), shared_pencil(n + k, [(i, i, 1) for i in range(n)], terms2)],
        metadata=metadata,
    )


def build_kep_assoc(inst: GppInstance, degree_rows: bool = False) -> MisdpModel:
    """Equipartition model over the between/within split of the pair set.

    X_2 marks within-class pairs (binary), X_1 = J - I - X_2 the rest.  The
    objective weight is half the graph weight matrix so optima coincide with
    the cut objective of the equipartition model.  `degree_rows` swaps the
    (m-1)-bound pencil for its equivalent row form.
    """
    g, k, sizes = inst.graph, inst.k, inst.sizes
    n = g.n
    if n % k != 0 or any(s != n // k for s in sizes):
        raise SizeMismatch("this model requires equal class sizes n/k")
    m = n // k
    w = g.weight_matrix()
    x1, x2 = upper("X1", n, 1), upper("X2", n, 1)
    variables = [(name, VarDomain.binary()) for name, _, _ in x2]
    variables += [(name, VarDomain.continuous(0)) for name, _, _ in x1]
    rows = [LinRow(((a, 1), (b, 1)), "==", 1, label="pair") for (a, _, _), (b, _, _) in zip(x1, x2)]
    pencils = []
    if degree_rows:
        for i in range(n):
            coeffs = tuple((_pair_var("X2", i, j), 1) for j in range(n) if j != i)
            rows.append(LinRow(coeffs, "==", m - 1, label="within-degree"))
    else:
        terms = [(name, [(i, j, -1)]) for name, i, j in x2]
        pencils.append(shared_pencil(n, [(i, i, m - 1) for i in range(n)], terms))
    terms2 = []
    for (a, i, j), (b, _, _) in zip(x1, x2):
        terms2 += [(a, [(i, j, -1)]), (b, [(i, j, k - 1)])]
    pencils.append(shared_pencil(n, [(i, i, k - 1) for i in range(n)], terms2))
    return MisdpModel(
        variables,
        Objective("min", _pair_coeffs(w, n, "X1")),
        rows,
        pencils,
        metadata={"problem": "kep_assoc", "k": k, "m": m},
    )


# ---------------------------------------------------------------------------
# integer matrix completion and sparse integer least squares
# ---------------------------------------------------------------------------

def build_matrix_completion(shape, observed, domain) -> MisdpModel:
    """Minimum nuclear norm completion with integer off-support entries.

    `observed` maps (i, j) to the fixed value; `domain` is a VarDomain or an
    iterable of allowed integers for the free entries.  The objective is the
    nuclear norm (half the trace sum of the two auxiliary blocks).
    """
    n, m = shape
    if not isinstance(domain, VarDomain):
        domain = VarDomain.finite_set(domain)
    observed = {(int(i), int(j)): pynum(v) for (i, j), v in observed.items()}
    for (i, j) in observed:
        if not (0 <= i < n and 0 <= j < m):
            raise DimensionMismatch(f"observed entry {(i, j)} outside {n}x{m}")
    variables = [
        (mname("X", i, j), domain) for i in range(n) for j in range(m) if (i, j) not in observed
    ]
    z1, z2 = upper("Z1", n), upper("Z2", m)
    variables += [(name, VarDomain.continuous()) for name, _, _ in z1 + z2]
    terms = [
        (mname("X", i, j), [(i, n + j, 1)]) for i in range(n) for j in range(m) if (i, j) not in observed
    ]
    terms += [(name, [(i, j, 1)]) for name, i, j in z1]
    terms += [(name, [(n + a, n + b, 1)]) for name, a, b in z2]
    const = [(i, n + j, v) for (i, j), v in observed.items()]
    coeffs = {mname("Z1", i, i): Fraction(1, 2) for i in range(n)}
    coeffs.update({mname("Z2", a, a): Fraction(1, 2) for a in range(m)})
    hints = [{"rule": "nuclear", "pencil": 0, "rows": n, "cols": m, "z1": "Z1", "z2": "Z2"}]
    return MisdpModel(
        variables,
        Objective("min", coeffs),
        rows=[],
        pencils=[shared_pencil(n + m, const, terms)],
        metadata={"problem": "matrix_completion", "shape": [n, m], "hints": hints},
    )


def build_sils(m_mat, b, cap) -> MisdpModel:
    """Sparse integer least squares over ternary x with support cap."""
    m_mat = instance_array(m_mat, (None, None), "M")
    n, k = m_mat.shape
    b = instance_array(b, (n,), "b")
    if not 0 <= cap <= k:
        raise DimensionMismatch(f"support cap must lie in [0, {k}]")
    gram = (m_mat.T @ m_mat).tolist()
    mtb = (m_mat.T @ b).tolist()
    cells = upper("X", k)

    variables = [(xname(i), VarDomain.ternary()) for i in range(k)]
    variables += [(name, VarDomain.ternary()) for name, _, _ in cells]
    variables += [(f"y1[{i}]", VarDomain.continuous(0)) for i in range(k)]
    variables += [(f"y2[{i}]", VarDomain.continuous(0)) for i in range(k)]

    rows = []
    for i in range(k):
        rows.append(
            LinRow(((xname(i), 1), (f"y1[{i}]", -1), (f"y2[{i}]", 1)), "==", 0, label="split")
        )
        rows.append(
            LinRow(((mname("X", i, i), 1), (f"y1[{i}]", -1), (f"y2[{i}]", -1)), "==", 0,
                   label="diag")
        )
    rows.append(
        LinRow(tuple((mname("X", i, i), 1) for i in range(k)), "<=", cap, label="support")
    )

    terms = [(xname(i), [(0, i + 1, 1)]) for i in range(k)]
    terms += [(name, [(i + 1, j + 1, 1)]) for name, i, j in cells]

    # (||b||^2 - 2 (M^T b)^T x + <M^T M, X>) / n
    coeffs = {xname(i): _ratio(-2 * v, n) for i, v in enumerate(mtb) if v != 0}
    coeffs.update(upper_coeffs(gram, cells, lambda v: _ratio(v, n), lambda v: _ratio(2 * v, n)))
    return MisdpModel(
        variables,
        Objective("min", coeffs, _ratio(pynum(b @ b), n)),
        rows,
        [shared_pencil(k + 1, [(0, 0, 1)], terms)],
        metadata={"problem": "sils", "cap": int(cap), "n_rows": n},
    )


# ---------------------------------------------------------------------------
# instance JSON (schemas documented in the README)
# ---------------------------------------------------------------------------

@json_reader
def qbpp_from_json(obj):
    w = json_numbers(obj, "weights", (None,))
    n = len(w)
    return (w, json_numbers(obj, "capacity", ()), json_numbers(obj, "bin_cost", ()),
            json_numbers(obj, "dissimilarity", (n, n)))


@json_reader
def qmkp_from_json(obj):
    w = json_numbers(obj, "weights", (None,))
    n = len(w)
    return (w, json_numbers(obj, "capacities", (None,)), json_numbers(obj, "profits", (n,)),
            json_numbers(obj, "revenue", (n, n)))


@json_reader
def sils_from_json(obj):
    m = json_numbers(obj, "M", (None, None))
    return m, json_numbers(obj, "b", (len(m),)), json_numbers(obj, "K", (), integral=True)


@json_reader
def completion_from_json(obj):
    shape = tuple(json_numbers(obj, "shape", (2,), integral=True))
    observed = json_numbers(obj, "observed", (None, 3)) if "observed" in obj else []
    if any(x != int(x) for i, j, _ in observed for x in (i, j)):
        raise ParseError("field 'observed' holds an index that is not an integer")
    observed = {(int(i), int(j)): v for i, j, v in observed}
    dom = obj["domain"]
    if "values" in dom:
        domain = VarDomain.finite_set(json_numbers(dom, "values", (None,)))
    else:
        domain = VarDomain.integer_range(json_numbers(dom, "lo", ()), json_numbers(dom, "hi", ()))
    return shape, observed, domain
