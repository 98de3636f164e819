"""Desk-scale exact verification of compiled models.

`solve_by_enumeration` walks every integer assignment of a model (forward
checking on linear rows), eliminates the continuous variables, and evaluates
feasibility exactly.  Each leaf resolves continuous variables in this order:

  1. builder hints of the "lift" stage (entries pinned by the integer part);
  2. exact linear closure of the equality rows (Gaussian elimination over
     Fractions) over the continuous variables no hint covers;
  3. builder hints of the "forced" stage (blocks fixed once the closure ran);
  4. corner scalars: a variable sitting on one diagonal entry of a single
     pencil and appearing linearly in the objective, resolved by bisection;
  5. builder hints of the "pending" stage, only while variables remain.

`_HINT_RULES` is the one list of hint rules a model's metadata may name: each
entry gives its stage, the variables it covers, and any pruning-only rows
("valid_cuts") that every integer-feasible point satisfies.  A hint naming
any other rule raises ValueError.  `oracle` provides the brute-force
combinatorial side, and `equivalence_suite` compares the two on named
instance families.
"""

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dpsd
from .errors import BudgetExceeded, UnsupportedContinuousPattern
from .formulations import QcqpInstance, Qmp1Instance, Qmp2Instance, mname, pynum
from .linalg import eigensym, is_psd
from .model import LinRow, MisdpModel, eval_point, validate
from .problems import Graph, GppInstance, QapInstance

REL_TOL = 1e-7
_BISECT_SPAN = float(2**40)
_BISECT_ITERS = 60
_BISECT_TOL = 1e-9
_MAX_MINIMIZERS = 4096


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@dataclass
class EnumerationResult:
    optimum: object            # raw model-sense optimum, None when infeasible
    minimizers: list           # optimal integer assignments (full points)
    feasible_count: int
    max_residual: float
    nodes: int


def natural_optimum(model: MisdpModel, raw):
    """Undo the max->min normalization recorded by the builders."""
    if raw is None:
        return None
    if model.metadata.get("sense_original") == "max":
        return -raw
    return raw


def _frac(v):
    return v if isinstance(v, Fraction) else Fraction(v)


def _contribution_bounds(coef, dom):
    lo, hi = dom.lo, dom.hi
    if dom.kind != "continuous":
        vals = dom.iter_values()
        lo, hi = min(vals), max(vals)
    c = float(coef)
    if c >= 0:
        cmin = -math.inf if lo is None else c * float(lo)
        cmax = math.inf if hi is None else c * float(hi)
    else:
        cmin = -math.inf if hi is None else c * float(hi)
        cmax = math.inf if lo is None else c * float(lo)
    return cmin, cmax


class _ForwardChecker:
    """Window-based pruning of linear rows under prefix integer assignments."""

    def __init__(self, rows, int_names, doms):
        pos = {n: i for i, n in enumerate(int_names)}
        depth = len(int_names)
        self.rows = []
        for row in rows:
            by_depth = {}
            cont_min = cont_max = 0.0
            for name, coef in row.coeffs:
                if name in pos:
                    by_depth[pos[name]] = by_depth.get(pos[name], 0.0) + float(coef)
                else:
                    lo, hi = _contribution_bounds(coef, doms[name])
                    cont_min += lo
                    cont_max += hi
            smin = [0.0] * (depth + 1)
            smax = [0.0] * (depth + 1)
            for d in range(depth - 1, -1, -1):
                smin[d], smax[d] = smin[d + 1], smax[d + 1]
                if d in by_depth:
                    lo, hi = _contribution_bounds(by_depth[d], doms[int_names[d]])
                    smin[d] += lo
                    smax[d] += hi
            rhs = float(row.rhs)
            eps = 1e-9 * (1.0 + abs(rhs))
            self.rows.append((row.rel, rhs, eps, by_depth, smin, smax, cont_min, cont_max))
        self.touch = [[] for _ in range(depth)]
        for ridx, (_, _, _, by_depth, *_rest) in enumerate(self.rows):
            for d, c in by_depth.items():
                self.touch[d].append((ridx, c))
        self.partial = [0.0] * len(self.rows)

    def push(self, d, value):
        for ridx, c in self.touch[d]:
            self.partial[ridx] += c * value

    def pop(self, d, value):
        for ridx, c in self.touch[d]:
            self.partial[ridx] -= c * value

    def consistent(self, next_depth):
        for ridx, (rel, rhs, eps, _bd, smin, smax, cmin, cmax) in enumerate(self.rows):
            lo = self.partial[ridx] + smin[next_depth] + cmin
            hi = self.partial[ridx] + smax[next_depth] + cmax
            if rel == "==" and (lo > rhs + eps or hi < rhs - eps):
                return False
            if rel == "<=" and lo > rhs + eps:
                return False
            if rel == ">=" and hi < rhs - eps:
                return False
        return True


def _apply_gram(hint, model, assign):
    factors = hint["factors"]
    for target, i, j in hint["targets"]:
        if target not in assign:
            assign[target] = sum(assign[a] * assign[b] for a, b in zip(factors[i], factors[j]))


def _apply_cycle_distance(hint, model, assign):
    n = hint["n"]
    base = hint["base"]
    x1 = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            x1[i, j] = x1[j, i] = assign[mname(base, i, j)]
    prev = np.eye(n, dtype=np.int64)
    cur = x1
    for t, prefix in enumerate(hint["others"]):
        nxt = x1 @ cur - (2 * prev if t == 0 else prev)
        prev, cur = cur, nxt
        for i in range(n):
            for j in range(i + 1, n):
                assign.setdefault(mname(prefix, i, j), int(cur[i, j]))


def _cycle_distance_covers(hint):
    n = hint["n"]
    return [mname(p, i, j) for p in hint["others"] for i in range(n) for j in range(i + 1, n)]


def _apply_qap_schur(hint, model, assign):
    n = hint["n"]
    x = [[assign[mname(hint["x"], i, j)] for j in range(n)] for i in range(n)]
    r = [[assign[mname(hint["r"], i, j)] for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a, n):
            y = sum(x[a][t] * r[b][t] for t in range(n))
            assign.setdefault(mname(hint["y"], a, b), y)
            z = sum(r[a][t] * r[b][t] for t in range(n))
            assign.setdefault(mname(hint["z"], a, b), z)


def _apply_nuclear(hint, model, assign):
    pencil = model.pencils[hint["pencil"]]
    n, m = hint["rows"], hint["cols"]
    temp = {name: assign.get(name, 0) for name, _ in model.variables}
    block = pencil.evaluate(temp)[:n, n:n + m]
    res = eigensym(block.T @ block)
    w = np.maximum(res.eigenvalues, 0.0)
    sigma = np.sqrt(w)
    v = res.eigenvectors
    z2 = (v * sigma) @ v.T
    z1 = np.zeros((n, n))
    cutoff = 1e-12 * max(1.0, float(sigma[0]) if sigma.size else 0.0)
    for t in range(len(sigma)):
        if sigma[t] > cutoff:
            u = block @ v[:, t]
            z1 += np.outer(u, u) / sigma[t]
    for i in range(n):
        for j in range(i, n):
            assign.setdefault(mname(hint["z1"], i, j), float(z1[i, j]))
    for a in range(m):
        for b in range(a, m):
            assign.setdefault(mname(hint["z2"], a, b), float(z2[a, b]))


# Leaf-pipeline stages, in the order a leaf runs them (see solve_by_enumeration).
_LIFT, _FORCED, _PENDING = "lift", "forced", "pending"


@dataclass(frozen=True)
class _HintRule:
    """One hint rule: `apply(hint, model, assign)` runs in `stage` (None: never
    at a leaf); `covers(hint)` names the variables it determines, which the
    exact closure leaves alone; `valid_cuts(hint)` gives pruning-only rows.
    """

    stage: object = None
    apply: object = None
    covers: object = lambda hint: ()
    valid_cuts: object = lambda hint: ()


# The one list of hint rules that builders may emit in metadata["hints"].
_HINT_RULES = {
    "gram": _HintRule(_LIFT, _apply_gram, covers=lambda h: [t[0] for t in h["targets"]]),
    "cycle_distance": _HintRule(_LIFT, _apply_cycle_distance, covers=_cycle_distance_covers),
    "qap_schur": _HintRule(_FORCED, _apply_qap_schur),
    "nuclear": _HintRule(_PENDING, _apply_nuclear),
    "valid_cuts": _HintRule(valid_cuts=lambda h: [
        LinRow(tuple((nm, c) for nm, c in r["coeffs"]), r["rel"], r["rhs"]) for r in h["rows"]
    ]),
}


class _ClosureSolver:
    """Exact elimination of equality rows over a fixed set of unknowns.

    The coefficient block over the unknowns never changes between leaves, so
    the row-reduction transform is computed once; each leaf only rebuilds the
    right-hand side from the current assignment and applies the transform.
    """

    def __init__(self, rows, unknowns):
        self.active = []      # (known terms, rhs) per participating row
        sys_unknowns = []
        seen = {}
        coeff_rows = []
        for row in rows:
            if row.rel != "==":
                continue
            unk = {}
            known = []
            for name, coef in row.coeffs:
                if name in unknowns:
                    unk[name] = unk.get(name, Fraction(0)) + _frac(coef)
                else:
                    known.append((name, _frac(coef)))
            if not unk:
                continue
            for name in unk:
                if name not in seen:
                    seen[name] = len(seen)
                    sys_unknowns.append(name)
            coeff_rows.append(unk)
            self.active.append((known, _frac(row.rhs)))
        self.vars = sys_unknowns
        m, w = len(coeff_rows), len(sys_unknowns)
        a = [[Fraction(0)] * w for _ in range(m)]
        for r, unk in enumerate(coeff_rows):
            for name, c in unk.items():
                a[r][seen[name]] = c
        t = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
        rank = 0
        pivots = []
        for c in range(w):
            piv = next((r for r in range(rank, m) if a[r][c] != 0), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            t[rank], t[piv] = t[piv], t[rank]
            inv = a[rank][c]
            a[rank] = [v / inv for v in a[rank]]
            t[rank] = [v / inv for v in t[rank]]
            for r in range(m):
                if r != rank and a[r][c] != 0:
                    f = a[r][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
                    t[r] = [x - f * y for x, y in zip(t[r], t[rank])]
            pivots.append(c)
            rank += 1
        self.transform = t
        self.zero_rows = list(range(rank, m))
        # a pivot row determines its variable when it touches no free column
        self.determined = [
            (sys_unknowns[pivots[r]], r)
            for r in range(rank)
            if all(a[r][c] == 0 for c in range(w) if c != pivots[r])
        ]

    def apply(self, assign):
        if not self.active:
            return True
        b = [
            rhs - sum(c * _frac(assign[name]) for name, c in known)
            for known, rhs in self.active
        ]
        for r in self.zero_rows:
            if sum(c * v for c, v in zip(self.transform[r], b) if c != 0) != 0:
                return False
        for name, r in self.determined:
            assign[name] = sum(c * v for c, v in zip(self.transform[r], b) if c != 0)
        return True


def _corner_scalars(model):
    """Continuous vars on a single diagonal pencil entry, objective-priced."""
    appearances = {}
    for pi, pencil in enumerate(model.pencils):
        for name, matrix in pencil.terms:
            appearances.setdefault(name, []).append((pi, matrix))
    in_rows = set()
    for row in model.rows:
        for name, _ in row.coeffs:
            in_rows.add(name)
    corners = {}
    for name, dom in model.variables:
        if dom.is_integer or name in in_rows:
            continue
        apps = appearances.get(name, [])
        if len(apps) != 1:
            continue
        pi, matrix = apps[0]
        nz = np.argwhere(matrix != 0.0)
        if len(nz) == 1 and nz[0][0] == nz[0][1] and matrix[nz[0][0], nz[0][0]] > 0:
            coef = model.objective.coeffs.get(name, 0)
            corners[name] = (pi, matrix, coef)
    return corners


def _resolve_corner(model, assign, name, pi, matrix, coef, dom, sense):
    minimizing = (sense == "min" and coef > 0) or (sense == "max" and coef < 0)
    if not minimizing:
        raise UnsupportedContinuousPattern(
            f"corner scalar {name!r} is not priced toward its feasibility boundary"
        )
    temp = dict(assign)
    temp[name] = 0
    base = model.pencils[pi].evaluate(temp)
    lb = float(dom.lo) if dom.lo is not None else -float(2**20)
    hb = lb + _BISECT_SPAN

    def feasible(t):
        return is_psd(base + t * matrix, tol=_BISECT_TOL)

    if not feasible(hb):
        return False
    if feasible(lb):
        assign[name] = lb
        return True
    a, b = lb, hb
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        if feasible(mid):
            b = mid
        else:
            a = mid
    assign[name] = b
    return True


class _Plan:
    """What one solve_by_enumeration call fixes before the search starts."""

    def __init__(self, model, budget):
        defects = validate(model)
        if defects:
            raise ValueError(f"model has defects: {defects}")
        self.model = model
        self.doms = dict(model.variables)
        self.int_names = [n for n, d in model.variables if d.is_integer]
        self.cont_names = [n for n, d in model.variables if not d.is_integer]
        total = 1
        for n in self.int_names:
            total *= self.doms[n].size()
            if total > budget:
                raise BudgetExceeded(f"integer space exceeds budget {budget}")

        self.stages = {_LIFT: [], _FORCED: [], _PENDING: []}
        prune_rows = list(model.rows)
        covered = set()
        for hint in model.metadata.get("hints", []):
            try:
                rule = _HINT_RULES[hint["rule"]]
            except (KeyError, TypeError):
                raise ValueError(
                    f"unknown hint rule in {hint!r}; have {sorted(_HINT_RULES)}"
                ) from None
            if rule.stage is not None:
                self.stages[rule.stage].append((rule.apply, hint))
            prune_rows += rule.valid_cuts(hint)
            covered.update(rule.covers(hint))
        self.checker = _ForwardChecker(prune_rows, self.int_names, self.doms)
        self.closure = _ClosureSolver(model.rows, {n for n in self.cont_names if n not in covered})
        corners = _corner_scalars(model)
        self.corners = [(n, *corners[n]) for n in self.cont_names if n in corners]

    def _run(self, stage, assign):
        for apply, hint in self.stages[stage]:
            apply(hint, self.model, assign)

    def _pending(self, assign):
        return [n for n in self.cont_names if n not in assign]

    def resolve(self, assignment):
        """The leaf pipeline: complete an integer assignment, None if infeasible."""
        model = self.model
        assign = dict(assignment)
        self._run(_LIFT, assign)
        if not self.closure.apply(assign):
            return None
        self._run(_FORCED, assign)
        for name, pi, matrix, coef in self.corners:
            if name in assign:
                continue
            if not all(t in assign or t == name for t, _ in model.pencils[pi].terms):
                continue
            if not _resolve_corner(model, assign, name, pi, matrix, coef, self.doms[name],
                                   model.objective.sense):
                return None
        if self._pending(assign):
            self._run(_PENDING, assign)
            pending = self._pending(assign)
            if pending:
                raise UnsupportedContinuousPattern(
                    f"cannot resolve continuous variables {pending[:4]}"
                )
        return assign


class _Search:
    """Depth-first walk over the integer assignments of a plan, keeping the best."""

    def __init__(self, plan):
        self.plan = plan
        self.assignment = {}
        self.nodes = 0
        self.max_residual = 0.0
        self.offer, self.result = _best_tracker(plan.model.objective.sense)

    def dfs(self, d):
        self.nodes += 1
        plan = self.plan
        if d == len(plan.int_names):
            self.leaf()
            return
        name = plan.int_names[d]
        checker = plan.checker
        for v in plan.doms[name].iter_values():
            checker.push(d, v)
            if checker.consistent(d + 1):
                self.assignment[name] = v
                self.dfs(d + 1)
                del self.assignment[name]
            checker.pop(d, v)

    def leaf(self):
        assign = self.plan.resolve(self.assignment)
        if assign is None:
            return
        res = eval_point(self.plan.model, assign)
        if res.feasible:
            self.offer(res.objective, assign)
            self.max_residual = max(self.max_residual, res.max_residual)


def solve_by_enumeration(model: MisdpModel, budget: int = 10**7) -> EnumerationResult:
    """Exact optimum of a model over its integer assignments.

    Every continuous variable must fall to one of the documented elimination
    patterns, otherwise UnsupportedContinuousPattern is raised.  A hint whose
    rule is not in _HINT_RULES raises ValueError before the search starts.
    """
    search = _Search(_Plan(model, budget))
    search.dfs(0)
    best = search.result()
    return EnumerationResult(
        best.optimum, best.solutions, best.feasible_count, search.max_residual, search.nodes
    )


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    optimum: object
    solutions: list
    feasible_count: int


def _best_tracker(sense):
    state = {"best": None, "sols": [], "count": 0}

    def offer(value, sol):
        state["count"] += 1
        b = state["best"]
        if b is None or (value < b if sense == "min" else value > b):
            state["best"] = value
            state["sols"] = [sol]
        elif value == b and len(state["sols"]) < _MAX_MINIMIZERS:
            state["sols"].append(sol)

    def result():
        return OracleResult(state["best"], state["sols"], state["count"])

    return offer, result


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
    d = np.asarray(dissimilarity)
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
        cost += sum(pynum(d[i, j]) for part in packing.parts for i in part for j in part)
        offer(cost, packing)
    return result()


def _oracle_qmkp(weights, capacities, profits, revenue):
    r = np.asarray(revenue)
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
        profit += sum(
            pynum(r[i, j]) for i in chosen for j in chosen if f[i] == f[j]
        )
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
    d = np.asarray(d)
    n = d.shape[0]
    if n > 9:
        raise BudgetExceeded("tour oracle enumerates at most 8!/2 tours")
    offer, result = _best_tracker("min")
    for rest in itertools.permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue  # one orientation per tour
        tour = (0,) + rest
        cost = sum(pynum(d[tour[i], tour[(i + 1) % n]]) for i in range(n))
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
    m_mat = np.asarray(m_mat)
    b = np.asarray(b)
    n, k = m_mat.shape
    offer, result = _best_tracker("min")
    for x in itertools.product((-1, 0, 1), repeat=k):
        if sum(1 for v in x if v) > cap:
            continue
        r = m_mat @ np.array(x) - b
        val = pynum(r @ r)
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


# ---------------------------------------------------------------------------
# verification reports and suites
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    instance: str
    oracle_optimum: object
    misdp_optimum: object
    misdp_feasible: int
    oracle_feasible: int
    bijection: object      # True/False when claimed, None otherwise
    max_residual: float
    wall_ms: float
    match: bool
    seed: object = None

    def ok(self):
        return self.match and self.bijection is not False


def optima_match(oracle_opt, misdp_opt):
    if oracle_opt is None or misdp_opt is None:
        return oracle_opt is None and misdp_opt is None
    exact = all(
        isinstance(v, (int, Fraction)) and not isinstance(v, bool)
        for v in (oracle_opt, misdp_opt)
    )
    if exact:
        return oracle_opt == misdp_opt
    return abs(float(oracle_opt) - float(misdp_opt)) <= REL_TOL * max(1.0, abs(float(oracle_opt)))


def report_json(report: VerificationReport, include_timing: bool = False) -> str:
    def enc(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
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
    if include_timing:
        obj["wall_ms"] = round(report.wall_ms, 3)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_table(reports) -> str:
    head = f"{'instance':<32} {'oracle':>12} {'misdp':>12} {'#misdp':>7} {'#oracle':>8} {'bij':>5} {'ok':>4}"
    lines = [head, "-" * len(head)]
    for r in reports:
        bij = "-" if r.bijection is None else ("yes" if r.bijection else "NO")
        lines.append(
            f"{r.instance:<32} {str(r.oracle_optimum):>12} {str(r.misdp_optimum):>12} "
            f"{r.misdp_feasible:>7} {r.oracle_feasible:>8} {bij:>5} {'yes' if r.ok() else 'NO':>4}"
        )
    return "\n".join(lines)


def run_case(instance_id, model, okind, oargs, bijection_claimed=False, budget=10**7, seed=None):
    t0 = time.perf_counter()
    enum = solve_by_enumeration(model, budget=budget)
    orc = oracle(okind, *oargs)
    wall = (time.perf_counter() - t0) * 1e3
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
        wall,
        optima_match(orc.optimum, misdp_opt),
        seed,
    )


def _edge_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_mask(n, mask):
    pairs = _edge_pairs(n)
    return Graph.make(n, [pairs[t] for t in range(len(pairs)) if mask >> t & 1])


def _suite_stable_set(n, width, budget=None, seed=0):
    from .problems import build_stable_set

    for mask in range(1 << (n * (n - 1) // 2)):
        g = graph_from_mask(n, mask)
        yield run_case(f"stable-set/g{mask:0{width}d}", build_stable_set(g), "stable_set", (g,),
                       True, budget=budget or 10**7)


def _suite_mkcs(budget=None, seed=0):
    from .problems import build_mkcs

    for n in (2, 3, 4):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            for k in range(1, min(3, n) + 1):
                yield run_case(
                    f"mkcs/n{n}-g{mask}-k{k}", build_mkcs(g, k), "mkcs", (g, k), True,
                    budget=budget or 10**7,
                )


def _suite_qcqp(budget=None, seed=0):
    from .formulations import build_bsdp_qcqp

    for case in range(20):
        seed_v = 1000 + seed + case
        rng = np.random.default_rng(seed_v)
        n = 3
        q0 = rng.integers(-3, 4, (n, n))
        q0 = np.tril(q0) + np.tril(q0, -1).T
        c0 = rng.integers(-3, 4, n)
        q1 = rng.integers(0, 3, (n, n))
        q1 = np.tril(q1) + np.tril(q1, -1).T
        d1 = int(rng.integers(2, 9))
        a = rng.integers(0, 2, n)
        if not a.any():
            a[0] = 1
        xstar = rng.integers(0, 2, n)
        b = int(a @ xstar)
        inst = QcqpInstance(n, q0, c0, quads=[(q1, None, d1)], lin_eq=[(a, b)])
        for compact in (False, True):
            tag = "compact" if compact else "plain"
            yield run_case(
                f"qcqp/s{case}-{tag}",
                build_bsdp_qcqp(inst, compact=compact),
                "qcqp",
                (inst,),
                True,
                seed=seed_v,
            )


def _suite_qbpp(budget=None, seed=0):
    from .problems import build_qbpp

    for case in range(20):
        seed_v = 2000 + seed + case
        rng = np.random.default_rng(seed_v)
        n = 3
        w = [int(v) for v in rng.integers(1, 4, n)]
        cap = max(w) + int(rng.integers(0, 4))
        cost = int(rng.integers(1, 4))
        d = rng.integers(0, 4, (n, n))
        d = np.tril(d, -1) + np.tril(d, -1).T
        yield run_case(
            f"qbpp/s{case}",
            build_qbpp(w, cap, cost, d),
            "qbpp",
            (w, cap, cost, d),
            True,
            seed=seed_v,
        )


def _suite_qmkp(budget=None, seed=0):
    from .problems import build_qmkp

    for case in range(20):
        seed_v = 3000 + seed + case
        rng = np.random.default_rng(seed_v)
        n, k = 3, 2
        w = [int(v) for v in rng.integers(1, 4, n)]
        c = [int(v) for v in rng.integers(0, 5, k)]
        p = [int(v) for v in rng.integers(0, 4, n)]
        r = rng.integers(0, 3, (n, n))
        r = np.tril(r) + np.tril(r, -1).T
        yield run_case(
            f"qmkp/s{case}",
            build_qmkp(w, c, p, r),
            "qmkp",
            (w, c, p, r),
            True,
            seed=seed_v,
        )


def _suite_qap(budget=None, seed=0):
    from .problems import build_qap

    for case in range(20):
        seed_v = 4000 + seed + case
        rng = np.random.default_rng(seed_v)
        n = 3
        a = rng.integers(0, 4, (n, n))
        a = np.tril(a) + np.tril(a, -1).T
        b = rng.integers(0, 4, (n, n))
        b = np.tril(b) + np.tril(b, -1).T
        c = rng.integers(0, 4, (n, n))
        inst = QapInstance.make(a, b, c)
        yield run_case(f"qap/s{case}", build_qap(inst), "qap", (inst,), False, seed=seed_v)


def _suite_tsp(budget=None, seed=0):
    from .problems import build_tsp_cvetkovic, build_tsp_lee

    for case in range(10):
        seed_v = 5000 + seed + case
        rng = np.random.default_rng(seed_v)
        n = 5
        d = rng.integers(1, 10, (n, n))
        d = np.tril(d, -1) + np.tril(d, -1).T
        yield run_case(
            f"tsp/s{case}-cvetkovic", build_tsp_cvetkovic(d), "tsp", (d,), False,
            seed=seed_v,
        )
        yield run_case(
            f"tsp/s{case}-lee", build_tsp_lee(d), "tsp", (d,), False, seed=seed_v
        )


def _suite_gpp(budget=None, seed=0):
    from .problems import build_gpp

    for gname, g in (("K4", Graph.complete(4)), ("C4", Graph.cycle(4))):
        inst = GppInstance.make(g, 2, (2, 2))
        for variant in ("general", "equipartition", "bisection", "orthogonal"):
            yield run_case(
                f"gpp/{gname}-{variant}",
                build_gpp(inst, variant),
                "gpp",
                (inst,),
                False,
                budget=budget or 2**20,
            )


def _suite_kep(budget=None, seed=0):
    from .problems import build_gpp, build_kep_assoc

    w = np.zeros((4, 4), dtype=np.int64)
    for (u, v), val in zip(_edge_pairs(4), (1, 2, 3, 4, 5, 6)):
        w[u, v] = w[v, u] = val
    cases = [
        ("C4", Graph.cycle(4)),
        ("K4", Graph.complete(4)),
        ("K4w", Graph.make(4, _edge_pairs(4), w)),
    ]
    for gname, g in cases:
        inst = GppInstance.make(g, 2, (2, 2))
        t0 = time.perf_counter()
        gep = solve_by_enumeration(build_gpp(inst, "equipartition"), budget=budget or 10**7)
        ass = solve_by_enumeration(build_kep_assoc(inst), budget=budget or 10**7)
        orc = oracle("gpp", inst)
        wall = (time.perf_counter() - t0) * 1e3
        gep_opt, ass_opt = gep.optimum, ass.optimum
        ok = optima_match(orc.optimum, gep_opt) and optima_match(orc.optimum, ass_opt)
        yield VerificationReport(
            f"kep/{gname}",
            orc.optimum,
            gep_opt if gep_opt == ass_opt else (gep_opt, ass_opt),
            ass.feasible_count,
            gep.feasible_count,
            gep.feasible_count == ass.feasible_count,
            max(gep.max_residual, ass.max_residual),
            wall,
            ok and gep_opt == ass_opt,
        )


def _suite_sils(budget=None, seed=0):
    from .problems import build_sils

    for k in (2, 3):
        for case in range(3):
            seed_v = 6000 + 10 * k + seed + case
            rng = np.random.default_rng(seed_v)
            n = 3
            m = rng.integers(-2, 3, (n, k))
            b = rng.integers(-2, 3, n)
            for cap in (0, 1, k):
                yield run_case(
                    f"sils/k{k}-s{case}-K{cap}",
                    build_sils(m, b, cap),
                    "sils",
                    (m, b, cap),
                    False,
                    seed=seed_v,
                )


def _suite_completion(budget=None, seed=0):
    from .problems import build_matrix_completion

    base = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for mask in range(16):
        observed = {c: base[c] for t, c in enumerate(cells) if mask >> t & 1}
        yield run_case(
            f"completion/omega{mask:02d}",
            build_matrix_completion((2, 2), observed, [0, 1]),
            "completion",
            ((2, 2), observed, (0, 1)),
            True,
            budget=budget or 10**7,
        )


def _suite_cvetkovic_hamiltonicity(budget=None, seed=0):
    from .problems import build_tsp_cvetkovic

    n = 6
    d = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    t0 = time.perf_counter()
    enum = solve_by_enumeration(build_tsp_cvetkovic(d), budget=budget or 2**20)
    orc = oracle("tsp", d)
    wall = (time.perf_counter() - t0) * 1e3
    yield VerificationReport(
        "cvetkovic/n6-hamiltonicity",
        orc.optimum,
        enum.optimum,
        enum.feasible_count,
        orc.feasible_count,
        enum.feasible_count == orc.feasible_count,
        enum.max_residual,
        wall,
        optima_match(orc.optimum, enum.optimum)
        and enum.feasible_count == orc.feasible_count,
    )


SUITES = {
    "stable-set-n5": functools.partial(_suite_stable_set, 5, 4),
    "stable-set-n4": functools.partial(_suite_stable_set, 4, 2),
    "mkcs-small": _suite_mkcs,
    "qcqp-random": _suite_qcqp,
    "qbpp-random": _suite_qbpp,
    "qmkp-random": _suite_qmkp,
    "qap-random": _suite_qap,
    "tsp-small": _suite_tsp,
    "gpp-cross": _suite_gpp,
    "kep-gep-vs-assoc": _suite_kep,
    "sils-small": _suite_sils,
    "completion-2x2": _suite_completion,
    "cvetkovic-hamiltonicity": _suite_cvetkovic_hamiltonicity,
}


@dataclass
class SuiteResult:
    name: str
    reports: list
    passed: bool


def equivalence_suite(name: str, budget=None, seed=0) -> SuiteResult:
    """Run one named verification suite; passes iff every report is clean.

    `budget` raises the per-case enumeration cap; `seed` offsets the fixed
    generator seeds of the random families (defaults reproduce the canonical
    byte-identical reports).
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    reports = list(SUITES[name](budget=budget, seed=seed))
    return SuiteResult(name, reports, all(r.ok() for r in reports))
