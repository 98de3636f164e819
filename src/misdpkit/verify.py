"""Desk-scale exact verification of compiled models.

`solve_by_enumeration` walks every integer assignment of a model, pruning by
windows on the linear rows, eliminates the continuous variables, and
evaluates feasibility exactly.  The windows of a row with int/Fraction data
are decided in integers; only rows with float data get a tolerance.

A plan is compiled in two parts.  The part that the variables, pencils and
hints fix (`_Family`: the variable order and per-depth levels, the node
checks, the hint stages, the lifted targets, the variables-and-pencils half
of `validate`, the leaf check's bounds and pencils) is built once per family
of models and kept, bounded, by the model's first shared pencil, so the
1,024 models of `stable-set-n5` share one.  Within a family each row is
compiled once per content, into the int test the forward checker reads and
the form the leaf check reads; so are each objective and the closure of the
equality rows.  A model's `_Plan` only binds its rows: the forward checker
binds their tests into the per-depth step tables the search reads.  A
family also keeps, per integer assignment, what it alone fixes at a leaf:
the lift-stage values, whether they meet their bounds, and the verdicts of
the exact pencils that read nothing else (`_Family.leaves`).

Each linear row is decided once, by one owner.  The forward checker decides
a row with int/Fraction data over integer variables (their values are ints)
and the `gram` targets lifted from them (a continuous target over integer
factors that a pruning row reads is set from the depth of its last factor;
the leaf would compute the same value).  The exact closure decides the
equality rows it proves.  The leaf check decides every other row.

Interior nodes also test pencils.  On an exact integer pencil
(`MatrixPencil.integral`, every term on an integer variable)
every PSD test is exact (`linalg.is_psd_exact`).  Once the search has
assigned every variable whose term touches the leading k x k block of such a
pencil (k < order), the subtree is pruned when that block is not PSD, as
every principal block of a PSD matrix is PSD; only the largest block closing
at a depth is tested.  The integer variables are stable-sorted by the
smallest such block they enter, so bordered lifts interleave x_i with the
X_ij and blocks close early.  Leaves still run the full PSD test, so only
`nodes` and the order of the minimizers may change.

Each leaf resolves continuous variables in this order:

  1. builder hints of the "lift" stage (entries pinned by the integer part),
     whose values the family's leaf entry holds: the stage runs only when
     `_Family.leaf` makes an entry;
  2. exact linear closure over the continuous variables no hint covers: the
     equality rows are reduced once to affine maps of the known values, and
     an integral value is an int, so the later stages compute in ints where
     they can.  A value outside its bounds is rejected on its numerator: at
     the node that assigns the last slot its map reads, when the map reads
     only integer variables and lifted targets (the forward checker holds
     that window as one more exact test), and at the leaf otherwise;
  3. builder hints of the "forced" stage (blocks fixed once the closure ran);
  4. corner scalars: a variable on one diagonal entry of a single pencil and
     in no row, set to the pencil's exact Schur-complement boundary;
  5. builder hints of the "pending" stage, only while variables remain.

The completed point is then tested by `_LeafCheck`, bound once per call,
minus the bounds the closure decided and the rows that the checker or the
closure decided.  It stops at the first violation, in the order domains,
rows, pencils, and sums an objective of int/Fraction data in ints.  At a
search leaf it reads the family's entry for the bounds of the lifted
targets and for a kept pencil whose verdict some leaf already asked.
`eval_point` stays the slow reference that reports every violation; the two
agree on feasibility, objective and residual on every point the search
reaches.  The optimum keeps the type it has with every closure value a
Fraction: when the closure takes part, the first minimizer is resolved once
more with Fraction closure values, and its objective is the optimum.

`_HINT_RULES` is the one list of hint rules a model's metadata may name: each
entry gives its stage, the variables it covers, and any pruning-only rows
("valid_cuts") that every integer-feasible point satisfies.  A hint naming
any other rule raises ValueError.  `oracle` provides the brute-force
combinatorial side.  Each of the `SUITES` checks its lazily built cases one
per step under the caller's budget; `equivalence_suite` runs one by name.
"""

import functools
import itertools
import json
import math
import operator
import pickle
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config, dpsd
from .cosring import CosInt
from .errors import BudgetExceeded, UnsupportedContinuousPattern
from .formulations import QcqpInstance, Qmp1Instance, Qmp2Instance, build_bsdp_qcqp, mname, pynum
from .linalg import eigensym, eliminate
from .model import INTEGER_RANGE, LinRow, MisdpModel, Objective, _exact, row_defects, validate, widen
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

REL_TOL = 1e-7
DEFAULT_BUDGET = 10**7  # largest integer space one enumeration may walk
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


def _contribution_bounds(coef, dom, tol=None):
    """coef * v over `dom`; with `tol`, over eval_point's [lo - tol, hi + tol], exactly."""
    lo, hi = dom.lo, dom.hi
    if dom.is_integer:
        lo, hi = math.ceil(lo), math.floor(hi)
    elif tol is not None:
        lo, hi = lo if lo is None else Fraction(widen(lo, -tol)), hi if hi is None else Fraction(widen(hi, tol))
    if coef < 0:
        lo, hi = hi, lo
    return -math.inf if lo is None else coef * lo, math.inf if hi is None else coef * hi


class _ForwardChecker:
    """Window-based pruning of linear tests under prefix integer assignments.

    Each test, compiled by `_Family`, is (slot coefficients, per-depth
    checks): slots 0..depth-1 are the integer variables and the later slots
    the lifted targets, each pushed at the depth of its last input.  A check
    (depth, (smin, smax, cmin, cmax, up, down)) fails when no completion of
    the partial sum fits [down, up].  A test moves only at the depths of its
    slots, so depth d checks those that it moves (all of them at depth 0) and
    prunes the nodes a scan of every test would.

    The checker binds a model's tests into its family's `levels`: `steps`
    holds per depth (the variable, its domain values, the slot's (test,
    coefficient) list, the lifts, the depth's window checks, the node
    blocks), a lift being (target, value, the target slot's (test,
    coefficient) list) for each lifted target that some test reads (the
    others are left to the leaf).  `_Search.dfs` steps through them and
    keeps, per test, the sum of its pushed slots in `partial`.  `decided`
    holds the ids of the model rows the tests decide exactly, which no leaf
    needs to check again.
    """

    def __init__(self, tests, family, decided=frozenset()):
        touch = [[] for _ in family.slots]
        checks = [[] for _ in family.levels]
        self.partial = []
        for coefs, windows in tests:
            t = len(self.partial)
            for s, c in coefs:
                touch[s].append((t, c))
            for d, window in windows:
                checks[d].append((t, window))
            self.partial.append(0)
        lifts = [[] for _ in family.levels]
        for s, target, d, value in family.lifted:
            if touch[s]:  # a target no test reads is left to the leaf
                lifts[d].append((target, value, touch[s]))
        self.steps = [(name, values, touch[d], lifts[d], checks[d], blocks)
                      for d, (name, values, blocks) in enumerate(family.levels)]
        self.decided = decided


def _gram_entry(left, right, assign):
    return sum(assign[a] * assign[b] for a, b in zip(left, right))


def _apply_gram(hint, model, assign):
    factors = hint["factors"]
    for target, i, j in hint["targets"]:
        if target not in assign:
            assign[target] = _gram_entry(factors[i], factors[j], assign)


def _gram_lifts(hint):
    factors = hint["factors"]
    return [(target, factors[i] + factors[j], functools.partial(_gram_entry, factors[i], factors[j]))
            for target, i, j in hint["targets"]]


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
    exact closure leaves alone; `valid_cuts(hint)` gives pruning-only rows;
    `lifts(hint)` gives (target, inputs, value) for targets that `apply` sets
    to `value(assign)`, a function of the variables `inputs` alone.
    """

    stage: object = None
    apply: object = None
    covers: object = lambda hint: ()
    valid_cuts: object = lambda hint: ()
    lifts: object = lambda hint: ()


# The one list of hint rules that builders may emit in metadata["hints"].
_HINT_RULES = {
    "gram": _HintRule(_LIFT, _apply_gram, covers=lambda h: [t[0] for t in h["targets"]],
                      lifts=_gram_lifts),
    "cycle_distance": _HintRule(_LIFT, _apply_cycle_distance, covers=_cycle_distance_covers),
    "qap_schur": _HintRule(_FORCED, _apply_qap_schur),
    "nuclear": _HintRule(_PENDING, _apply_nuclear),
    "valid_cuts": _HintRule(valid_cuts=lambda h: [
        LinRow(tuple((nm, c) for nm, c in r["coeffs"]), r["rel"], r["rhs"]) for r in h["rows"]
    ]),
}


def _affine(tail, known, d):
    """b - K.y for the tail [K | b] of a reduced int row over d: (int terms on
    `known`, int constant, denominator > 0), in lowest terms."""
    g = math.gcd(d, *tail) * (1 if d > 0 else -1)
    *k, b = tail
    return [(name, -c // g) for name, c in zip(known, k) if c], b // g, d // g


def _numerator(form, assign):
    terms, const, _ = form
    for name, c in terms:
        v = assign[name]
        const += c * (v if type(v) is int else _frac(v))
    return const


def _reduce(eqs, unknowns, doms, slots=None):
    """What `_ClosureSolver` derives from its equality rows `eqs`: the
    determined unknowns with their forms, their windows, the dependent forms,
    the window tests (of the bounded windows whose forms read only `slots`),
    the windows left to a searched point, and whether every unknown is
    determined."""
    unk = list(dict.fromkeys(n for row in eqs for n, _ in row.coeffs if n in unknowns))
    known = list(dict.fromkeys(n for row in eqs for n, _ in row.coeffs if n not in unknowns))
    col = {n: i for i, n in enumerate(unk + known)}
    a = [[0] * len(col) + [_frac(row.rhs)] for row in eqs]
    for r, row in zip(a, eqs):
        for name, coef in row.coeffs:
            r[col[name]] += _frac(coef)
    scale = math.lcm(*(x.denominator for r in a for x in r))
    a = [[x.numerator * (scale // x.denominator) for x in r] for r in a]
    w = len(unk)
    pivots, d = eliminate(a, w)
    # a pivot row determines its variable when it touches no free column; a
    # pivot row over d is the reduced row of `eqs`, a later row that of scale * eqs
    determined = [(unk[p], _affine(a[r][w:], known, d)) for r, p in enumerate(pivots)
                  if all(a[r][c] == 0 for c in range(w) if c != p)]
    windows = [_window(doms[name], form[2], all(doms[n].is_integer for n, _ in form[0]))
               for name, form in determined]
    dependent = [_affine(row[w:], known, d * scale) for row in a[len(pivots):] if any(row[w:])]
    tests, searched = [], list(windows)
    for k, ((_, (terms, const, _)), (lo, hi)) in enumerate(zip(determined, windows)):
        if slots is not None and (lo != -math.inf or hi != math.inf) and all(n in slots for n, _ in terms):
            tests.append((terms, lo if lo == -math.inf else math.ceil(lo - const),
                          hi if hi == math.inf else math.floor(hi - const)))
            searched[k] = (-math.inf, math.inf)
    return determined, windows, dependent, tests, searched, len(determined) == w


class _ClosureSolver:
    """Exact elimination of equality rows over a fixed set of unknowns.

    The rows are reduced once, over [unknowns | known variables | rhs], to
    affine forms of the known values (int coefficients and constant over one
    denominator): one per dependent row, which must give 0, and one per
    determined unknown, whose bounds (widened by `lin_feas` as in
    eval_point) are a window on its numerator.  `apply` writes the value of a
    determined unknown as an int when it is integral and as a Fraction
    otherwise, or always as a Fraction with `fractions`.  When every unknown is
    determined, the rows with int/Fraction data over unknowns and integer
    variables hold at every accepted point; their ids are `proven`.

    `reduce(eqs)`, when given, stands for `_reduce` (a family's, which keeps
    its results).  There a bounded window whose form reads only the forward
    checker's slots (names whose values are ints known at the search's
    nodes) is also one of `tests`: (terms, down, up), the least and greatest
    int value of the terms' sum inside it, for the checker to decide from
    the depth of the form's last slot.  `apply(..., searched=True)`, on a
    point that passed those tests, skips their windows and only writes the
    values.
    """

    def __init__(self, rows, unknowns, doms, reduce=None):
        eqs = [row for row in rows if row.rel == "==" and any(n in unknowns for n, _ in row.coeffs)]
        reduced = reduce(eqs) if reduce else _reduce(eqs, unknowns, doms)
        self.determined, self.windows, self.dependent, self.tests, self.searched, complete = reduced
        self.proven = {id(row) for row in eqs if complete
                       and _exact(row.rhs, *(c for _, c in row.coeffs))
                       and all(n in unknowns or doms[n].is_integer for n, _ in row.coeffs)}

    def apply(self, assign, fractions=False, searched=False):
        if any(_numerator(form, assign) != 0 for form in self.dependent):
            return False
        for (name, form), (lo, hi) in zip(self.determined, self.searched if searched else self.windows):
            num = _numerator(form, assign)
            if not lo <= num <= hi:
                return False
            whole, rest = divmod(num, form[2])
            assign[name] = Fraction(num, form[2]) if rest or fractions else whole
        return True


def _window(dom, den, integral):
    """Least and greatest num with `lo - tol <= num / den <= hi + tol`, as ints when `integral`."""
    tol = config.DEFAULT.lin_feas
    lo = -math.inf if dom.lo is None else widen(dom.lo, -tol)
    hi = math.inf if dom.hi is None else widen(dom.hi, tol)
    if abs(lo) != math.inf:
        lo = math.ceil(Fraction(lo) * den) if integral else Fraction(lo) * den
    if abs(hi) != math.inf:
        hi = math.floor(Fraction(hi) * den) if integral else Fraction(hi) * den
    return lo, hi


def _resolve_corner(pencil, assign, name, i, a, coef, dom, sense):
    """Set `name` to float(t*), t* the least t >= dom.lo keeping `pencil` PSD.

    With the corner at 0 the pencil is B; let R be the other indices and
    b = B[R, i].  By the Schur complement B + t*a*e_i e_i^T is PSD iff B[R, R]
    is PSD (left to the leaf check), B[R, R] y = b is solvable (else False is
    returned) and t >= (b^T y - B[i, i]) / a.  All of it is exact: B is scaled
    to ints, and `eliminate` leaves y[p] = row[-1] / d.
    """
    if coef < 0 if sense == "min" else coef > 0:
        raise UnsupportedContinuousPattern(
            f"corner scalar {name!r} is not priced toward its feasibility boundary"
        )
    base = [[Fraction(0)] * pencil.order for _ in range(pencil.order)]
    values = [1] + [0 if term == name else assign[term] for term, _ in pencil.terms]
    for v, entries in zip(values, pencil.entries):
        if v:
            for r, c, x in entries:
                base[r][c] = base[c][r] = base[r][c] + _frac(v) * Fraction(x)
    scale = math.lcm(*(x.denominator for row in base for x in row))
    base = [[x.numerator * (scale // x.denominator) for x in row] for row in base]
    rest = [r for r in range(pencil.order) if r != i]
    rows = [[base[r][c] for c in rest] + [base[r][i]] for r in rest]
    pivots, d = eliminate(rows, len(rest))
    if any(row[-1] for row in rows[len(pivots):]):
        return False
    t = Fraction(sum(base[rest[p]][i] * row[-1] for p, row in zip(pivots, rows)) - d * base[i][i], d * scale) / a
    if dom.lo is not None and t < dom.lo:
        t = dom.lo
    assign[name] = float(t)
    return True


def _leaf_row(row):
    """A row as `_LeafCheck` reads it: (rel, names, exact, ints, coefs, rhs,
    float coefs, float rhs), with `ints` the row scaled to int coefficients
    and rhs by the lcm of its denominators when its data is int/Fraction."""
    names = [n for n, _ in row.coeffs]
    coefs = [c for _, c in row.coeffs]
    exact, ints = _exact(row.rhs, *coefs), None
    if exact:
        scale = math.lcm(row.rhs.denominator, *(c.denominator for c in coefs))
        irhs, *icoefs = [c.numerator * (scale // c.denominator) for c in (row.rhs, *coefs)]
        ints = (icoefs, irhs)
    try:
        floats = [float(c) for c in coefs], float(row.rhs)
    except OverflowError:  # exact data past the float range: only a float value, which
        floats = coefs, row.rhs  # overflows in eval_point as well, needs the float form
    return row.rel, names, exact, ints, coefs, row.rhs, *floats


def _bounds(variables):
    """(name, lo - tol, hi + tol) of each continuous variable with a bound,
    None for a missing bound, tol = `lin_feas`, as `VarDomain.contains` widens them."""
    tol = config.DEFAULT.lin_feas
    return [(name, None if d.lo is None else widen(d.lo, -tol), None if d.hi is None else widen(d.hi, tol))
            for name, d in variables if not d.is_integer and (d.lo is not None or d.hi is not None)]


def _linear_objective(objective):
    """(names, int coefficients, int constant, denominator, as Fraction): the
    objective over one denominator, or None unless every coefficient and the
    constant is an int or a Fraction.  At int values it is the numerator over
    the denominator, a Fraction exactly when some coefficient or the constant
    is one, as in `Objective.value`."""
    data = [*objective.coeffs.values(), objective.constant]
    if not all(type(v) is int or type(v) is Fraction for v in data):
        return None
    den = math.lcm(*(v.denominator for v in data))
    *coefs, const = [v.numerator * (den // v.denominator) for v in data]
    return list(objective.coeffs), coefs, const, den, any(type(v) is Fraction for v in data)


class _LeafCheck:
    """`eval_point` compiled once per model for the points the search builds.

    Calling it on a complete point gives (objective, max_residual) when
    eval_point finds the point feasible, with equal values and types, and
    None otherwise, on every point that meets the rows and bounds it skips:
    the bounds of `determined` variables (decided by the closure) and the
    rows `proven` by id (decided by the forward checker or the closure).  It
    stops at the first violation, in the order domains, rows, pencils.  Of
    the rest, only bounded continuous domains are checked: every integer
    value is drawn from its domain's iter_values(), which contains() accepts.
    Rows keep eval_point's rule: exact when the row's data and values are all
    int/Fraction (on the row scaled to ints once, when every value is an int,
    integral closure values included), floats within `lin_feas` otherwise.
    A feasible point's exact rows all have residual 0, so only float rows
    raise max_residual.  An objective of int/Fraction data is summed in ints
    at a point whose objective variables are all ints (an integer variable's
    value is drawn from its domain, so only the continuous ones are looked
    at); any other point takes `Objective.value`.

    What it reads comes from the model's `family` (without one, a one-off
    family with no hints): the bounds, the pencils, the compiled objective
    (`objective`, as `_Family.objective` gives it) and each row's `_leaf_row`
    form (`rows`, as `_Family.row` gives them, in model order).  A call may
    also pass the family's `leaf` entry for the point's integer part (the
    point then holds the entry's lift values).  The entry's bounds verdict
    then stands for the bounds of the lift-stage targets, and its verdicts
    for the family's kept pencils: a verdict not yet asked is decided here,
    at its pencil's turn, and written into the entry for the next model of
    the family.  The model's own rows, the other bounds and pencils and the
    objective are decided on every call.
    """

    def __init__(self, model, family=None, rows=None, objective=None, determined=(), proven=()):
        family = family or _Family(model.variables, model.pencils, ())
        rows = [family.row(row) for row in model.rows] if rows is None else rows
        self.tol = config.DEFAULT.lin_feas
        self.bounds = [b for b in family.bounds if b[0] not in determined]
        self.own_bounds = [b for b in family.own_bounds if b[0] not in determined]
        self.rows = [leaf for row, (_, _, leaf) in zip(model.rows, rows) if id(row) not in proven]
        self.pencils = family.leaf_pencils
        self.objective = model.objective
        self.linear, self.cont_objective = objective or family.objective(model.objective)

    def __call__(self, assign, leaf=None):
        if leaf is None:
            bounds = self.bounds
        elif not leaf[1]:
            return None
        else:
            bounds = self.own_bounds
        for name, lo, hi in bounds:
            v = assign[name]
            if (lo is not None and not v >= lo) or (hi is not None and not v <= hi):
                return None
        tol = self.tol
        max_residual = 0.0
        for rel, names, exact, ints, coefs, rhs, fcoefs, frhs in self.rows:
            vals = [assign[n] for n in names]
            if ints and all(type(v) is int for v in vals):
                gap = sum(map(operator.mul, ints[0], vals)) - ints[1]
            elif exact and _exact(*vals):
                gap = sum(c * v for c, v in zip(coefs, vals)) - rhs
            else:
                gap = sum(c * float(v) for c, v in zip(fcoefs, vals)) - frhs
                resid = abs(gap) if rel == "==" else max(gap if rel == "<=" else -gap, 0.0)
                if resid > tol:
                    return None
                max_residual = max(max_residual, resid)
                continue
            if gap > 0 if rel == "<=" else gap < 0 if rel == ">=" else gap != 0:
                return None
        for pencil, at in self.pencils:
            if leaf is None or at is None:
                psd = pencil.is_psd_at(assign)
            elif (psd := leaf[at]) is None:
                psd = leaf[at] = pencil.is_psd_at(assign)
            if not psd:
                return None
        if self.linear and (not self.cont_objective or all(type(assign[n]) is int for n in self.cont_objective)):
            names, coefs, const, den, as_fraction = self.linear
            num = sum(map(operator.mul, coefs, map(assign.__getitem__, names)), const)
            return Fraction(num, den) if as_fraction else num, max_residual
        return self.objective.value(assign), max_residual


# families one shared pencil keeps, and rows (or closures) one family keeps
# compiled; a full cache drops its oldest entry
_FAMILY_CAP = 16
_ROW_CAP = 512
# leaves one kept family keeps; a full store keeps what it holds and adds nothing
_LEAF_CAP = 4096


def _evict(cache, cap):
    if len(cache) >= cap:
        del cache[next(iter(cache))]


def _row_key(row):
    """A row's content, with the type of each number."""
    return row.rel, row.rhs, type(row.rhs), row.coeffs, tuple(type(c) for _, c in row.coeffs)


def _kept(cache, key, make, *args):
    """`make(*args)`, kept in `cache` under `key` (at most `_ROW_CAP` entries);
    with an unhashable key, made and not kept."""
    try:
        return cache[key]
    except KeyError:
        _evict(cache, _ROW_CAP)
        value = cache[key] = make(*args)
        return value
    except TypeError:
        return make(*args)


class _Family:
    """The part of a plan that a model's variables, pencils and hints fix.

    It holds the integer variables in search order, the size of their space,
    the node checks, the hint stages, the lifted targets, the corner-scalar
    candidates and the forward checker's slots: the integer variables, then
    the lifted targets, whose values are ints.  `levels` gives per depth the
    variable, its domain values (a tuple, or a range for an integer range)
    and the node blocks that close there, which each model's
    `_ForwardChecker` binds its tests into.  A family also holds whether
    `validate` finds no defect in the variables and pencils (`sound`; an
    unsound family holds nothing else), and what the leaf check reads of
    them: the bounds, with the lift-stage targets' bounds apart, and the
    pencils, each with its entry position when it is kept.

    A model's own parts are compiled once per content: `row(row)` compiles
    a linear row into (forward-checker test or None, whether the test
    decides it, `_leaf_row` form), or None when `validate` finds the row
    defective; `objective(objective)` compiles an objective; `reduce(eqs)`
    reduces the closure's equality rows; `test` compiles a window on a sum
    over slots.  Each cache is bounded (`_ROW_CAP`).  `_family` shares one
    family among the models that agree on variables, pencils and hints, so
    the models of one shape set it up once, and a model's `_Plan` only binds
    its own rows to it.

    It also keeps what it alone fixes at a leaf, in `leaves`: keyed by the
    tuple of the integer values in search order, at most `leaf_cap` entries
    (`_LEAF_CAP` for a family that `_family` keeps, 0 for a one-off family,
    whose one search meets each leaf once), each a short list [the values
    the lift-stage hints set, in `lift_names` order; whether they meet their
    variables' bounds; one verdict per pencil in `kept_pencils`, None until
    a leaf check asks it].  A pencil is kept when it is `exact` and reads
    only integer variables and lift names, so its verdict is the same for
    every model of the family.  What a model's rows fix stays with its
    `_Plan`: which rows the checker or the closure decides, the closure's
    values, its corner scalars and the later hint stages.
    """

    def __init__(self, variables, pencils, hints, leaf_cap=0):
        self.pencils = list(pencils)
        # what `validate` finds with no objective and no rows
        self.sound = not validate(MisdpModel(variables, Objective("min", {}), pencils=self.pencils))
        if not self.sound:
            return
        self.doms = doms = dict(variables)
        self.int_names = [n for n, d in variables if d.is_integer]
        self.cont_names = [n for n, d in variables if not d.is_integer]
        self.space = math.prod(doms[n].size() for n in self.int_names)
        ints = set(self.int_names)  # integer domains hold ints
        exact = [p for p in pencils if p.integral and all(n in ints for n, _ in p.terms)]
        # per variable, the smallest leading block of an exact pencil that it enters
        first = {}
        for p in exact:
            for name, triples in p.terms:
                k = min((c + 1 for _, c, _ in triples), default=math.inf)
                first[name] = min(first.get(name, k), k)
        self.int_names.sort(key=lambda n: first.get(n, math.inf))
        pos = {n: d for d, n in enumerate(self.int_names)}
        self.node_checks = [[] for _ in self.int_names]
        for p in exact:  # per depth, the largest leading block whose variables it completes
            closing = {max(pos[n] for n, _ in block.terms): block for block in p.leading_blocks()}
            for depth, block in closing.items():
                self.node_checks[depth].append(block)

        self.stages = {_LIFT: [], _FORCED: [], _PENDING: []}
        cuts, covered, lifted = [], set(), []  # lifted: (target, depth, value), known from that depth
        lift_names = {}  # what the lift stage writes, in the order it writes it
        for hint in hints:
            try:
                rule = _HINT_RULES[hint["rule"]]
            except (KeyError, TypeError):
                raise ValueError(
                    f"unknown hint rule in {hint!r}; have {sorted(_HINT_RULES)}"
                ) from None
            if rule.stage is not None:
                self.stages[rule.stage].append((rule.apply, hint))
            if rule.stage == _LIFT:
                lift_names.update((n, None) for n in rule.covers(hint) if n not in pos)
            cuts += rule.valid_cuts(hint)
            for target, inputs, value in rule.lifts(hint):
                if target not in covered and target not in pos and inputs and all(n in pos for n in inputs):
                    lifted.append((target, max(pos[n] for n in inputs), value))
                    ints.add(target)  # a sum of products of ints
                covered.add(target)
            covered.update(rule.covers(hint))
        self.ints = ints
        self.bounds = _bounds(variables)
        self.unknowns = {n for n in self.cont_names if n not in covered}
        self.slots = [*self.int_names, *(t for t, _, _ in lifted)]
        self.slot = {n: s for s, n in enumerate(self.slots)}
        self.at = [*range(len(self.int_names)), *(d for _, d, _ in lifted)]
        self.lifted = [(s, target, d, value) for s, (target, d, value) in enumerate(lifted, len(self.int_names))]
        self.rows, self.reduced = {}, {}
        if defects := [d for k, cut in enumerate(cuts) for d in row_defects(k, cut, doms)]:
            raise ValueError(f"valid_cuts hint has defects: {defects}")
        self.cuts = [test for test, _, _ in map(self.row, cuts) if test]

        self.lift_names = tuple(lift_names)
        known = {*pos, *lift_names}
        self.lift_bounds = [(self.lift_names.index(name), lo, hi) for name, lo, hi in self.bounds if name in lift_names]
        kept = [k for k, p in enumerate(pencils) if p.exact and all(n in known for n, _ in p.terms)]
        self.kept_pencils = {k: at for at, k in enumerate(kept, 2)}  # pencil index -> entry position
        self.key = operator.itemgetter(*self.int_names) if self.int_names else lambda assignment: ()
        self.leaves, self.leaf_cap = {}, leaf_cap
        # each depth's values as iter_values() gives them, an integer range as a range (no tuple of them is kept)
        self.levels = [(n, range(math.ceil(doms[n].lo), math.floor(doms[n].hi) + 1) if doms[n].kind == INTEGER_RANGE
                        else doms[n].iter_values(), checks) for n, checks in zip(self.int_names, self.node_checks)]
        self.own_bounds = [b for b in self.bounds if b[0] not in lift_names]
        self.leaf_pencils = [(pencil, self.kept_pencils.get(k)) for k, pencil in enumerate(pencils)]
        self.objectives = {}

        # corner-scalar candidates: continuous variables on one positive
        # diagonal entry of a single pencil, as (name, pencil index, entry,
        # value as a Fraction, or None on a pencil with CosInt entries)
        appearances = {}
        for k, pencil in enumerate(pencils):
            for name, entries in pencil.terms:
                appearances.setdefault(name, []).append((k, entries))
        self.corners = []
        for name in self.cont_names:
            if len(apps := appearances.get(name, [])) == 1 and len(apps[0][1]) == 1:
                k, ((i, c, x),) = apps[0]
                if i == c and x > 0:
                    ring = any(type(v) is CosInt for triples in pencils[k].entries for _, _, v in triples)
                    self.corners.append((name, k, i, None if ring else Fraction(x)))

    def leaf(self, model, assignment):
        """The `leaves` entry of an integer assignment (a search node's
        assignment at full depth), made on a miss by running the lift stage
        on the integer values alone; past `leaf_cap`, made and not kept."""
        key = self.key(assignment)
        entry = self.leaves.get(key)
        if entry is None:
            assign = {n: assignment[n] for n in self.int_names}
            for apply, hint in self.stages[_LIFT]:
                apply(hint, model, assign)
            values = tuple(assign[n] for n in self.lift_names)
            ok = all((lo is None or values[k] >= lo) and (hi is None or values[k] <= hi)
                     for k, lo, hi in self.lift_bounds)
            entry = [values, ok, *(None for _ in self.kept_pencils)]
            if len(self.leaves) < self.leaf_cap:
                self.leaves[key] = entry
        return entry

    def row(self, row):
        """(test, decided, leaf) of a linear row, compiled once per content."""
        return _kept(self.rows, _row_key(row), self._compile, row)

    def objective(self, objective):
        """(`_linear_objective`, the objective variables whose values may not
        be ints) of an objective, once per content; None when it names a
        variable the family does not have."""
        coeffs, const = objective.coeffs, objective.constant
        key = tuple(coeffs.items()), tuple(map(type, coeffs.values())), const, type(const)
        return _kept(self.objectives, key, self._objective, objective)

    def _objective(self, objective):
        doms = self.doms
        if any(name not in doms for name in objective.coeffs):
            return None
        return _linear_objective(objective), [n for n in objective.coeffs if not doms[n].is_integer]

    def reduce(self, eqs):
        """`_reduce` of equality rows over the family's unknowns, once per
        content; with integer variables, windows over slots go to the nodes."""
        slots = self.slot if self.int_names else None
        return _kept(self.reduced, tuple(map(_row_key, eqs)), _reduce, eqs, self.unknowns, self.doms, slots)

    def _compile(self, row):
        """A row with int/Fraction data and int, Fraction or finite float bounds
        is scaled to ints by the lcm of its denominators, with the range that
        eval_point accepts of its continuous part folded into int thresholds.
        Only rows with float data get eps = 1e-9 (1 + |rhs|).  A row that
        never prunes gets no test.  An exact row over `ints` alone is decided
        exactly at its last slot."""
        doms, slot = self.doms, self.slot
        if row_defects(0, row, doms):
            return None
        leaf = rel, names, exact, ints, _, rhs, fcoefs, frhs = _leaf_row(row)
        bounds = [b for n in names if not doms[n].is_integer for b in (doms[n].lo, doms[n].hi) if b is not None]
        if exact := exact and all(_exact(b) or type(b) is float and math.isfinite(b) for b in bounds):
            (coefs, rhs), eps = ints, 0
        else:
            coefs, rhs, eps = fcoefs, frhs, 1e-9 * (1.0 + abs(frhs))
        terms, cmin, cmax = [], 0, 0
        for name, coef in zip(names, coefs):
            if name in slot:
                terms.append((name, coef))
            else:
                lo, hi = _contribution_bounds(coef, doms[name], config.DEFAULT.lin_feas if exact else None)
                cmin, cmax = cmin + lo, cmax + hi
        up = rhs + eps if rel != ">=" and cmin != -math.inf else None
        down = rhs - eps if rel != "<=" and cmax != math.inf else None
        if exact:  # the integer part's sums are ints: move the rest to the thresholds
            up = None if up is None else math.floor(up - cmin)
            down = None if down is None else math.ceil(down - cmax)
            cmin = cmax = 0
        if up is None and down is None:
            return None, False, leaf
        test = self.test(terms, -math.inf if down is None else down, math.inf if up is None else up, cmin, cmax)
        return test, exact and all(n in self.ints for n in names), leaf

    def test(self, terms, down, up, cmin=0, cmax=0):
        """The forward-checker test that the sum of (slot name, coefficient)
        `terms`, plus a continuous part in [cmin, cmax], lies in [down, up]:
        (slot coefficients, checks at depth 0 and at each depth that pushes
        one of its slots)."""
        by_slot = {}
        for name, c in terms:
            by_slot[self.slot[name]] = by_slot.get(self.slot[name], 0) + c
        depth = len(self.int_names)
        smin, smax = [0] * (depth + 1), [0] * (depth + 1)
        for s, c in by_slot.items():
            lo, hi = _contribution_bounds(c, self.doms[self.slots[s]])
            smin[self.at[s]] += lo
            smax[self.at[s]] += hi
        for d in range(depth - 1, -1, -1):
            smin[d] += smin[d + 1]
            smax[d] += smax[d + 1]
        checks = [(d, (smin[d + 1], smax[d + 1], cmin, cmax, up, down))
                  for d in ({0, *(self.at[s] for s in by_slot)} if depth else ())]
        return list(by_slot.items()), checks


def _family(model):
    """The model's `_Family`.  A shared pencil (`formulations.shared_pencil`)
    first in the model keeps the families of its models, bounded, keyed by the
    variables (with their bounds' number types) and the pickled hints, and
    used for a model whose pencils are the family's, object for object."""
    hints = model.metadata.get("hints", [])
    store = model.pencils[0]._families if model.pencils else None
    if store is None:
        return _Family(model.variables, model.pencils, hints)
    try:
        key = (tuple((n, d.kind, d.lo, type(d.lo), d.hi, type(d.hi), d.values) for n, d in model.variables),
               pickle.dumps(hints))
        family = store.get(key)
    except (TypeError, AttributeError, pickle.PicklingError):  # variables or hints with no content key
        return _Family(model.variables, model.pencils, hints)
    if family is None or list(map(id, family.pencils)) != list(map(id, model.pencils)):
        family = _Family(model.variables, model.pencils, hints, _LEAF_CAP)
        store.pop(key, None)
        _evict(store, _FAMILY_CAP)
        store[key] = family
    return family


class _Plan:
    """What one solve_by_enumeration call fixes before the search starts:
    its model's `_Family`, and the model's rows bound to it.  The family
    compiles each row and the objective once per content, and a model whose
    rows, objective, variables or pencils `validate` finds defective raises
    ValueError with `validate`'s list.  The plan keeps which rows the forward
    checker and the closure decide, the checker with its step tables, the
    closure, the corners and the leaf check.  A corner scalar on a pencil
    with CosInt entries raises UnsupportedContinuousPattern: its boundary is
    computed over the rationals."""

    def __init__(self, model, budget):
        family = _family(model)
        compiled = [family.row(row) for row in model.rows] if family.sound else [None]
        objective = family.objective(model.objective) if family.sound else None
        if objective is None or None in compiled:
            raise ValueError(f"model has defects: {validate(model)}")
        if family.space > budget:
            raise BudgetExceeded(f"integer space exceeds budget {budget}")
        self.model, self.family = model, family
        self.doms, self.int_names, self.cont_names = family.doms, family.int_names, family.cont_names
        self.node_checks, self.stages = family.node_checks, family.stages
        self.closure = _ClosureSolver(model.rows, family.unknowns, self.doms, family.reduce)
        self.closes = bool(self.closure.determined or self.closure.dependent)
        # with no integer variable the search tests no node, so no test decides a row
        decided = {id(row) for row, (_, dec, _) in zip(model.rows, compiled) if dec} if self.int_names else set()
        tests = [test for test, _, _ in compiled if test] + family.cuts
        tests += [family.test(*window) for window in self.closure.tests]
        self.checker = _ForwardChecker(tests, family, decided)
        in_rows = {name for row in model.rows for name, _ in row.coeffs} if family.corners else ()
        self.corners = [(name, model.pencils[k], i, a, model.objective.coeffs.get(name, 0))
                        for name, k, i, a in family.corners if name not in in_rows]
        for name, _, _, a, _ in self.corners:
            if a is None:
                raise UnsupportedContinuousPattern(
                    f"corner scalar {name!r} sits on a pencil with entries in Z[2cos(2pi/n)]"
                )
        self.check = _LeafCheck(model, family, compiled, objective, {name for name, _ in self.closure.determined},
                                self.closure.proven | decided)

    def resolve(self, assignment, fractions=False, searched=False, leaf=None):
        """The leaf pipeline: complete an integer assignment, None if infeasible.
        With `fractions` every closure value is a Fraction, also an integral one.
        `searched` says the assignment passed every forward-checker test, so
        the closure skips the windows those tests decided.  The lift stage's
        values come from `leaf`, the family's entry for the assignment, which
        is looked up when not given."""
        model = self.model
        if leaf is None:
            leaf = self.family.leaf(model, assignment)
        assign = dict(assignment)
        assign.update(zip(self.family.lift_names, leaf[0]))
        if self.closes and not self.closure.apply(assign, fractions, searched):
            return None
        for apply, hint in self.stages[_FORCED]:
            apply(hint, model, assign)
        for name, pencil, i, a, coef in self.corners:
            if name in assign or not all(t in assign or t == name for t, _ in pencil.terms):
                continue
            if not _resolve_corner(pencil, assign, name, i, a, coef, self.doms[name],
                                   model.objective.sense):
                return None
        if len(assign) < len(self.doms):
            for apply, hint in self.stages[_PENDING]:
                apply(hint, model, assign)
            if pending := [n for n in self.cont_names if n not in assign]:
                raise UnsupportedContinuousPattern(
                    f"cannot resolve continuous variables {pending[:4]}"
                )
        return assign


class _Search:
    """Depth-first walk over the integer assignments of a plan, keeping the
    best.  Each depth reads its step table (`_ForwardChecker.steps`)."""

    def __init__(self, plan):
        self.plan = plan
        self.steps, self.partial = plan.checker.steps, plan.checker.partial
        self.assignment = {}
        self.nodes = 0
        self.max_residual = 0.0
        self.offer, self.result = _best_tracker(plan.model.objective.sense)

    def dfs(self, d):
        """Visit the node at depth d: each value, and the targets lifted with
        it, moves the partial sums, and its subtree is entered when the
        depth's window checks and node blocks pass (a zero moves no sum)."""
        self.nodes += 1
        if d == len(self.steps):
            self.leaf()
            return
        name, values, touch, lifts, checks, blocks = self.steps[d]
        assignment, partial = self.assignment, self.partial
        for v in values:
            if v:
                for t, c in touch:
                    partial[t] += c * v
            assignment[name] = v
            for target, value, moved in lifts:
                assignment[target] = x = value(assignment)
                if x:
                    for t, c in moved:
                        partial[t] += c * x
            for t, (smin, smax, cmin, cmax, up, down) in checks:
                s = partial[t]
                if s + smin + cmin > up or s + smax + cmax < down:
                    break
            else:
                if not blocks or all(b.is_psd_at(assignment) for b in blocks):
                    self.dfs(d + 1)
            for target, _, moved in lifts:
                if x := assignment.pop(target):
                    for t, c in moved:
                        partial[t] -= c * x
            if v:
                for t, c in touch:
                    partial[t] -= c * v
        del assignment[name]

    def leaf(self):
        plan = self.plan
        leaf = plan.family.leaf(plan.model, self.assignment)
        assign = plan.resolve(self.assignment, searched=True, leaf=leaf)
        if assign is None:
            return
        res = plan.check(assign, leaf)
        if res is not None:
            objective, residual = res
            self.offer(objective, assign)
            self.max_residual = max(self.max_residual, residual)


def solve_by_enumeration(model: MisdpModel, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """Exact optimum of a model over its integer assignments.

    Every continuous variable must fall to one of the documented elimination
    patterns, otherwise UnsupportedContinuousPattern is raised.  A hint whose
    rule is not in _HINT_RULES raises ValueError before the search starts.
    """
    plan = _Plan(model, budget)
    search = _Search(plan)
    search.dfs(0)
    best = search.result()
    optimum = best.optimum
    if plan.closes and best.solutions:
        # the optimum keeps the type it has with every closure value a Fraction
        first = {n: best.solutions[0][n] for n in plan.int_names}
        optimum = model.objective.value(plan.resolve(first, fractions=True))
    return EnumerationResult(
        optimum, best.solutions, best.feasible_count, search.max_residual, search.nodes
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
