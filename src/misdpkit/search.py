"""Exact enumeration of a compiled model's integer assignments.

`solve_by_enumeration` walks every integer assignment of a model, pruning by
windows on the linear rows, eliminates the continuous variables, and
evaluates feasibility exactly.  The windows of a row with int/Fraction data
are decided in integers; only rows with float data get a tolerance.

A plan is compiled in two parts.  What the variables, pencils and hints fix
(`_Family`) is built once per family of models and kept, bounded, in
`_FAMILIES`, so the 1,024 models of `stable-set-n5`, which hold one shared
pencil, share one.  It compiles each row, and the closure of the equality
rows, once per content, and keeps per integer assignment what it alone fixes
at a leaf (`_Family.leaves`).  A model's `_Plan` binds only its rows:
`_Family.bind` binds their tests into the per-depth step tables that
`_Plan.dfs` walks.

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

Each leaf goes through these steps; from step 1 on they resolve its
continuous variables.  What each step sets is decided once per model, before
the search, and a model that the steps cannot complete raises
UnsupportedContinuousPattern then, whatever the family's leaf store holds:

  0. the verdicts its integer part alone decides, held in the family's leaf
     entry (made on a miss with step 1's values): a leaf whose lift values
     break their bounds, or that a kept pencil's stored verdict refuses, is
     rejected here, uncompleted; a verdict not yet asked is left to the leaf
     check;
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
  4. corner scalars, in order: a variable in no row on one diagonal entry of a
     single pencil whose other terms are set, at the exact Schur boundary.

The completed point is then tested by `_LeafCheck`, minus the bounds and
rows already decided.  `eval_point` stays the slow reference that reports
every violation; the two agree on feasibility, objective and residual on
every point the search reaches.  The optimum keeps the type it has with
every closure value a Fraction: when the closure takes part, the first
minimizer is resolved once more with Fraction closure values, and its
objective is the optimum.

The hint rules that a model's metadata may name, and their stages, are in `hints`.
"""

import math
import operator
import pickle
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .cosring import CosInt
from .errors import BudgetExceeded, UnsupportedContinuousPattern
from .hints import _FORCED, _HINT_RULES, _LIFT
from .linalg import eliminate
from .model import INTEGER_RANGE, MisdpModel, Objective, _exact, objective_defects, row_defects, validate, widen

DEFAULT_BUDGET = 10**7  # largest integer space one enumeration may walk
_MAX_MINIMIZERS = 4096


@dataclass
class EnumerationResult:
    optimum: object            # raw model-sense optimum, None when infeasible
    minimizers: list           # optimal integer assignments (full points)
    feasible_count: int
    max_residual: float
    nodes: int


@dataclass
class OracleResult:
    optimum: object
    solutions: list
    feasible_count: int


def _best_tracker(sense):
    better = operator.lt if sense == "min" else operator.gt
    best, sols, count = None, [], 0

    def offer(value, sol):
        nonlocal best, sols, count
        count += 1
        if best is None or better(value, best):
            best, sols = value, [sol]
        elif value == best and len(sols) < _MAX_MINIMIZERS:
            sols.append(sol)

    return offer, lambda: OracleResult(best, sols, count)


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


def _fold(bound, rest, cont, rnd):
    """`bound - rest - cont`, the threshold of s in `s + rest + cont` against `bound`; infinite when a term is
    (no inf - inf, no huge int made a float). `rnd` (floor or ceil, for int sums) rounds the exact difference."""
    for part in (-bound, rest, cont):
        if abs(part) == math.inf:
            return -part
    terms = (Fraction(x) if type(x) is float else x for x in (bound, -rest, -cont))  # a float term taken exactly
    return rnd(sum(terms)) if rnd else bound - rest - cont


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


def _resolve_corner(pencil, assign, name, i, a, dom):
    """Set `name` to float(t*), t* the least t >= dom.lo keeping `pencil` PSD.

    With the corner at 0 the pencil is B; let R be the other indices and
    b = B[R, i].  By the Schur complement B + t*a*e_i e_i^T is PSD iff B[R, R]
    is PSD (left to the leaf check), B[R, R] y = b is solvable (else False is
    returned) and t >= (b^T y - B[i, i]) / a.  All of it is exact: B is scaled
    to ints, and `eliminate` leaves y[p] = row[-1] / d.
    """
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
    """A row as `_LeafCheck` reads it: (rel, names, ints, float coefs, float
    rhs), with `ints` the row scaled to int coefficients and rhs by the lcm
    of its denominators when its data is int/Fraction, None otherwise."""
    names = [n for n, _ in row.coeffs]
    coefs = [c for _, c in row.coeffs]
    ints = None
    if _exact(row.rhs, *coefs):
        scale = math.lcm(row.rhs.denominator, *(c.denominator for c in coefs))
        irhs, *icoefs = [c.numerator * (scale // c.denominator) for c in (row.rhs, *coefs)]
        ints = icoefs, irhs
    try:
        floats = [float(c) for c in coefs], float(row.rhs)
    except OverflowError:  # exact data past the float range: only a float value, which
        floats = coefs, row.rhs  # overflows in eval_point as well, needs the float form
    return row.rel, names, ints, *floats


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
    types, den = set(map(type, data)), 1
    if not types <= {int, Fraction}:
        return None
    if Fraction in types:
        den = math.lcm(*(v.denominator for v in data))
        data = [v.numerator * (den // v.denominator) for v in data]
    *coefs, const = data
    return list(objective.coeffs), coefs, const, den, Fraction in types


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
    int/Fraction, on the row scaled to ints once (the scale is a positive
    lcm, so the sign of each gap is kept), floats within `lin_feas` otherwise.
    A feasible point's exact rows all have residual 0, so only float rows
    raise max_residual.  An objective of int/Fraction data is summed in ints
    at a point whose objective variables are all ints (an integer variable's
    value is drawn from its domain, so only the continuous ones are looked
    at); any other point takes `Objective.value`.

    What it reads comes from the model's `family` (without one, a new
    family with no hints): the bounds, the pencils, the compiled objective
    (`objective`, as `_Family.objective` gives it) and each row's `_leaf_row`
    form (`rows`, as `_Family.row` gives them, in model order).  A call may
    also pass the family's `leaf` entry for the point's integer part (the
    point then holds the entry's lift values).  The entry's bounds verdict
    then stands for the bounds of the lift-stage targets, and its verdicts
    for the family's kept pencils: a verdict not yet asked is decided here,
    at its pencil's turn, and written into the entry for the next model of
    the family.  The model's own rows, the other bounds and pencils and the
    objective are decided on every call.  The search (`_Plan.leaf`) rejects
    a leaf whose entry already refuses it before completing the point, so
    from the search only an entry with a passing bounds verdict and no
    stored refusal reaches this check.
    """

    def __init__(self, model, family=None, rows=None, objective=None, determined=(), proven=()):
        family = family or _Family(model.variables, model.pencils, [])
        rows = [family.row(row) for row in model.rows] if rows is None else rows
        self.tol = config.DEFAULT.lin_feas
        self.bounds = [b for b in family.bounds if b[0] not in determined]
        self.own_bounds = [b for b in family.own_bounds if b[0] not in determined]
        self.rows = [leaf for row, (_, _, leaf) in zip(model.rows, rows) if id(row) not in proven]
        self.pencils = family.leaf_pencils
        self.objective = model.objective
        self.linear, self.cont_objective = objective or family.objective(model.objective)

    def __call__(self, assign, leaf=None):
        if leaf is not None and not leaf[1]:
            return None
        for name, lo, hi in self.bounds if leaf is None else self.own_bounds:
            v = assign[name]
            if (lo is not None and not v >= lo) or (hi is not None and not v <= hi):
                return None
        tol, max_residual = self.tol, 0.0
        for rel, names, ints, fcoefs, frhs in self.rows:
            vals = [assign[n] for n in names]
            # the type test first: it is cheaper than `_exact` and passes most leaves
            if ints and (all(type(v) is int for v in vals) or _exact(*vals)):
                gap = sum(map(operator.mul, ints[0], vals)) - ints[1]
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


# families `_FAMILIES` keeps (a `verify --suite all` run makes 39), and rows
# (or closures) one family keeps compiled; a full cache drops its oldest entry
_FAMILY_CAP = 64
_ROW_CAP = 512
_FAMILIES = {}
# leaves one family keeps; a full store keeps what it holds and adds nothing
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
    and the node blocks that close there.  A family also holds whether
    `validate` finds no defect in the variables and pencils (`sound`; an
    unsound family holds nothing else), and what the leaf check reads of
    them: the bounds, with the lift-stage targets' bounds apart, and the
    pencils, each with its entry position when it is kept.

    `row(row)` compiles a linear row into (forward-checker test or None,
    whether the test decides it, `_leaf_row` form), or None when `validate`
    finds the row defective, and `reduce(eqs)` reduces the closure's
    equality rows, each once per content (at most `_ROW_CAP`);
    `objective(objective)` compiles an objective, `test` a window on a sum
    over slots, and `bind(tests)` a model's tests into step tables over
    `levels`.  A hint that is not a dict, names no rule of `_HINT_RULES`,
    lacks one of its rule's `fields`, or names a variable or reads a pencil
    the model does not have raises ValueError.

    It also keeps what it alone fixes at a leaf, in `leaves`: keyed by the
    tuple of the integer values in search order, at most `_LEAF_CAP`
    entries, each a short list [the values the lift-stage hints set, in
    `lift_names` order; whether they meet their variables' bounds; one
    verdict per pencil in `kept_pencils`, None until a leaf check asks
    it].  A pencil is kept when it is `exact` and reads
    only integer variables and lift names, so its verdict is the same for
    every model of the family.  An entry's bounds verdict is written when the
    entry is made and its pencil verdicts by the leaf check; `_Plan.leaf`
    reads both before it completes a point, and a leaf that either refuses
    is never completed.  What a model's rows fix stays with its
    `_Plan`: which rows the checker or the closure decides, the closure's
    values, which corners it uses and whether a leaf can be completed.
    """

    def __init__(self, variables, pencils, hints):
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

        self.stages = {_LIFT: [], _FORCED: []}
        cuts, covered, lifted = [], set(), []  # lifted: (target, depth, value), known from that depth
        lift_names = {}  # what the lift stage writes, in the order it writes it
        if not isinstance(hints, list):
            raise ValueError(f"hints must be a list, not {hints!r}")
        for hint in hints:
            if not isinstance(hint, dict):
                raise ValueError(f"hint {hint!r} is not a dict")
            try:
                rule = _HINT_RULES[hint["rule"]]
            except (KeyError, TypeError):
                raise ValueError(
                    f"unknown hint rule in {hint!r}; have {sorted(_HINT_RULES)}"
                ) from None
            if missing := [field for field in rule.fields if field not in hint]:
                raise ValueError(f"hint {hint!r} has no field {missing[0]!r}")
            try:
                covers, lifts, hint_cuts = rule.covers(hint), rule.lifts(hint), rule.valid_cuts(hint)
            except (TypeError, KeyError, IndexError) as exc:
                raise ValueError(f"hint {hint!r} cannot be read: {type(exc).__name__}: {exc}") from None
            if stray := [n for n in [*covers, *(x for _, inputs, _ in lifts for x in inputs)] if n not in doms]:
                raise ValueError(f"hint {hint!r} names {stray[0]!r}, which is not a variable")
            if stray := [k for k in rule.pencils(hint) if type(k) is not int or not 0 <= k < len(pencils)]:
                raise ValueError(f"hint {hint!r} reads pencil {stray[0]!r}, which the model does not have")
            if rule.stage is not None:
                self.stages[rule.stage].append((rule.apply, hint))
            if rule.stage == _LIFT:
                lift_names.update((n, None) for n in covers if n not in pos)
            cuts += hint_cuts
            for target, inputs, value in lifts:
                if target not in covered and target not in pos and inputs and all(n in pos for n in inputs):
                    lifted.append((target, max(pos[n] for n in inputs), value))
                    ints.add(target)  # a sum of products of ints
                covered.add(target)
            covered.update(covers)
        self.ints = ints
        self.bounds = _bounds(variables)
        # what a leaf does not know after the lift and forced stages
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
        self.leaves = {}
        # each depth's values as iter_values() gives them, an integer range as a range (no tuple of them is kept)
        self.levels = [(n, range(math.ceil(doms[n].lo), math.floor(doms[n].hi) + 1) if doms[n].kind == INTEGER_RANGE
                        else doms[n].iter_values(), checks) for n, checks in zip(self.int_names, self.node_checks)]
        self.own_bounds = [b for b in self.bounds if b[0] not in lift_names]
        self.leaf_pencils = [(pencil, self.kept_pencils.get(k)) for k, pencil in enumerate(pencils)]

        # corner-scalar candidates: continuous variables no hint covers on one
        # positive diagonal entry of a single pencil, as (name, pencil index,
        # entry, value as a Fraction, or None on a pencil with CosInt entries)
        appearances = {}
        for k, pencil in enumerate(pencils):
            for name, entries in pencil.terms:
                appearances.setdefault(name, []).append((k, entries))
        self.corners = []
        for name in self.cont_names:
            if name in self.unknowns and len(apps := appearances.get(name, [])) == 1 and len(apps[0][1]) == 1:
                k, ((i, c, x),) = apps[0]
                if i == c and x > 0:
                    ring = any(type(v) is CosInt for triples in pencils[k].entries for _, _, v in triples)
                    self.corners.append((name, k, i, None if ring else Fraction(x)))

    def leaf(self, model, assignment):
        """The `leaves` entry of an integer assignment (a search node's
        assignment at full depth), made on a miss by running the lift stage
        on the integer values alone; past `_LEAF_CAP`, made and not kept."""
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
            if len(self.leaves) < _LEAF_CAP:
                self.leaves[key] = entry
        return entry

    def row(self, row):
        """(test, decided, leaf) of a linear row, compiled once per content."""
        return _kept(self.rows, _row_key(row), self._compile, row)

    def objective(self, objective):
        """(`_linear_objective`, the objective variables whose values may not
        be ints) of an objective; None when `validate` finds it defective."""
        doms = self.doms
        if objective_defects(objective, doms):
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
        leaf = rel, names, ints, fcoefs, frhs = _leaf_row(row)
        bounds = [b for n in names if not doms[n].is_integer for b in (doms[n].lo, doms[n].hi) if b is not None]
        if exact := ints is not None and all(_exact(b) or type(b) is float and math.isfinite(b) for b in bounds):
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
        if up is None and down is None:
            return None, False, leaf
        test = self.test(terms, -math.inf if down is None else down, math.inf if up is None else up, cmin, cmax)
        return test, exact and all(n in self.ints for n in names), leaf

    def test(self, terms, down, up, cmin=0, cmax=0):
        """The forward-checker test that the sum of (slot name, coefficient)
        `terms`, plus a continuous part in [cmin, cmax], lies in [down, up]:
        (slot coefficients, checks at depth 0 and at each depth that pushes
        one of its slots).  A check is folded once (`_fold`) into the window
        (lo, hi) = (down - smax - cmax, up - smin - cmin) of the partial sum
        there, smin and smax the range of the slots pushed later; int coefficients give int sums and int thresholds."""
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
        ceil, floor = (math.ceil, math.floor) if all(type(c) is int for c in by_slot.values()) else (None, None)
        checks = [(d, (_fold(down, smax[d + 1], cmax, ceil), _fold(up, smin[d + 1], cmin, floor)))
                  for d in ({0, *(self.at[s] for s in by_slot)} if depth else ())]
        return list(by_slot.items()), checks

    def bind(self, tests):
        """The step tables and partial sums of a model's tests.

        `test` gives a test as (slot coefficients, per-depth checks): slots
        0..depth-1 are the integer variables and the later slots the lifted
        targets, each pushed at the depth of its last input.  A check (depth,
        (lo, hi)) fails when the partial sum lies outside [lo, hi].  A test
        moves only at the depths of its slots, so depth d checks those that it
        moves (all of them at depth 0) and prunes the nodes a scan of every
        test would.  The steps give per depth (the variable, its domain
        values, the slot's (test, coefficient) list, the lifts, the depth's
        (test, lo, hi) checks, the node blocks), a lift being (target, value,
        the target slot's (test, coefficient) list) for each lifted target
        that some test reads (the others are left to the leaf); the partial
        sums start at 0.
        """
        touch = [[] for _ in self.slots]
        checks = [[] for _ in self.levels]
        for t, (coefs, windows) in enumerate(tests):
            for s, c in coefs:
                touch[s].append((t, c))
            for d, (lo, hi) in windows:
                checks[d].append((t, lo, hi))
        lifts = [[] for _ in self.levels]
        for s, target, d, value in self.lifted:
            if touch[s]:  # a target no test reads is left to the leaf
                lifts[d].append((target, value, touch[s]))
        steps = [(name, values, touch[d], lifts[d], checks[d], blocks)
                 for d, (name, values, blocks) in enumerate(self.levels)]
        return steps, [0] * len(tests)


def _family(model):
    """The model's `_Family`, kept in `_FAMILIES` under the ids of its
    pencils (a kept family holds them, so no other pencil takes their ids),
    its variables with their bounds' number types, and its pickled hints."""
    hints = model.metadata.get("hints", [])
    try:
        key = (tuple(map(id, model.pencils)),
               tuple((n, d.kind, d.lo, type(d.lo), d.hi, type(d.hi), d.values) for n, d in model.variables),
               pickle.dumps(hints))
        family = _FAMILIES.get(key)
    except (TypeError, AttributeError, pickle.PicklingError):  # variables or hints with no content key
        return _Family(model.variables, model.pencils, hints)
    if family is None:
        family = _Family(model.variables, model.pencils, hints)
        _evict(_FAMILIES, _FAMILY_CAP)
        _FAMILIES[key] = family
    return family


class _Plan:
    """One solve_by_enumeration call: its model's `_Family`, the model's
    rows bound to it, and the search over them.  The family compiles each
    row and the objective once per content, and a model whose rows,
    objective, variables or pencils `validate` finds defective raises
    ValueError with `validate`'s list.  The plan keeps which rows its tests
    and the closure decide (`decided`, `closure.proven`), the step tables and
    partial sums of its tests (`_Family.bind`), the closure, the corners and
    the leaf check, and `refusal`: None, or why no leaf can be completed (a
    used corner on a pencil with CosInt entries, or priced away from its
    boundary, or a variable no step sets).  `dfs(0)` walks the integer
    assignments, counting `nodes` and offering each feasible leaf to the
    best tracker (`result`)."""

    def __init__(self, model, budget):
        family = _family(model)
        compiled = [family.row(row) for row in model.rows] if family.sound else [None]
        objective = family.objective(model.objective) if family.sound else None
        if objective is None or None in compiled:
            raise ValueError(f"model has defects: {validate(model)}")
        if family.space > budget:
            raise BudgetExceeded(f"integer space exceeds budget {budget}")
        self.model, self.family = model, family
        self.closure = _ClosureSolver(model.rows, family.unknowns, family.doms, family.reduce)
        self.closes = bool(self.closure.determined or self.closure.dependent)
        # with no integer variable the search tests no node, so no test decides a row
        self.decided = {id(row) for row, (_, dec, _) in zip(model.rows, compiled) if dec} if family.int_names else set()
        tests = [test for test, _, _ in compiled if test] + family.cuts
        tests += [family.test(*window) for window in self.closure.tests]
        self.steps, self.partial = family.bind(tests)
        determined = {name for name, _ in self.closure.determined}
        self.corners, refusals = [], []
        unknown = family.unknowns - determined  # what no earlier step sets
        in_rows = {name for row in model.rows for name, _ in row.coeffs} if unknown and family.corners else ()
        for name, k, i, a in family.corners:  # used when it is its pencil's only unknown term
            if name not in in_rows and unknown.intersection(t for t, _ in model.pencils[k].terms) == {name}:
                coef = model.objective.coeffs.get(name, 0)
                if a is None:
                    refusals.append(f"corner scalar {name!r} sits on a pencil with entries in Z[2cos(2pi/n)]")
                elif coef < 0 if model.objective.sense == "min" else coef > 0:
                    refusals.append(f"corner scalar {name!r} is not priced toward its feasibility boundary")
                self.corners.append((name, model.pencils[k], i, a, family.doms[name]))
                unknown.discard(name)
        if unknown:
            refusals.append(f"cannot resolve continuous variables {[n for n in family.cont_names if n in unknown][:4]}")
        self.refusal = refusals[0] if refusals else None
        self.check = _LeafCheck(model, family, compiled, objective, determined, self.closure.proven | self.decided)
        self.assignment, self.nodes, self.max_residual = {}, 0, 0.0
        self.offer, self.result = _best_tracker(model.objective.sense)

    def resolve(self, assignment, fractions=False, searched=False, leaf=None):
        """The leaf pipeline: complete an integer assignment (lift values,
        closure, forced stage, corners), None if infeasible.  With `fractions`
        every closure value is a Fraction, also an integral one.  `searched`
        says the assignment passed every test of the plan, so the closure
        skips the windows those tests decided.  The lift stage's values come
        from `leaf`, the family's entry for the assignment, which is looked up
        when not given."""
        model, family = self.model, self.family
        if leaf is None:
            leaf = family.leaf(model, assignment)
        assign = dict(assignment)
        assign.update(zip(family.lift_names, leaf[0]))
        if self.closes and not self.closure.apply(assign, fractions, searched):
            return None
        for apply, hint in family.stages[_FORCED]:
            apply(hint, model, assign)
        for name, pencil, i, a, dom in self.corners:
            if not _resolve_corner(pencil, assign, name, i, a, dom):
                return None
        return assign

    def dfs(self, d):
        """Visit the node at depth d: each value, and the targets lifted with
        it, moves the partial sums, and its subtree is entered when each sum
        the depth checks lies in its window [lo, hi] and the node blocks pass
        (a zero moves no sum)."""
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
            for t, lo, hi in checks:
                s = partial[t]
                if s < lo or s > hi:
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
        leaf = self.family.leaf(self.model, self.assignment)
        if False in leaf:  # refused on its integer part (values is a tuple, never False): not completed
            return
        assign = self.resolve(self.assignment, searched=True, leaf=leaf)
        if assign is not None and (res := self.check(assign, leaf)) is not None:
            self.offer(res[0], assign)
            self.max_residual = max(self.max_residual, res[1])


def solve_by_enumeration(model: MisdpModel, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """Exact optimum of a model over its integer assignments.

    Every continuous variable must fall to one of the documented elimination
    patterns, otherwise UnsupportedContinuousPattern is raised, and a hint
    whose rule is not in _HINT_RULES raises ValueError, before the search.
    """
    plan = _Plan(model, budget)
    if plan.refusal:
        raise UnsupportedContinuousPattern(plan.refusal)
    plan.dfs(0)
    best = plan.result()
    optimum = best.optimum
    if plan.closes and best.solutions:
        # the optimum keeps the type it has with every closure value a Fraction
        first = {n: best.solutions[0][n] for n in plan.family.int_names}
        optimum = model.objective.value(plan.resolve(first, fractions=True))
    return EnumerationResult(optimum, best.solutions, best.feasible_count, plan.max_residual, plan.nodes)
