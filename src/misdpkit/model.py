"""MISDP intermediate representation.

Scalar variables with per-variable domains, a linear objective, linear
constraints and affine PSD constraints (matrix pencils).  Matrix variables
are flattened by the builders to scalar entries of the upper triangle, so
integrality markers stay per-entry and the IR remains solver-agnostic.  The
flattening is `formulations.upper` (prefix[i,j], i <= j, row by row), and
<Q, X> over it is `formulations.upper_coeffs`.

Coefficients may be int, Fraction or float, and a pencil entry may also be
an algebraic integer of Z[2cos(2pi/n)] (`cosring.CosInt`).  Evaluation
against an assignment is arithmetic-exact whenever every participating
number is exact (int/Fraction).  So is a pencil's PSD test when every entry
of the pencil is an int or a CosInt (`exact`) and the term values are
int/Fraction; any other pencil goes through the float eigensolver.
"""

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import config
from .cosring import CosInt, cosint, degree
from .errors import IncompleteAssignment, NotExportable, ParseError, UnsupportedDomain, json_reader, loads_json
from .linalg import is_psd, is_psd_exact

CONTINUOUS = "continuous"
BINARY = "binary"
TERNARY = "ternary"
INTEGER_RANGE = "integer_range"
FINITE_SET = "finite_set"


def _integral(v):
    if isinstance(v, numbers.Integral):
        return True
    if isinstance(v, Fraction):
        return v.denominator == 1
    return isinstance(v, numbers.Real) and float(v).is_integer()


def widen(bound, tol):
    """`bound + tol`, the way eval_point widens a continuous bound: in floats,
    or exactly for a bound past the float range."""
    try:
        return bound + tol
    except OverflowError:
        return Fraction(bound) + Fraction(tol)


@dataclass(frozen=True)
class VarDomain:
    kind: str
    lo: object = None
    hi: object = None
    values: tuple = ()

    @staticmethod
    def continuous(lo=None, hi=None):
        return VarDomain(CONTINUOUS, lo, hi)

    @staticmethod
    def binary():
        return VarDomain(BINARY, 0, 1)

    @staticmethod
    def ternary():
        return VarDomain(TERNARY, -1, 1)

    @staticmethod
    def integer_range(lo, hi):
        # the bounds are stored as given; the values are ceil(lo)..floor(hi)
        try:
            empty = math.ceil(lo) > math.floor(hi)
        except (OverflowError, ValueError, TypeError):  # inf, nan, missing or not a number
            raise UnsupportedDomain(f"integer_range needs finite bounds, got [{lo}, {hi}]") from None
        if empty:
            raise UnsupportedDomain(f"integer_range has no integer in [{lo}, {hi}]")
        return VarDomain(INTEGER_RANGE, lo, hi)

    @staticmethod
    def finite_set(values):
        # integral values of any number type are stored as ints
        vals = tuple(sorted(set(values)))
        if not vals:
            raise UnsupportedDomain("finite_set must be nonempty")
        odd = [v for v in vals if not _integral(v)]
        if odd:
            raise UnsupportedDomain(f"finite_set values must be integers, got {odd[:4]}")
        vals = tuple(map(int, vals))
        return VarDomain(FINITE_SET, vals[0], vals[-1], vals)

    @property
    def is_integer(self):
        return self.kind != CONTINUOUS

    def iter_values(self):
        if self.kind == BINARY:
            return (0, 1)
        if self.kind == TERNARY:
            return (-1, 0, 1)
        if self.kind == INTEGER_RANGE:
            return tuple(range(math.ceil(self.lo), math.floor(self.hi) + 1))
        if self.kind == FINITE_SET:
            return self.values
        raise UnsupportedDomain("continuous domains are not enumerable")

    def size(self):
        if self.kind == INTEGER_RANGE:
            return math.floor(self.hi) - math.ceil(self.lo) + 1
        return len(self.iter_values())

    def contains(self, v, tol=0.0):
        if self.kind == CONTINUOUS:
            lo_ok = self.lo is None or v >= widen(self.lo, -tol)
            hi_ok = self.hi is None or v <= widen(self.hi, tol)
            return lo_ok and hi_ok
        if isinstance(v, float):
            if abs(v - round(v)) > tol:
                return False
            v = round(v)
        if isinstance(v, Fraction):
            if v.denominator != 1:
                return False
            v = v.numerator
        if self.kind == INTEGER_RANGE:
            return self.lo <= v <= self.hi
        return v in self.iter_values()


@dataclass(frozen=True, eq=False)
class LinRow:
    coeffs: tuple  # ((var name, coefficient), ...)
    rel: str       # "<=" | "==" | ">="
    rhs: object
    label: str = ""

    def __post_init__(self):
        if self.rel not in ("<=", "==", ">="):
            raise ValueError(f"bad relation {self.rel!r}")

    def __eq__(self, other):
        # labels and coefficient order are presentation, not content
        if not isinstance(other, LinRow):
            return NotImplemented
        return (
            self.rel == other.rel
            and self.rhs == other.rhs
            and dict(self.coeffs) == dict(other.coeffs)
        )


def _entry(x, what):
    """A pencil entry as `entries` keeps it: an int when integral, else the
    Fraction, float or CosInt given."""
    if type(x) is CosInt:
        return x
    if isinstance(x, numbers.Integral):
        x = int(x)
    elif isinstance(x, Fraction):
        x = x.numerator if x.denominator == 1 else x
    elif isinstance(x, numbers.Real):
        x = float(x)
        x = int(x) if x.is_integer() else x
    else:
        raise ValueError(f"pencil {what} has entry {x!r}, not a real number")
    try:
        if math.isfinite(x):
            return x
    except OverflowError:  # past the float64 range
        pass
    raise ValueError(f"pencil {what} has a non-finite entry")


def _upper_triples(order, triples, what):
    """The nonzero entries of (r, c, value) `triples` as (r, c, value) with
    r <= c, in row-major order; ValueError on a bad triple, naming `what`."""
    seen = {}
    for r, c, x in triples:
        if isinstance(r, bool) or isinstance(c, bool):
            raise ValueError(f"pencil {what} has coordinate ({r}, {c}), not two integers")
        r, c = operator.index(r), operator.index(c)
        if r > c:
            r, c = c, r
        if r < 0 or c >= order:
            raise ValueError(f"pencil {what} has entry ({r}, {c}) outside order {order}")
        if (r, c) in seen:
            raise ValueError(f"pencil {what} repeats entry ({r}, {c})")
        seen[r, c] = _entry(x, what)
    return tuple((r, c, x) for (r, c), x in sorted(seen.items()) if x)


# exact PSD decisions one pencil remembers; a full memo stops inserting, so a
# long enumeration, whose leaves are all distinct, cannot grow it further
_PSD_MEMO_CAP = 4096


class MatrixPencil:
    """Affine symmetric matrix A_0 + sum_j v_j A_j, constrained PSD.

    `MatrixPencil(order, const, terms)` takes the constant and each
    `(name, triples)` term as (r, c, value) triples of matrix entries, in
    either triangle.  A pencil is its exact `entries`: per matrix, the nonzero
    upper-triangle triples in row-major order, an integral value as an int and
    any other as the Fraction, float or CosInt given.  `terms` pairs each name
    with its matrix's triples (`entries[1:]`), `integral` is whether every
    value is an int, and `exact` whether every value is an int or a CosInt.
    A triple out of range, a coordinate given twice (also as (r, c) and
    (c, r)), a term name given twice or a value that is not a finite real or
    a CosInt raises ValueError naming it.  `evaluate` sums the entries in
    floats; `__eq__` compares the entries, so a Fraction and its nearest float
    differ.

    Every pencil remembers its exact PSD decisions: the exact route of
    `is_psd_at` keeps them in the memo `_psd`, by scaled integer values, at
    most `_PSD_MEMO_CAP` of them; the float route keeps none.
    `leading_blocks()` builds the leading blocks that some term enters, each
    a pencil with its own memo.  The builders take every pencil from
    `formulations.shared_pencil`, one per content, so the models of one
    shape share one memo.  A pencil must never be mutated.
    """

    __slots__ = ("order", "terms", "entries", "integral", "exact", "_psd")

    def __init__(self, order, const, terms):
        const, named = _upper_triples(order, const, "constant"), {}
        for name, triples in terms:
            if name in named:
                raise ValueError(f"pencil repeats term {name!r}")
            named[name] = _upper_triples(order, triples, f"term {name!r}")
        self.order = order
        self.terms = tuple(named.items())
        self.entries = (const, *named.values())
        self.integral = all(type(x) is int for triples in self.entries for _, _, x in triples)
        self.exact = self.integral or all(type(x) in (int, CosInt) for triples in self.entries for _, _, x in triples)
        self._psd = {}

    def evaluate(self, values: dict) -> np.ndarray:
        """A fresh float64 matrix: the constant plus float(v) * each term, in term order."""
        out = [[0.0] * self.order for _ in range(self.order)]
        scale = [1.0, *(float(values[name]) for name, _ in self.terms)]
        for v, triples in zip(scale, self.entries):
            if v:
                for r, c, x in triples:
                    out[r][c] += v * float(x)
                    out[c][r] = out[r][c]
        return np.array(out).reshape(self.order, self.order)

    def is_psd_at(self, values: dict) -> bool:
        """Whether the pencil is PSD at `values`.

        Exact when every term value is int/Fraction and the pencil is
        `exact`: the pencil, scaled by the (positive) lcm of the value
        denominators, goes to `is_psd_exact`, over Z[2cos(2pi/n)] when it
        holds CosInt entries, unless a memo already holds that scaled point.
        Otherwise `is_psd` of `evaluate(values)`.
        """
        vals = [values[name] for name, _ in self.terms]
        den = 1
        for v in vals:
            if type(v) is not int:
                if not _exact(v):
                    return is_psd(self.evaluate(values))
                den = math.lcm(den, v.denominator)
        if not self.exact:
            return is_psd(self.evaluate(values))
        if den != 1:
            vals = [v and int(v * den) for v in vals]
        key, memo = (den, *vals), self._psd
        psd = memo.get(key)
        if psd is None:
            psd = psd_exact_sum(self.order, key, self.entries)
            if len(memo) < _PSD_MEMO_CAP:
                memo[key] = psd
        return psd

    def leading_blocks(self):
        """The leading k x k blocks, k < order, that some term enters (an
        upper-triangle entry (r, c) enters the blocks of order c + 1 and up),
        by increasing k: each the pencil of order k over the terms that enter
        it, holding the entries of the constant and of those terms inside it.
        Built anew on each call: a caller keeps the blocks it tests.
        """
        blocks = []
        for k in range(1, self.order):
            terms = [(name, inside) for name, triples in self.terms
                     if (inside := [e for e in triples if e[1] < k])]
            if terms:  # a constant block is left to the full test
                blocks.append(MatrixPencil(k, [e for e in self.entries[0] if e[1] < k], terms))
        return blocks

    def __eq__(self, other):
        # term order is presentation, not content
        if not isinstance(other, MatrixPencil):
            return NotImplemented
        return (
            self.order == other.order
            and self.entries[0] == other.entries[0]
            and dict(self.terms) == dict(other.terms)
        )


@dataclass
class Objective:
    sense: str  # "min" | "max"
    coeffs: dict
    constant: object = 0

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"bad sense {self.sense!r}")

    def value(self, values):
        return sum((c * values[n] for n, c in self.coeffs.items()), self.constant)

    def __eq__(self, other):
        return (
            isinstance(other, Objective)
            and self.sense == other.sense
            and self.coeffs == other.coeffs
            and self.constant == other.constant
        )


@dataclass
class MisdpModel:
    variables: list          # [(name, VarDomain), ...] in model order
    objective: Objective
    rows: list = field(default_factory=list)
    pencils: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def integer_names(self):
        return [n for n, d in self.variables if d.is_integer]


def validate(model: MisdpModel):
    """Structural defects of a model; empty list when well-formed."""
    defects = []
    names = [n for n, _ in model.variables]
    known = set(names)
    if len(known) != len(names):
        defects.append("duplicate variable names")
    for name, dom in model.variables:
        if dom.kind == FINITE_SET and not dom.values:
            defects.append(f"{name}: empty finite_set")
        lo, hi = dom.lo, dom.hi
        if lo != lo or hi != hi:  # NaN fails every comparison: every leaf would be rejected
            defects.append(f"{name}: NaN bound")
        elif lo is not None and hi is not None and lo > hi:
            defects.append(f"{name}: lo > hi")
    defects += objective_defects(model.objective, known)
    for k, row in enumerate(model.rows):
        defects += row_defects(k, row, known)
    for k, pencil in enumerate(model.pencils):
        for name, _ in pencil.terms:
            if name not in known:
                defects.append(f"pencil {k} references unknown variable {name!r}")
    return defects


def check_exportable(model: MisdpModel):
    """Raise NotExportable, a ValueError, unless the model file readers
    accept `model`: its `validate` defects, or each bound, rhs and objective
    constant that is infinite (a legal model, but no model file holds an
    infinite number).
    The exporters write metadata with `allow_nan=False`, so a non-finite
    float in it raises ValueError as well."""
    defects = validate(model)
    if defects:
        raise NotExportable(f"model has defects: {defects}")
    numbers = [(f"{side} bound of {name!r}", b)
               for name, d in model.variables for side, b in (("lower", d.lo), ("upper", d.hi))]
    numbers += [(f"rhs of row {k}", row.rhs) for k, row in enumerate(model.rows)]
    numbers.append(("objective constant", model.objective.constant))
    if infinite := [f"{what} is {v}" for what, v in numbers if v is not None and abs(v) == math.inf]:
        raise NotExportable(f"model files hold finite numbers only: {infinite}")


def objective_defects(objective, known):
    """The defects `validate` reports of `objective`, over the variables `known`."""
    return _linear_defects("objective", objective.coeffs.items(), "constant", objective.constant, known)


def row_defects(k, row, known):
    """The defects `validate` reports of `row`, row k of a model whose variables are `known`."""
    return _linear_defects(f"row {k}", row.coeffs, "rhs", row.rhs, known)


def _linear_defects(what, coeffs, const_name, const, known):
    defects = []
    for name, c in coeffs:
        if name not in known:
            defects.append(f"{what} references unknown variable {name!r}")
        if c != c or abs(c) == math.inf:  # a NaN makes the form vacuous, and inf * 0 is NaN
            defects.append(f"{what}: {'NaN' if c != c else 'infinite'} coefficient of {name!r}")
    if const != const:
        defects.append(f"{what}: NaN {const_name}")
    return defects


def psd_exact_sum(order, values, entries):
    """`is_psd_exact` of sum_t values[t] * M_t, each M_t of the given order
    given by its upper-triangle (r, c, x) triples, x an int or a CosInt; the
    values are integral."""
    a = [[0] * order for _ in range(order)]
    for v, triples in zip(values, entries):
        if v:
            for r, c, x in triples:
                a[r][c] += v * x
    return is_psd_exact(a)


def _exact(*vals):
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in vals)


def float_gap(coefs, vals, rhs):
    """sum c * v - rhs of a row whose data or values are not all int/Fraction:
    in floats, or exactly, as a Fraction, when a number is past the float
    range (every finite float is a Fraction)."""
    try:
        return sum(float(c) * float(v) for c, v in zip(coefs, vals)) - float(rhs)
    except OverflowError:
        return sum(Fraction(c) * Fraction(v) for c, v in zip(coefs, vals)) - Fraction(rhs)


@dataclass
class EvalResult:
    feasible: bool
    objective: object
    violations: list
    max_residual: float


def eval_point(model: MisdpModel, assignment: dict) -> EvalResult:
    """Check an assignment against domains, rows and pencils.

    Row checks are exact whenever the row data and values are int/Fraction;
    float data uses the `lin_feas` tolerance, on the gap that `float_gap`
    takes.  A row's residual is reported as a float, inf past the float
    range.  The objective is always reported.
    """
    tol = config.DEFAULT.lin_feas
    missing = [n for n, _ in model.variables if n not in assignment]
    if missing:
        raise IncompleteAssignment(f"missing values for {missing[:4]}{'...' if len(missing) > 4 else ''}")
    violations = []
    max_residual = 0.0

    for name, dom in model.variables:
        if not dom.contains(assignment[name], tol=tol):
            violations.append(f"domain: {name} = {assignment[name]}")

    for k, row in enumerate(model.rows):
        vals = [assignment[n] for n, _ in row.coeffs]
        coefs = [c for _, c in row.coeffs]
        exact = _exact(row.rhs, *vals, *coefs)
        if exact:
            gap = sum(c * v for c, v in zip(coefs, vals)) - row.rhs
        else:
            gap = float_gap(coefs, vals, row.rhs)
        resid = abs(gap) if row.rel == "==" else max(gap if row.rel == "<=" else -gap, 0)
        bad = resid > (0 if exact else tol)
        try:
            resid = float(resid)
        except OverflowError:  # a residual past the float range
            resid = math.inf
        max_residual = max(max_residual, resid)
        if bad:
            violations.append(f"row {k}{' ' + row.label if row.label else ''}: residual {resid}")

    for k, pencil in enumerate(model.pencils):
        if not pencil.is_psd_at(assignment):
            violations.append(f"pencil {k}: not PSD")

    objective = model.objective.value(assignment)
    return EvalResult(not violations, objective, violations, max_residual)


# ---------------------------------------------------------------------------
# JSON serialization (byte-stable).  A pencil is its exact entries, as CBF
# writes them: {"order": n, "const": [[r, c, v], ...], "terms": [[name, [[r, c, v], ...]], ...]},
# with a CosInt v as {"ring": n, "coeffs": [c_0, ..., c_(d-1)]}
# ---------------------------------------------------------------------------

# dense entries, sum of order^2 * (1 + terms), that a read model's pencils may
# need: `evaluate` and the exact PSD test build order x order matrices, which a
# sparse file does not pay for (2^24 float64s are 128 MB)
_MAX_DENSE_ENTRIES = 2**24


def check_dense_entries(pencils):
    """ParseError when the dense matrices of `pencils` pass _MAX_DENSE_ENTRIES."""
    dense = sum(p.order * p.order * (1 + len(p.terms)) for p in pencils)
    if dense > _MAX_DENSE_ENTRIES:
        raise ParseError(f"pencils need {dense} dense entries, more than {_MAX_DENSE_ENTRIES}")


def _enc_num(v):
    if type(v) is CosInt:
        return {"ring": v.n, "coeffs": list(v.coeffs)}
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, np.integer):  # json writes a float64 as the float it is
        return int(v)
    return v


def _dec_num(v):
    if isinstance(v, str) and "/" in v:
        p, q = v.split("/")
        return Fraction(int(p), int(q))
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"expected a number, got {v!r}")
    return v


def _enc_domain(d: VarDomain):
    out = {"kind": d.kind}
    if d.lo is not None:
        out["lo"] = _enc_num(d.lo)
    if d.hi is not None:
        out["hi"] = _enc_num(d.hi)
    if d.kind == FINITE_SET:
        out["values"] = [_enc_num(v) for v in d.values]
    return out


def _dec_domain(obj):
    kind = obj["kind"]
    if kind == BINARY:
        return VarDomain.binary()
    if kind == TERNARY:
        return VarDomain.ternary()
    if kind == INTEGER_RANGE:
        return VarDomain.integer_range(_dec_num(obj["lo"]), _dec_num(obj["hi"]))
    if kind == FINITE_SET:
        return VarDomain.finite_set([_dec_num(v) for v in obj["values"]])
    if kind == CONTINUOUS:
        lo, hi = obj.get("lo"), obj.get("hi")
        return VarDomain.continuous(lo if lo is None else _dec_num(lo), hi if hi is None else _dec_num(hi))
    raise ParseError(f"unknown domain kind {kind!r}")


def _enc_triples(triples):
    return [[r, c, _enc_num(x)] for r, c, x in triples]


# the largest n of a ring entry read: the ring's tables take O(phi(n)^2) ints
_MAX_RING = 1024


def _dec_entry(x, where):
    """A pencil entry: a number, or a ring entry {"ring": n, "coeffs": [...]}
    that has an alpha part, phi(n)/2 ints and n in 3.._MAX_RING with phi(n) > 2."""
    if not isinstance(x, dict):
        return _dec_num(x)
    n, coeffs = x.get("ring"), x.get("coeffs")
    if sorted(x) != ["coeffs", "ring"] or type(n) is not int or not 3 <= n <= _MAX_RING:
        raise ParseError(f"{where}: ring entry {x!r} needs just an integer ring n in 3..{_MAX_RING} and coeffs")
    if degree(n) == 1:
        raise ParseError(f"{where}: 2cos(2pi/{n}) is an integer, so ring entry {x!r} must be written as an int")
    if type(coeffs) is not list or len(coeffs) != degree(n) or any(type(c) is not int for c in coeffs):
        raise ParseError(f"{where}: ring entry {x!r} needs {degree(n)} integer coefficients")
    if not any(coeffs[1:]):
        raise ParseError(f"{where}: ring entry {x!r} has no alpha part, so must be written as an int")
    return cosint(n, coeffs)


def _dec_triples(triples, where):
    return [(r, c, _dec_entry(x, where)) for r, c, x in triples]


def export_json(model: MisdpModel) -> str:
    check_exportable(model)
    obj = {
        "format": "misdpkit-model",
        "version": 2,
        "metadata": model.metadata,
        "variables": [[n, _enc_domain(d)] for n, d in model.variables],
        "objective": {
            "sense": model.objective.sense,
            "constant": _enc_num(model.objective.constant),
            "coeffs": [[n, _enc_num(c)] for n, c in model.objective.coeffs.items()],
        },
        "rows": [
            {
                "coeffs": [[n, _enc_num(c)] for n, c in row.coeffs],
                "rel": row.rel,
                "rhs": _enc_num(row.rhs),
                "label": row.label,
            }
            for row in model.rows
        ],
        "pencils": [
            {
                "order": p.order,
                "const": _enc_triples(p.entries[0]),
                "terms": [[n, _enc_triples(t)] for n, t in p.terms],
            }
            for p in model.pencils
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def import_json(text: str) -> MisdpModel:
    return _model_from_json(loads_json(text))


@json_reader
def _model_from_json(obj):
    if not isinstance(obj, dict) or obj.get("format") != "misdpkit-model":
        raise ParseError("not a misdpkit model file")
    if obj.get("version") != 2:
        raise ParseError(f"unsupported model file version {obj.get('version')!r}, expected 2")
    variables = [(n, _dec_domain(d)) for n, d in obj["variables"]]
    o = obj["objective"]
    objective = Objective(
        o["sense"],
        {n: _dec_num(c) for n, c in o["coeffs"]},
        _dec_num(o["constant"]),
    )
    rows = [
        LinRow(
            tuple((n, _dec_num(c)) for n, c in r["coeffs"]),
            r["rel"],
            _dec_num(r["rhs"]),
            r.get("label", ""),
        )
        for r in obj["rows"]
    ]
    pencils = []
    for k, p in enumerate(obj["pencils"]):
        if type(p["order"]) is not int or p["order"] < 0:
            raise ParseError(f"pencil order must be a nonnegative integer, got {p['order']!r}")
        pencils.append(MatrixPencil(p["order"], _dec_triples(p["const"], f"pencil {k} constant"),
                                    [(n, _dec_triples(t, f"pencil {k} term {n!r}")) for n, t in p["terms"]]))
    check_dense_entries(pencils)
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("field 'metadata' must be an object")
    model = MisdpModel(variables, objective, rows, pencils, metadata)
    defects = validate(model)
    if defects:
        raise ParseError(f"model has defects: {defects}")
    return model
