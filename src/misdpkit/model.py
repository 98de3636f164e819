"""MISDP intermediate representation.

Scalar variables with per-variable domains, a linear objective, linear
constraints and affine PSD constraints (matrix pencils).  Matrix variables
are flattened by the builders to scalar entries of the upper triangle, so
integrality markers stay per-entry and the IR remains solver-agnostic.

Coefficients may be int, Fraction or float.  Evaluation against an
assignment is arithmetic-exact whenever every participating number is exact
(int/Fraction); pencil PSD checks always go through the float eigensolver.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import config
from .errors import IncompleteAssignment, ParseError, UnsupportedDomain
from .linalg import is_psd

CONTINUOUS = "continuous"
BINARY = "binary"
TERNARY = "ternary"
INTEGER_RANGE = "integer_range"
FINITE_SET = "finite_set"


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
        if lo > hi:
            raise UnsupportedDomain(f"integer_range needs lo <= hi, got [{lo}, {hi}]")
        return VarDomain(INTEGER_RANGE, lo, hi)

    @staticmethod
    def finite_set(values):
        vals = tuple(sorted(set(values)))
        if not vals:
            raise UnsupportedDomain("finite_set must be nonempty")
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
            return tuple(range(int(self.lo), int(self.hi) + 1))
        if self.kind == FINITE_SET:
            return self.values
        raise UnsupportedDomain("continuous domains are not enumerable")

    def size(self):
        return len(self.iter_values())

    def contains(self, v, tol=0.0):
        if self.kind == CONTINUOUS:
            lo_ok = self.lo is None or v >= self.lo - tol
            hi_ok = self.hi is None or v <= self.hi + tol
            return lo_ok and hi_ok
        if isinstance(v, float):
            if abs(v - round(v)) > tol:
                return False
            v = round(v)
        if isinstance(v, Fraction):
            if v.denominator != 1:
                return False
            v = v.numerator
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


class MatrixPencil:
    """Affine symmetric matrix A_0 + sum_j v_j A_j, constrained PSD."""

    __slots__ = ("order", "const", "terms")

    def __init__(self, const, terms):
        const = np.asarray(const, dtype=np.float64)
        if const.ndim != 2 or const.shape[0] != const.shape[1]:
            raise ValueError("pencil constant must be square")
        if not np.array_equal(const, const.T):
            raise ValueError("pencil constant must be symmetric")
        self.order = const.shape[0]
        self.const = const
        fixed = []
        for name, mat in terms:
            m = np.asarray(mat, dtype=np.float64)
            if m.shape != const.shape or not np.array_equal(m, m.T):
                raise ValueError(f"pencil term {name!r} must be symmetric of order {self.order}")
            fixed.append((name, m))
        self.terms = tuple(fixed)

    def evaluate(self, values: dict) -> np.ndarray:
        out = self.const.copy()
        for name, mat in self.terms:
            v = float(values[name])
            if v != 0.0:
                out += v * mat
        return out

    def __eq__(self, other):
        # term order is presentation, not content
        if not isinstance(other, MatrixPencil):
            return NotImplemented
        if self.order != other.order or not np.array_equal(self.const, other.const):
            return False
        mine, theirs = dict(self.terms), dict(other.terms)
        if set(mine) != set(theirs):
            return False
        return all(np.array_equal(mine[k], theirs[k]) for k in mine)


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

    def var_names(self):
        return [name for name, _ in self.variables]

    def domain(self, name):
        for n, d in self.variables:
            if n == name:
                return d
        raise KeyError(name)

    def integer_names(self):
        return [n for n, d in self.variables if d.is_integer]

    def __eq__(self, other):
        if not isinstance(other, MisdpModel):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.objective == other.objective
            and self.rows == other.rows
            and self.pencils == other.pencils
            and self.metadata == other.metadata
        )


def validate(model: MisdpModel):
    """Structural defects of a model; empty list when well-formed."""
    defects = []
    names = model.var_names()
    known = set(names)
    if len(known) != len(names):
        defects.append("duplicate variable names")
    for name, dom in model.variables:
        if dom.kind == FINITE_SET and not dom.values:
            defects.append(f"{name}: empty finite_set")
        lo, hi = dom.lo, dom.hi
        if lo is not None and hi is not None and lo > hi:
            defects.append(f"{name}: lo > hi")
    for name in model.objective.coeffs:
        if name not in known:
            defects.append(f"objective references unknown variable {name!r}")
    for k, row in enumerate(model.rows):
        for name, _ in row.coeffs:
            if name not in known:
                defects.append(f"row {k} references unknown variable {name!r}")
    for k, pencil in enumerate(model.pencils):
        for name, mat in pencil.terms:
            if name not in known:
                defects.append(f"pencil {k} references unknown variable {name!r}")
            if not np.array_equal(mat, mat.T):
                defects.append(f"pencil {k} has an asymmetric coefficient for {name!r}")
    return defects


def _exact(*vals):
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in vals)


@dataclass
class EvalResult:
    feasible: bool
    objective: object
    violations: list
    max_residual: float


def eval_point(model: MisdpModel, assignment: dict, tol=None, tols=None) -> EvalResult:
    """Check an assignment against domains, rows and pencils.

    Row checks are exact whenever the row data and values are int/Fraction;
    float data uses `tol` (default from the tolerance policy).  The objective
    is always reported.
    """
    tols = tols or config.DEFAULT
    if tol is None:
        tol = tols.lin_feas
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
        if _exact(row.rhs, *vals, *coefs):
            lhs = sum(c * v for c, v in zip(coefs, vals))
            gap = lhs - row.rhs
            bad = (row.rel == "==" and gap != 0) or (row.rel == "<=" and gap > 0) or (row.rel == ">=" and gap < 0)
            resid = abs(gap) if row.rel == "==" else max(gap if row.rel == "<=" else -gap, 0)
        else:
            lhs = sum(float(c) * float(v) for c, v in zip(coefs, vals))
            gap = lhs - float(row.rhs)
            if row.rel == "==":
                resid = abs(gap)
            elif row.rel == "<=":
                resid = max(gap, 0.0)
            else:
                resid = max(-gap, 0.0)
            bad = resid > tol
        max_residual = max(max_residual, float(resid))
        if bad:
            violations.append(f"row {k}{' ' + row.label if row.label else ''}: residual {resid}")

    for k, pencil in enumerate(model.pencils):
        mat = pencil.evaluate(assignment)
        if not is_psd(mat, tols=tols):
            violations.append(f"pencil {k}: not PSD")

    objective = model.objective.value(assignment)
    return EvalResult(not violations, objective, violations, max_residual)


# ---------------------------------------------------------------------------
# JSON serialization (lossless, byte-stable)
# ---------------------------------------------------------------------------

def _enc_num(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _dec_num(v):
    if isinstance(v, str) and "/" in v:
        p, q = v.split("/")
        return Fraction(int(p), int(q))
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
        return VarDomain.continuous(_dec_num(obj.get("lo")), _dec_num(obj.get("hi")))
    raise ParseError(f"unknown domain kind {kind!r}")


def export_json(model: MisdpModel) -> str:
    obj = {
        "format": "misdpkit-model",
        "version": 1,
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
                "const": p.const.tolist(),
                "terms": [[n, m.tolist()] for n, m in p.terms],
            }
            for p in model.pencils
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def import_json(text: str) -> MisdpModel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno)
    if obj.get("format") != "misdpkit-model":
        raise ParseError("not a misdpkit model file")
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
    pencils = [MatrixPencil(p["const"], [(n, m) for n, m in p["terms"]]) for p in obj["pencils"]]
    return MisdpModel(variables, objective, rows, pencils, obj.get("metadata", {}))
