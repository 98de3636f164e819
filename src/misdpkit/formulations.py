"""Generic compilers from binary quadratic programs to binary SDP models.

Two lifts are built here, each in one place:

- bordered lift (`bordered_vars`, `bordered_pencil`): binary x and lifted
  X[i,j], i < j, with diag(X) aliased to x, in [[c, x^T], [x, X]] of order
  n+1; the vector lift of `build_bsdp_qcqp` (c = 1) and the matrix lift of
  `build_bsdp_qmp1` (c = k);
- matrix lift (`matrix_lift`, `lift_pencil`): binary P[i,a] and X[i,j],
  i <= j, tied by X_ii = sum_a P_ia, in [[I_k, P^T], [P, X]] of order n+k;
  `build_bsdp_qmp2`.

The builders of `problems` reuse them: stable set and max k-colorable
subgraph the bordered lift (bin packing its variables), quadratic multiple
knapsack and the "general" and "orthogonal" graph partitions the matrix lift.
Objectives and rows use two coefficient maps, `quad_form_coeffs` (diagonal
aliased to x) and `inner_coeffs` (<Q, X> over X[i,j], i <= j).  Every builder,
here and in `problems`, takes its pencils from `shared_pencil`, one per content.

Only the border variables carry integrality in the vector-lifted model; the
off-diagonal lifted entries stay continuous because the unit-corner pencil
plus the diagonal tie force them to the outer product at any feasible point.
The matrix-lifted models mark every lifted entry binary: with corner k >= 2
the pencil does not pin the off-diagonal entries, so dropping their
integrality genuinely weakens the model.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NegativeCapacity, json_reader
from .model import LinRow, MatrixPencil, MisdpModel, Objective, VarDomain


def pynum(v):
    """numpy scalars -> python numbers so exact-arithmetic checks stay exact."""
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def xname(i):
    return f"x[{i}]"


def mname(prefix, i, j):
    return f"{prefix}[{i},{j}]"


def pname(i, j):
    return f"P[{i},{j}]"


def _as_sym(a, n, what):
    arr = np.asarray(a)
    if arr.shape != (n, n):
        raise DimensionMismatch(f"{what} must be {n}x{n}, got {arr.shape}")
    if not np.array_equal(arr, arr.T):
        raise DimensionMismatch(f"{what} must be symmetric")
    return arr


def _as_vec(a, n, what):
    arr = np.asarray(a)
    if arr.shape != (n,):
        raise DimensionMismatch(f"{what} must have length {n}, got {arr.shape}")
    return arr


def quad_form_coeffs(q, c, n):
    """Coefficients of <Q, X> + c^T x over the lifted variables.

    Diagonal entries of X are aliased to the border x, so their weight lands
    on x[i].
    """
    coeffs = {}
    for i in range(n):
        v = pynum(q[i, i]) + (pynum(c[i]) if c is not None else 0)
        if v != 0:
            coeffs[xname(i)] = v
    for i in range(n):
        for j in range(i + 1, n):
            v = 2 * pynum(q[i, j])
            if v != 0:
                coeffs[mname("X", i, j)] = v
    return coeffs


def inner_coeffs(q, n, var="X"):
    """Coefficients of <Q, X> over var[i,j], i <= j: q_ii on the diagonal, 2 q_ij off it."""
    coeffs = {}
    for i in range(n):
        v = pynum(q[i, i])
        if v != 0:
            coeffs[mname(var, i, i)] = v
        for j in range(i + 1, n):
            v = 2 * pynum(q[i, j])
            if v != 0:
                coeffs[mname(var, i, j)] = v
    return coeffs


def bordered_vars(n, off):
    """Bordered lift: binary border x[i] and lifted X[i,j], i < j, of domain `off`."""
    variables = [(xname(i), VarDomain.binary()) for i in range(n)]
    return variables + [(mname("X", i, j), off) for i in range(n) for j in range(i + 1, n)]


# distinct pencils `shared_pencil` keeps; one `verify --suite all` run holds 40
_SHARED_PENCILS = 256


def shared_pencil(order, const, terms):
    """`MatrixPencil(order, const, terms)`, one read-only object per content.

    Every builder takes its pencils here, so the models of one shape hold one
    pencil, whose memo of exact PSD decisions answers for all of them, and
    `search` sets up their family once.  A bounded lru_cache keys the triples
    with each value's type, so Fraction(1, 2) and 0.5 differ.
    `shared_pencil.cache_clear()` also empties the caches of `bordered_pencil`
    and `lift_pencil`, which keep their pencils by their arguments.
    """
    try:
        return _shared_pencil(order, _key(const), tuple((name, _key(triples)) for name, triples in terms))
    except TypeError:  # an unhashable value, which MatrixPencil refuses by name
        return MatrixPencil(order, const, terms)


def _key(triples):
    return tuple((r, c, x, type(x)) for r, c, x in triples)


@functools.lru_cache(maxsize=_SHARED_PENCILS)
def _shared_pencil(order, const, terms):
    return MatrixPencil(order, [t[:3] for t in const], [(name, [t[:3] for t in key]) for name, key in terms])


_helper_caches = []  # the caches of `_kept_by_arguments`


def _kept_by_arguments(build):
    """`build`, whose result is a `shared_pencil`, kept by its arguments and
    their types (so a corner 1, 1.0 or Fraction(1) keeps its own pencil, as
    in `shared_pencil`), at most `_SHARED_PENCILS` of them: a builder asks for
    its pencil without keying the pencil's triples.  Unhashable arguments
    build anew.  `shared_pencil.cache_clear()` empties it."""
    kept = functools.lru_cache(maxsize=_SHARED_PENCILS, typed=True)(build)
    _helper_caches.append(kept)

    @functools.wraps(build)
    def pencil(*args, **kwargs):
        try:
            return kept(*args, **kwargs)
        except TypeError:  # an unhashable argument
            return build(*args, **kwargs)
    return pencil


def _clear_shared_pencils():
    for cache in (_shared_pencil, *_helper_caches):
        cache.cache_clear()


shared_pencil.cache_clear = _clear_shared_pencils


@_kept_by_arguments
def bordered_pencil(n, corner):
    """Pencil [[corner, diag^T], [diag, X]] with diag(X) aliased to x."""
    terms = [(xname(i), [(0, i + 1, 1), (i + 1, i + 1, 1)]) for i in range(n)]
    terms += [(mname("X", i, j), [(i + 1, j + 1, 1)]) for i in range(n) for j in range(i + 1, n)]
    return shared_pencil(n + 1, [(0, 0, corner)], terms)


def gram_hint(n):
    """Resolution hint: X[i,j] equals x[i] * x[j] once the border is fixed.

    The general form of the rule takes one factor row per index; here each
    row is the single border scalar.
    """
    return {
        "rule": "gram",
        "factors": [[xname(i)] for i in range(n)],
        "targets": [[mname("X", i, j), i, j] for i in range(n) for j in range(i + 1, n)],
    }


@_kept_by_arguments
def lift_pencil(n, k, prefix="X"):
    """Pencil [[I_k, P^T], [P, X]] of order n+k over P[i,a] and prefix[i,j], i <= j."""
    terms = [(pname(i, a), [(a, k + i, 1)]) for i in range(n) for a in range(k)]
    terms += [(mname(prefix, i, j), [(k + i, k + j, 1)]) for i in range(n) for j in range(i, n)]
    return shared_pencil(n + k, [(a, a, 1) for a in range(k)], terms)


def matrix_lift(n, k):
    """Matrix lift: binary P[i,a] and X[i,j] (i <= j), the diag-tie rows
    X_ii = sum_a P_ia and the pencil [[I_k, P^T], [P, X]]."""
    variables = [(pname(i, a), VarDomain.binary()) for i in range(n) for a in range(k)]
    variables += [
        (mname("X", i, j), VarDomain.binary()) for i in range(n) for j in range(i, n)
    ]
    ties = [
        LinRow(((mname("X", i, i), 1),) + tuple((pname(i, a), -1) for a in range(k)), "==", 0,
               label="diag-tie")
        for i in range(n)
    ]
    return variables, ties, lift_pencil(n, k)


# ---------------------------------------------------------------------------
# QCQP (vector lifting)
# ---------------------------------------------------------------------------

@dataclass
class QcqpInstance:
    """Optimize x^T Q0 x + c0^T x over binary x with quadratic <= and linear = rows."""

    n: int
    q0: object = None
    c0: object = None
    quads: list = field(default_factory=list)   # (Q_i, c_i, d_i), constraint <= d_i
    lin_eq: list = field(default_factory=list)  # (a_i, b_i), constraint a^T x = b
    sense: str = "min"

    def __post_init__(self):
        n = self.n
        if self.sense not in ("min", "max"):
            raise DimensionMismatch(f"sense must be min or max, got {self.sense!r}")
        self.q0 = _as_sym(self.q0 if self.q0 is not None else np.zeros((n, n)), n, "Q0")
        self.c0 = _as_vec(self.c0 if self.c0 is not None else np.zeros(n), n, "c0")
        self.quads = [
            (_as_sym(q, n, "Q_i"), _as_vec(c if c is not None else np.zeros(n), n, "c_i"), pynum(d))
            for q, c, d in self.quads
        ]
        self.lin_eq = [(_as_vec(a, n, "a_i"), pynum(b)) for a, b in self.lin_eq]


def build_bsdp_qcqp(inst: QcqpInstance, compact: bool = False) -> MisdpModel:
    """Vector-lifted binary SDP: border x binary, lifted entries continuous.

    With `compact` the linear equalities are aggregated into the single row
    <S, Y> = 0 with S the Gram sum of the shifted constraint vectors; a binary
    point satisfies the aggregate iff it satisfies every original equality.
    """
    n = inst.n
    variables = bordered_vars(n, VarDomain.continuous(0, 1))
    rows = []
    for q, c, d in inst.quads:
        rows.append(LinRow(tuple(quad_form_coeffs(q, c, n).items()), "<=", d, label="quad"))
    if compact and inst.lin_eq:
        s = np.zeros((n + 1, n + 1), dtype=object)  # Python numbers: int data sums exactly
        for a, b in inst.lin_eq:
            v = np.array([-b, *map(pynum, a)], dtype=object)
            s += np.outer(v, v)
        coeffs = quad_form_coeffs(s[1:, 1:], 2 * s[0, 1:], n)
        rows.append(LinRow(tuple(coeffs.items()), "==", pynum(-s[0, 0]), label="aggregated"))
    elif inst.lin_eq:
        for a, b in inst.lin_eq:
            coeffs = tuple((xname(i), pynum(a[i])) for i in range(n) if a[i] != 0)
            rows.append(LinRow(coeffs, "==", b, label="linear"))
    sign = 1 if inst.sense == "min" else -1
    objective = Objective("min", quad_form_coeffs(sign * inst.q0, sign * inst.c0, n))
    metadata = {"problem": "bsdp_qcqp", "hints": [gram_hint(n)]}
    if inst.sense == "max":
        metadata["sense_original"] = "max"
    return MisdpModel(
        variables,
        objective,
        rows,
        [bordered_pencil(n, 1)],
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# QMP shape 1 (matrix lifting, class-symmetric constraints)
# ---------------------------------------------------------------------------

@dataclass
class Qmp1Instance:
    """min tr(P^T Q0 P) over n x k packing (or partition) matrices.

    Constraints: tr(P^T Q_i P) + d_i <= 0 and P^T a_i <= b_i 1 with b_i >= 0.
    """

    n: int
    k: int
    q0: object = None
    quads: list = field(default_factory=list)  # (Q_i, d_i)
    caps: list = field(default_factory=list)   # (a_i, b_i), b_i >= 0
    partition: bool = False

    def __post_init__(self):
        n = self.n
        self.q0 = _as_sym(self.q0 if self.q0 is not None else np.zeros((n, n)), n, "Q0")
        self.quads = [(_as_sym(q, n, "Q_i"), pynum(d)) for q, d in self.quads]
        self.caps = [(_as_vec(a, n, "a_i"), pynum(b)) for a, b in self.caps]
        for _, b in self.caps:
            if b < 0:
                raise NegativeCapacity(f"capacity {b} < 0")


def _lifted_entry(i, j):
    return xname(i) if i == j else mname("X", min(i, j), max(i, j))


def build_bsdp_qmp1(inst: Qmp1Instance) -> MisdpModel:
    """Matrix-lifted binary SDP with pencil [[k, diag^T], [diag, X]].

    Every lifted entry is binary.  The diagonal is a single variable per
    index, reused as the pencil border.
    """
    n, k = inst.n, inst.k
    variables = bordered_vars(n, VarDomain.binary())
    rows = []
    if inst.partition:
        for i in range(n):
            rows.append(LinRow(((xname(i), 1),), "==", 1, label="partition"))
    for q, d in inst.quads:
        rows.append(LinRow(tuple(quad_form_coeffs(q, None, n).items()), "<=", -d, label="quad"))
    for a, b in inst.caps:
        for t in range(n):
            coeffs = {}
            for j in range(n):
                name = _lifted_entry(t, j)
                coeffs[name] = coeffs.get(name, 0) + pynum(a[j])
            coeffs[xname(t)] = coeffs.get(xname(t), 0) - b
            entries = tuple((m, c) for m, c in coeffs.items() if c != 0)
            rows.append(LinRow(entries, "<=", 0, label="capacity"))
    objective = Objective("min", quad_form_coeffs(inst.q0, None, n))
    return MisdpModel(
        variables,
        objective,
        rows,
        [bordered_pencil(n, k)],
        metadata={"problem": "bsdp_qmp1", "k": k},
    )


# ---------------------------------------------------------------------------
# QMP shape 2 (matrix lifting with explicit P)
# ---------------------------------------------------------------------------

@dataclass
class Qmp2Instance:
    """min tr(P^T Q0 P) + 2 tr(B0^T P) + d0 over packing/partition matrices."""

    n: int
    k: int
    q0: object = None
    b0: object = None
    d0: object = 0
    constraints: list = field(default_factory=list)  # (Q_i, B_i, d_i) <= 0
    partition: bool = False
    exact_rank: bool = False

    def __post_init__(self):
        n, k = self.n, self.k
        self.q0 = _as_sym(self.q0 if self.q0 is not None else np.zeros((n, n)), n, "Q0")
        b0 = np.asarray(self.b0 if self.b0 is not None else np.zeros((n, k)))
        if b0.shape != (n, k):
            raise DimensionMismatch(f"B0 must be {n}x{k}, got {b0.shape}")
        self.b0 = b0
        self.d0 = pynum(self.d0)
        fixed = []
        for q, b, d in self.constraints:
            b = np.asarray(b if b is not None else np.zeros((n, k)))
            if b.shape != (n, k):
                raise DimensionMismatch(f"B_i must be {n}x{k}, got {b.shape}")
            fixed.append((_as_sym(q, n, "Q_i"), b, pynum(d)))
        self.constraints = fixed


def _qmp2_coeffs(q, b, n, k):
    """Coefficients of tr(P^T Q P) + 2 tr(B^T P) on the matrix lift."""
    coeffs = {}
    for i in range(n):
        for a in range(k):
            v = 2 * pynum(b[i, a])
            if v != 0:
                coeffs[pname(i, a)] = v
    coeffs.update(inner_coeffs(q, n))
    return coeffs


def build_bsdp_qmp2(inst: Qmp2Instance) -> MisdpModel:
    """Matrix-lifted binary SDP with pencil [[I_k, P^T], [P, X]] of order n+k.

    The diagonal of X is tied to the row sums of P by equality rows; with
    `exact_rank` the column-cover rows force rank(X) = k at feasibility.
    """
    n, k = inst.n, inst.k
    variables, rows, pencil = matrix_lift(n, k)
    if inst.partition:
        for i in range(n):
            rows.append(LinRow(((mname("X", i, i), 1),), "==", 1, label="partition"))
    if inst.exact_rank:
        for a in range(k):
            rows.append(
                LinRow(tuple((pname(i, a), 1) for i in range(n)), ">=", 1, label="cover")
            )
    for q, b, d in inst.constraints:
        rows.append(LinRow(tuple(_qmp2_coeffs(q, b, n, k).items()), "<=", -d, label="qmp2"))
    objective = Objective("min", _qmp2_coeffs(inst.q0, inst.b0, n, k), inst.d0)
    return MisdpModel(
        variables,
        objective,
        rows,
        [pencil],
        metadata={"problem": "bsdp_qmp2", "k": k},
    )


# ---------------------------------------------------------------------------
# instance JSON (schemas documented in the README)
# ---------------------------------------------------------------------------

@json_reader
def qcqp_from_json(obj) -> QcqpInstance:
    return QcqpInstance(
        int(obj["n"]),
        obj.get("Q0"),
        obj.get("c0"),
        quads=[(q["Q"], q.get("c"), q["d"]) for q in obj.get("quads", [])],
        lin_eq=[(row["a"], row["b"]) for row in obj.get("lin_eq", [])],
        sense=obj.get("sense", "min"),
    )


@json_reader
def qmp1_from_json(obj) -> Qmp1Instance:
    return Qmp1Instance(
        int(obj["n"]),
        int(obj["k"]),
        obj.get("Q0"),
        quads=[(q["Q"], q["d"]) for q in obj.get("quads", [])],
        caps=[(c["a"], c["b"]) for c in obj.get("caps", [])],
        partition=bool(obj.get("partition", False)),
    )


@json_reader
def qmp2_from_json(obj) -> Qmp2Instance:
    return Qmp2Instance(
        int(obj["n"]),
        int(obj["k"]),
        obj.get("Q0"),
        obj.get("B0"),
        obj.get("d0", 0),
        constraints=[(c["Q"], c.get("B"), c["d"]) for c in obj.get("constraints", [])],
        partition=bool(obj.get("partition", False)),
        exact_rank=bool(obj.get("exact_rank", False)),
    )
