"""Discrete PSD matrices over {0,1}, {+-1} and {0,+-1}.

Decompositions, block forms, rank certificates, enumeration, exact counting
and polytope membership.  Decompositions are purely combinatorial (support
and sign analysis on the exact integer shadow), never floating point; the
LMI-based certificates go through the float eigensolver.  D^n_r and the LP
columns of conv(D^n_r) come from packings' upper triangles in Python ints.

Ground-set elements, packing parts and reported triples are 0-based.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    NotPsd,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    SizeLimit,
)
from .exactlp import solve_feasibility
from .linalg import SymMat, is_psd, num_rank

ENUM_MAX_N = 6
MEMBERSHIP_MAX_N = 5


# ---------------------------------------------------------------------------
# packings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Packing:
    """Ordered list of pairwise disjoint nonempty subsets of range(n).

    Canonical form: parts ordered by smallest element, elements ascending.
    The characteristic matrix sum(1_S 1_S^T) is PSD binary of rank len(parts).
    """

    n: int
    parts: tuple

    def __post_init__(self):
        seen = set()
        for part in self.parts:
            if not part:
                raise ValueError("packing parts must be nonempty")
            for e in part:
                if not 0 <= e < self.n:
                    raise ValueError(f"element {e} outside range({self.n})")
                if e in seen:
                    raise ValueError(f"element {e} appears in two parts")
                seen.add(e)

    @staticmethod
    def make(n, parts):
        canon = tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0]))
        return Packing(n, canon)

    def labels(self):
        """Each element's part index, or -1 where no part covers it."""
        lab = [-1] * self.n
        for k, part in enumerate(self.parts):
            for e in part:
                lab[e] = k
        return lab

    def upper(self):
        """The characteristic matrix's upper triangle, row by row, as ints."""
        lab = self.labels()
        return [int(a == b) if a >= 0 else 0 for i, a in enumerate(lab) for b in lab[i:]]

    def to_matrix(self) -> SymMat:
        lab = np.array(self.labels(), dtype=np.int64)
        return SymMat._of_ints(((lab[:, None] == lab) & (lab >= 0)).astype(np.int64))

    def to_line(self) -> str:
        body = ",".join("{" + ",".join(map(str, p)) + "}" for p in self.parts)
        return f"{self.n}; {body}"

    @staticmethod
    def from_line(text: str) -> "Packing":
        head, _, body = text.partition(";")
        try:
            n = int(head.strip())
        except ValueError:
            raise ParseError(f"bad packing header {head!r}")
        body = body.strip()
        parts = []
        if body:
            if not (body.startswith("{") and body.endswith("}")):
                raise ParseError(f"bad packing body {body!r}")
            for chunk in body[1:-1].split("},{"):
                try:
                    parts.append(tuple(int(e) for e in chunk.split(",")))
                except ValueError:
                    raise ParseError(f"bad packing part {chunk!r}")
        return Packing.make(n, parts)


def iter_packings(n, r):
    """Yield every packing of range(n) with at most r parts, canonically.

    Parts are created in order of their smallest element, so each packing is
    produced exactly once and already in canonical order.
    """
    parts = []

    def rec(e):
        if e == n:
            yield Packing(n, tuple(tuple(p) for p in parts))
            return
        # e uncovered
        yield from rec(e + 1)
        # e joins an existing part
        for part in parts:
            part.append(e)
            yield from rec(e + 1)
            part.pop()
        # e opens a new part
        if len(parts) < r:
            parts.append([e])
            yield from rec(e + 1)
            parts.pop()

    yield from rec(0)


# ---------------------------------------------------------------------------
# {0,1} theory
# ---------------------------------------------------------------------------

def _require_values(x: SymMat, allowed, what):
    if not x.values_in(allowed):
        raise PreconditionViolated(f"{what} requires entries in {sorted(allowed)}")


def _binary_supports(ints):
    """Clique supports of a PSD binary matrix, or None when none exists.

    A symmetric binary X is PSD iff the support of every row with X_ii = 1 is
    a clique of identical rows and rows with X_ii = 0 vanish.
    """
    n = ints.shape[0]
    supports = {}
    for i in range(n):
        row = np.flatnonzero(ints[i])
        if ints[i, i] == 0:
            if row.size:
                return None
            continue
        supports[i] = frozenset(row.tolist())
    for i, sup in supports.items():
        for j in sup:
            if supports.get(j) != sup:
                return None
    return supports


def decompose01(x: SymMat) -> Packing:
    """Write a PSD binary matrix as a packing of cliques (exact, no floats).

    Raises NotPsd when the support structure rules out PSD-ness.
    """
    _require_values(x, {0, 1}, "decompose01")
    supports = _binary_supports(x.ints)
    if supports is None:
        raise NotPsd("support of some row is not a clique of identical rows")
    parts = {s for s in supports.values()}
    return Packing.make(x.n, parts)


def block_form01(x: SymMat):
    """Permutation sending a PSD binary matrix to J_{n_1} (+) ... (+) 0.

    Returns (perm, sizes, n_z) where perm is an index array such that
    x[perm][:, perm] is the block matrix; blocks sorted by size descending,
    ties by smallest original index.
    """
    packing = decompose01(x)
    parts = sorted(packing.parts, key=lambda p: (-len(p), p[0]))
    covered = [e for part in parts for e in part]
    rest = sorted(set(range(x.n)) - set(covered))
    perm = np.array(covered + rest, dtype=np.int64)
    return perm, tuple(len(p) for p in parts), len(rest)


def triangle_check01(x: SymMat):
    """Violated triples (i, j, k), j <= k, of the generalized triangle system.

    The j == k triples encode the pair inequalities X_ij <= X_ii.  Exact
    integer arithmetic; empty list iff the system holds.
    """
    _require_values(x, {0, 1}, "triangle_check01")
    ints = x.ints
    n = x.n
    out = []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(j, n):
                if k == i:
                    continue
                if ints[i, j] + ints[i, k] - ints[j, k] > ints[i, i]:
                    out.append((i, j, k))
    return out


@dataclass(frozen=True)
class RankCertificate:
    """Bordered-matrix witness for a rank bound on a PSD binary matrix."""

    kind: str  # "upper" | "exact"
    r: int
    witness: np.ndarray | None
    bordered: SymMat


def upper_certificate(x: SymMat, r: int) -> RankCertificate:
    d = x.diag()
    y = np.zeros((x.n + 1, x.n + 1))
    y[0, 0] = r
    y[0, 1:] = d
    y[1:, 0] = d
    y[1:, 1:] = x.array
    return RankCertificate("upper", r, None, SymMat(y, check_symmetry=False))


def rank_upper_certificate(x: SymMat, r: int) -> bool:
    """True guarantees num_rank(x) <= r (bordered LMI test)."""
    _require_values(x, {0, 1}, "rank_upper_certificate")
    _need_rank(x.n, r)
    return is_psd(upper_certificate(x, r).bordered)


def exact_certificate(x: SymMat, p) -> RankCertificate:
    """Bordered witness [[I_r, P^T], [P, X]] asserting rank exactly r."""
    p = np.asarray(p, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] != x.n:
        raise ShapeMismatch(f"witness must be {x.n} x r, got {p.shape}")
    r = p.shape[1]
    y = np.zeros((r + x.n, r + x.n))
    y[:r, :r] = np.eye(r)
    y[:r, r:] = p.T
    y[r:, :r] = p
    y[r:, r:] = x.array
    return RankCertificate("exact", r, p, SymMat(y, check_symmetry=False))


def rank_exact_certificate(x: SymMat, p) -> bool:
    """True guarantees num_rank(x) == r for the n x r binary witness p."""
    _require_values(x, {0, 1}, "rank_exact_certificate")
    cert = exact_certificate(x, p)
    p = cert.witness
    if not np.all((p == 0) | (p == 1)):
        raise PreconditionViolated("witness must be binary")
    if not np.all(p.sum(axis=0) >= 1):
        return False
    if not np.array_equal(p.sum(axis=1), np.diag(x.ints)):
        return False
    return is_psd(cert.bordered)


def rank1_iff_binary(y: SymMat):
    """(rank(Y) == 1, Y binary) for a bordered PSD matrix with diag tie.

    Precondition: the lower-block diagonal equals the border row and Y is PSD;
    violations raise.  With corner value 1 the two predicates coincide; the
    corner value is not constrained here so that higher-corner
    counterexamples can be classified instead of erroring.
    """
    if y.n < 2:
        raise PreconditionViolated("bordered matrix needs order >= 2")
    border = y.array[0, 1:]
    inner_diag = np.diag(y.array)[1:]
    if not np.array_equal(border, inner_diag):
        raise PreconditionViolated("diag of lower block must equal the border row")
    if not is_psd(y):
        raise PreconditionViolated("bordered matrix is not PSD")
    binary = bool(np.all((y.array == 0.0) | (y.array == 1.0)))
    return num_rank(y) == 1, binary


# ---------------------------------------------------------------------------
# {+-1} theory
# ---------------------------------------------------------------------------

def decompose_pm1(x: SymMat) -> np.ndarray:
    """Sign vector with x = s s^T and s[0] = +1; NotPsd when none exists."""
    _require_values(x, {-1, 1}, "decompose_pm1")
    s = x.ints[0].copy()  # first row: s[0] * s, and s[0] = +1 by convention
    if not np.array_equal(np.outer(s, s), x.ints):
        raise NotPsd("matrix is not a sign-vector outer product")
    return s


def pm1_to_01_rank2(x: SymMat) -> SymMat:
    """Y = (X + J)/2, the rank <= 2 binary companion of a sign matrix."""
    _require_values(x, {-1, 1}, "pm1_to_01_rank2")
    return SymMat((x.ints + 1) // 2, check_symmetry=False)


# ---------------------------------------------------------------------------
# {0,+-1} theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TernaryBlocks:
    """Signed block form Q X Q^T = b_1 b_1^T (+) ... (+) b_r b_r^T (+) 0.

    `perm` is the index array with x[perm][:, perm] in block form; each sign
    vector starts with +1.
    """

    n: int
    perm: np.ndarray
    blocks: tuple  # tuple of +-1 int arrays, sizes descending
    n_z: int

    def to_vectors(self):
        """Vectors x_i in original coordinates with X = sum x_i x_i^T."""
        vecs = []
        offset = 0
        for b in self.blocks:
            v = np.zeros(self.n, dtype=np.int64)
            v[self.perm[offset:offset + len(b)]] = b
            vecs.append(v)
            offset += len(b)
        return vecs

    def reconstruct(self) -> SymMat:
        x = np.zeros((self.n, self.n), dtype=np.int64)
        for v in self.to_vectors():
            x += np.outer(v, v)
        return SymMat(x, check_symmetry=False)


def decompose_ternary(x: SymMat) -> TernaryBlocks:
    """Signed block decomposition of a PSD ternary matrix (exact).

    NotPsd when the support or sign structure exhibits one of the forbidden
    3x3 patterns (some pair in a row's support with a vanishing or
    inconsistent entry).
    """
    _require_values(x, {-1, 0, 1}, "decompose_ternary")
    ints = x.ints
    n = x.n
    blocks = []
    for i in range(n):
        if ints[i, i] == -1:
            raise NotPsd(f"negative diagonal entry at {i}")
        if ints[i, i] == 0 and np.any(ints[i]):
            raise NotPsd(f"zero diagonal with nonzero row at {i}")
    seen = set()
    for i in range(n):
        if ints[i, i] == 0 or i in seen:
            continue
        sup = np.flatnonzero(ints[i])
        b = ints[i, sup]  # candidate signs relative to row i
        sub = ints[np.ix_(sup, sup)]
        if not np.array_equal(sub, np.outer(b, b)):
            raise NotPsd(f"support of row {i} is not a consistent sign block")
        for j in sup.tolist():
            if not np.array_equal(np.flatnonzero(ints[j]), sup):
                raise NotPsd(f"rows {i} and {j} have mismatched supports")
        members = sup.tolist()
        seen.update(members)
        # normalize the block's sign vector to start with +1
        signs = b if b[0] == 1 else -b
        blocks.append((members, signs))
    blocks.sort(key=lambda blk: (-len(blk[0]), blk[0][0]))
    covered = [e for blk in blocks for e in blk[0]]
    rest = sorted(set(range(n)) - set(covered))
    perm = np.array(covered + rest, dtype=np.int64)
    return TernaryBlocks(
        n, perm, tuple(np.array(signs, dtype=np.int64) for _, signs in blocks), len(rest)
    )


def ternary_rank1_check(y: SymMat) -> bool:
    """Bordered rank-1 test for ternary matrices.

    Precondition: Y_00 = 1 and supp(diag of the lower block) = supp(border).
    Returns True iff Y is ternary and PSD; the equivalent combinatorial
    condition X = x x^T is computed alongside and asserted to agree.
    """
    if y.n < 2:
        raise PreconditionViolated("bordered matrix needs order >= 2")
    arr = y.array
    if arr[0, 0] != 1.0:
        raise PreconditionViolated("corner entry must be 1")
    border = arr[0, 1:]
    inner_diag = np.diag(arr)[1:]
    if not np.array_equal(border != 0.0, inner_diag != 0.0):
        raise PreconditionViolated("supp(diag(X)) must equal supp(x)")
    lmi_side = y.values_in({-1, 0, 1}) and is_psd(y)
    outer_side = np.array_equal(arr[1:, 1:], np.outer(border, border))
    assert lmi_side == outer_side, "ternary rank-1 equivalence violated"
    return lmi_side


# ---------------------------------------------------------------------------
# enumeration and counting
# ---------------------------------------------------------------------------

def _need_rank(n, r):
    if not 0 <= r <= n:
        raise PreconditionViolated(f"need 0 <= r <= n, got r={r}, n={n}")


def _packings_Dnr(n, r):
    """The packings of `enumerate_Dnr(n, r)`, in its order."""
    _need_rank(n, r)
    if n > ENUM_MAX_N:
        raise SizeLimit(f"enumerate_Dnr is desk-scale only (n <= {ENUM_MAX_N})")
    return sorted(iter_packings(n, r), key=Packing.upper)


def enumerate_Dnr(n, r):
    """All PSD binary n x n matrices of rank <= r, upper-triangle lex order.

    Generated through the packing bijection, sorted by `Packing.upper` in ints
    before any matrix is built, rather than by filtering all 2^(n(n+1)/2)
    symmetric binary matrices.  D^n_0 holds the zero matrix alone.
    """
    return [p.to_matrix() for p in _packings_Dnr(n, r)]


def stirling2(n, k):
    """Stirling number of the second kind, exact integers via the recurrence."""
    if k < 0 or k > n:
        return 0
    row = [1] + [0] * k  # S(0, 0..k)
    for m in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def count_Dnr(n, r):
    """|D^n_r| = sum_{k=1}^{r+1} S(n+1, k), exact."""
    _need_rank(n, r)
    if n > 60:
        raise SizeLimit("count_Dnr supports n <= 60")
    return sum(stirling2(n + 1, k) for k in range(1, r + 2))


# ---------------------------------------------------------------------------
# polytope membership (exact rational LP)
# ---------------------------------------------------------------------------

@dataclass
class MembershipResult:
    member: bool
    # on success: weight per generator (packing or subset), zeros dropped
    weights: dict | None
    # on failure: exact separating functional (G, gamma) with <G, V> <= gamma
    # for every vertex V of the polytope but <G, x> > gamma
    separating: tuple | None

    def __bool__(self):
        return self.member


def _rational_matrix(x, n=None):
    if isinstance(x, SymMat):
        arr = [[Fraction(float(v)) for v in row] for row in x.array]
    else:
        arr = [[Fraction(v) for v in row] for row in x]
    if n is not None and len(arr) != n:
        raise DimensionMismatch(f"expected order {n}")
    m = len(arr)
    for row in arr:
        if len(row) != m:
            raise DimensionMismatch("matrix is not square")
    for i in range(m):
        for j in range(m):
            if arr[i][j] != arr[j][i]:
                raise DimensionMismatch("matrix is not symmetric")
    return arr


def _upper_entries(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def membership_Pnr(x, r) -> MembershipResult:
    """Exact membership of x in conv(D^n_r) via the packing description."""
    xi = _rational_matrix(x)
    n = len(xi)
    if n > MEMBERSHIP_MAX_N:
        raise SizeLimit(f"membership_Pnr is desk-scale only (n <= {MEMBERSHIP_MAX_N})")
    _need_rank(n, r)
    entries = _upper_entries(n)
    packings = list(iter_packings(n, r))
    columns = [p.upper() + [1] for p in packings]
    rhs = [xi[i][j] for i, j in entries] + [1]
    res = solve_feasibility(columns, rhs)
    if res.feasible:
        weights = {p: w for p, w in zip(packings, res.x) if w != 0}
        return MembershipResult(True, weights, None)
    return MembershipResult(False, None, _separating(res.farkas, entries, n))


def membership_Rnr(x, r) -> MembershipResult:
    """Exact membership in the subset-weight relaxation R^n_r."""
    xi = _rational_matrix(x)
    n = len(xi)
    if n > MEMBERSHIP_MAX_N:
        raise SizeLimit(f"membership_Rnr is desk-scale only (n <= {MEMBERSHIP_MAX_N})")
    _need_rank(n, r)
    entries = _upper_entries(n)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)))
    columns = []
    for s in subsets:
        inset = set(s)
        col = [int(i in inset and j in inset) for i, j in entries]
        col.append(1)  # total-weight row
        col.extend(int(i in inset) for i in range(n))  # <= 1 rows
        columns.append(col)
    rhs = [xi[i][j] for i, j in entries] + [r] + [1] * n
    res = solve_feasibility(columns, rhs, n_le=n)
    if res.feasible:
        weights = {s: w for s, w in zip(subsets, res.x) if w != 0}
        return MembershipResult(True, weights, None)
    return MembershipResult(False, None, _separating(res.farkas, entries, n))


def _separating(y, entries, n):
    """Repackage a Farkas vector as a symmetric functional plus offset."""
    g = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), w in zip(entries, y):
        g[i][j] = w
        g[j][i] = w
    return g, -y[len(entries)]
