"""The hint rules: what a builder may tell the search about its continuous
variables.

`_HINT_RULES` is the one list of hint rules a model's metadata may name: each
entry gives its stage, the variables it covers, and any pruning-only rows
("valid_cuts") that every integer-feasible point satisfies.  A hint naming
any other rule raises ValueError.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .formulations import mname
from .linalg import eigensym
from .model import LinRow


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
    """One hint rule: `fields` names what a hint of the rule must hold besides
    "rule"; `apply(hint, model, assign)` runs in `stage` (None: never
    at a leaf); `covers(hint)` names the variables it determines, which the
    exact closure leaves alone; `valid_cuts(hint)` gives pruning-only rows;
    `lifts(hint)` gives (target, inputs, value) for targets that `apply` sets
    to `value(assign)`, a function of the variables `inputs` alone.
    """

    fields: tuple
    stage: object = None
    apply: object = None
    covers: object = lambda hint: ()
    valid_cuts: object = lambda hint: ()
    lifts: object = lambda hint: ()


# The one list of hint rules that builders may emit in metadata["hints"].
_HINT_RULES = {
    "gram": _HintRule(("factors", "targets"), _LIFT, _apply_gram, covers=lambda h: [t[0] for t in h["targets"]],
                      lifts=_gram_lifts),
    "cycle_distance": _HintRule(("n", "base", "others"), _LIFT, _apply_cycle_distance,
                                covers=_cycle_distance_covers),
    "qap_schur": _HintRule(("n", "x", "r", "y", "z"), _FORCED, _apply_qap_schur),
    "nuclear": _HintRule(("pencil", "rows", "cols", "z1", "z2"), _PENDING, _apply_nuclear),
    "valid_cuts": _HintRule(("rows",), valid_cuts=lambda h: [
        LinRow(tuple((nm, c) for nm, c in r["coeffs"]), r["rel"], r["rhs"]) for r in h["rows"]
    ]),
}
