"""The hint rules: what a builder may tell the search about its continuous
variables.

`_HINT_RULES` is the one list of hint rules a model's metadata may name: each
entry gives its stage, the variables it sets, and any pruning-only rows
("valid_cuts") that every integer-feasible point satisfies.  A hint naming
any other rule raises ValueError.  A leaf runs the "lift" stage (values
pinned by the integer part) and the "forced" one (blocks fixed once the
closure ran); a staged rule's `covers` names exactly what its `apply` writes.
The rules read a matrix variable's entries by the names the builders gave
them, through the one walker `formulations.upper` (prefix[i,j] over the upper
triangle, row by row).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .formulations import mname, upper
from .linalg import eigensym
from .model import LinRow


def _gram_entry(left, right, assign):
    return sum(assign[a] * assign[b] for a, b in zip(left, right))


def _gram_value(left, right):
    """The gram entry `left . right` as a function of the assignment: one product for X = x x^T."""
    if len(left) == len(right) == 1:
        (a,), (b,) = left, right
        return lambda assign: assign[a] * assign[b]
    return functools.partial(_gram_entry, left, right)


def _apply_gram(hint, model, assign):
    for target, _, value in _gram_lifts(hint):
        if target not in assign:
            assign[target] = value(assign)


def _gram_lifts(hint):
    factors = hint["factors"]
    return [(target, factors[i] + factors[j], _gram_value(factors[i], factors[j])) for target, i, j in hint["targets"]]


def _apply_cycle_distance(hint, model, assign):
    n = hint["n"]
    x1 = np.zeros((n, n), dtype=np.int64)
    for name, i, j in upper(hint["base"], n, 1):
        x1[i, j] = x1[j, i] = assign[name]
    prev = np.eye(n, dtype=np.int64)
    cur = x1
    for t, prefix in enumerate(hint["others"]):
        nxt = x1 @ cur - (2 * prev if t == 0 else prev)
        prev, cur = cur, nxt
        for name, i, j in upper(prefix, n, 1):
            assign.setdefault(name, int(cur[i, j]))


def _apply_qap_schur(hint, model, assign):
    n = hint["n"]
    x = [[assign[mname(hint["x"], i, j)] for j in range(n)] for i in range(n)]
    r = [[assign[mname(hint["r"], i, j)] for j in range(n)] for i in range(n)]
    for (y, a, b), (z, _, _) in zip(upper(hint["y"], n), upper(hint["z"], n)):
        assign.setdefault(y, sum(x[a][t] * r[b][t] for t in range(n)))
        assign.setdefault(z, sum(r[a][t] * r[b][t] for t in range(n)))


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
    for prefix, z, size in ((hint["z1"], z1, n), (hint["z2"], z2, m)):
        for name, i, j in upper(prefix, size):
            assign.setdefault(name, float(z[i, j]))


# Leaf-pipeline stages, in the order a leaf runs them (see solve_by_enumeration).
_LIFT, _FORCED = "lift", "forced"


@dataclass(frozen=True)
class _HintRule:
    """One hint rule: `fields` names what a hint of the rule must hold besides
    "rule"; `apply(hint, model, assign)` runs in `stage` (None: never at a
    leaf) and writes exactly the variables `covers(hint)` names, which the
    exact closure leaves alone; `valid_cuts(hint)` gives pruning-only rows;
    `lifts(hint)` gives (target, inputs, value) for targets that `apply` sets
    to `value(assign)`, a function of the variables `inputs` alone;
    `pencils(hint)` gives the indices of the model's pencils `apply` reads.
    """

    fields: tuple
    stage: object = None
    apply: object = None
    covers: object = lambda hint: ()
    valid_cuts: object = lambda hint: ()
    lifts: object = lambda hint: ()
    pencils: object = lambda hint: ()


# The one list of hint rules that builders may emit in metadata["hints"].
_HINT_RULES = {
    "gram": _HintRule(("factors", "targets"), _LIFT, _apply_gram, covers=lambda h: [t[0] for t in h["targets"]],
                      lifts=_gram_lifts),
    "cycle_distance": _HintRule(("n", "base", "others"), _LIFT, _apply_cycle_distance,
                                covers=lambda h: [t[0] for p in h["others"] for t in upper(p, h["n"], 1)]),
    "qap_schur": _HintRule(("n", "x", "r", "y", "z"), _FORCED, _apply_qap_schur,
                           covers=lambda h: [t[0] for p in (h["y"], h["z"]) for t in upper(p, h["n"])]),
    "nuclear": _HintRule(("pencil", "rows", "cols", "z1", "z2"), _FORCED, _apply_nuclear,
                         covers=lambda h: [t[0] for t in upper(h["z1"], h["rows"]) + upper(h["z2"], h["cols"])],
                         pencils=lambda h: [h["pencil"]]),
    "valid_cuts": _HintRule(("rows",), valid_cuts=lambda h: [
        LinRow(tuple((nm, c) for nm, c in r["coeffs"]), r["rel"], r["rhs"]) for r in h["rows"]
    ]),
}
