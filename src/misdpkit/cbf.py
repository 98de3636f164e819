"""Conic Benchmark Format (v2) subset writer and reader.

Scalar variables live in F or L+ cones; remaining domain bounds become
trailing linear rows so external MISDP solvers see the full integer hull.
Because CBF has no notion of binary/ternary/finite-set domains, the exact
domain list, the count of synthesized bound rows and the model metadata are
carried in '#' comment lines; import_cbf reads them back exactly and falls
back to a generic reading on foreign files.  Integers are written as decimal
integers, and the integer tokens of the objective and row sections
(OBJACOORD, OBJBCOORD, ACOORD, BCOORD) and the PSD sections (HCOORD,
DCOORD) are read back as ints, of any size.  Every other number is written
as a 17-digit float, so Fraction data and pencil entries in Z[2cos(2pi/n)]
do not come back exactly; the coordinates of the PSD sections go to each
pencil as they are, and a coordinate given twice, in either triangle, is
refused.  A finite-set domain with gaps has no
such row encoding, so export_cbf refuses it.  import_cbf raises only
ParseError, with the line number, on malformed or out-of-range input.
"""

import json
import math
import numbers
import re
from fractions import Fraction

from .errors import MisdpkitError, ParseError, UnsupportedDomain, loads_json
from .model import (
    BINARY,
    FINITE_SET,
    INTEGER_RANGE,
    TERNARY,
    LinRow,
    MatrixPencil,
    MisdpModel,
    Objective,
    VarDomain,
    check_dense_entries,
    check_exportable,
    validate,
)

_REL_CONE = {"==": "L=", "<=": "L-", ">=": "L+"}
_CONE_REL = {v: k for k, v in _REL_CONE.items()}
_FOREIGN_INT_BOUND = 2**31


def _num(v) -> str:
    return str(int(v)) if isinstance(v, numbers.Integral) else f"{float(v):.17g}"


def _enc_bound(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float) and not v.is_integer():
        return repr(v)
    return str(int(v))


def _dec_bound(s: str):
    if s == "":
        return None
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    try:
        return int(s)
    except ValueError:
        return float(s)


def _domain_code(d: VarDomain) -> str:
    if d.kind == BINARY:
        return "b"
    if d.kind == TERNARY:
        return "t"
    if d.kind == INTEGER_RANGE:
        return f"i:{_enc_bound(d.lo)}:{_enc_bound(d.hi)}"
    if d.kind == FINITE_SET:
        return "f:" + "|".join(_enc_bound(v) for v in d.values)
    if d.lo is None and d.hi is None:
        return "c"
    return f"c:{_enc_bound(d.lo)}:{_enc_bound(d.hi)}"


def _domain_from_code(code: str) -> VarDomain:
    if code == "b":
        return VarDomain.binary()
    if code == "t":
        return VarDomain.ternary()
    if code == "c":
        return VarDomain.continuous()
    kind, _, rest = code.partition(":")
    if kind == "i":
        lo, _, hi = rest.partition(":")
        return VarDomain.integer_range(_dec_bound(lo), _dec_bound(hi))
    if kind == "f":
        values = [_dec_bound(v) for v in rest.split("|")]
        if None in values:
            raise ParseError(f"empty value in domain code {code!r}")
        return VarDomain.finite_set(values)
    if kind == "c":
        lo, _, hi = rest.partition(":")
        return VarDomain.continuous(_dec_bound(lo), _dec_bound(hi))
    raise ParseError(f"unknown domain code {code!r}")


def _var_cone(d: VarDomain) -> str:
    return "L+" if d.lo == 0 else "F"


def _bound_rows(variables):
    """Rows encoding the domain bounds not captured by the variable cone."""
    rows = []
    for name, d in variables:
        lo, hi = d.lo, d.hi
        if d.kind == FINITE_SET and d.values != tuple(range(int(lo), int(hi) + 1)):
            raise UnsupportedDomain(
                f"finite_set domain of {name!r} has gaps, which CBF bound rows cannot express"
            )
        if lo is not None and not (lo == 0 and _var_cone(d) == "L+"):
            rows.append(LinRow(((name, 1),), ">=", lo))
        if hi is not None:
            rows.append(LinRow(((name, 1),), "<=", hi))
    return rows


def export_cbf(model: MisdpModel) -> str:
    check_exportable(model)
    index = {name: i for i, (name, _) in enumerate(model.variables)}
    bound_rows = _bound_rows(model.variables)
    all_rows = list(model.rows) + bound_rows

    out = ["VER", "2", ""]
    out.append("# misdpkit-domains: " + " ".join(_domain_code(d) for _, d in model.variables))
    out.append("# misdpkit-names: " + " ".join(n for n, _ in model.variables))
    out.append(f"# misdpkit-boundrows: {len(bound_rows)}")
    if model.metadata:
        out.append("# misdpkit-meta: " + json.dumps(model.metadata, sort_keys=True, separators=(",", ":"), allow_nan=False))
    out.append("")

    out += ["OBJSENSE", model.objective.sense.upper(), ""]

    groups = []
    for _, d in model.variables:
        cone = _var_cone(d)
        if groups and groups[-1][0] == cone:
            groups[-1][1] += 1
        else:
            groups.append([cone, 1])
    out += ["VAR", f"{len(model.variables)} {len(groups)}"]
    out += [f"{cone} {cnt}" for cone, cnt in groups]
    out.append("")

    ints = [i for i, (_, d) in enumerate(model.variables) if d.is_integer]
    if ints:
        out += ["INT", str(len(ints))]
        out += [str(i) for i in ints]
        out.append("")

    if model.pencils:
        out += ["PSDCON", str(len(model.pencils))]
        out += [str(p.order) for p in model.pencils]
        out.append("")

    if all_rows:
        rgroups = []
        for row in all_rows:
            cone = _REL_CONE[row.rel]
            if rgroups and rgroups[-1][0] == cone:
                rgroups[-1][1] += 1
            else:
                rgroups.append([cone, 1])
        out += ["CON", f"{len(all_rows)} {len(rgroups)}"]
        out += [f"{cone} {cnt}" for cone, cnt in rgroups]
        out.append("")

    obj_entries = sorted(
        ((index[n], c) for n, c in model.objective.coeffs.items() if c != 0),
    )
    if obj_entries:
        out += ["OBJACOORD", str(len(obj_entries))]
        out += [f"{j} {_num(c)}" for j, c in obj_entries]
        out.append("")
    if model.objective.constant != 0:
        out += ["OBJBCOORD", _num(model.objective.constant), ""]

    acoord = []
    bcoord = []
    for k, row in enumerate(all_rows):
        for n, c in row.coeffs:
            if c != 0:
                acoord.append((k, index[n], c))
        if row.rhs != 0:
            bcoord.append((k, -row.rhs))
    acoord.sort(key=lambda e: (e[0], e[1]))
    if acoord:
        out += ["ACOORD", str(len(acoord))]
        out += [f"{k} {j} {_num(c)}" for k, j, c in acoord]
        out.append("")
    if bcoord:
        out += ["BCOORD", str(len(bcoord))]
        out += [f"{k} {_num(v)}" for k, v in bcoord]
        out.append("")

    hcoord = []  # CBF lists the lower triangle: upper-triangle entry (r, c) is (c, r)
    dcoord = []
    for p, pencil in enumerate(model.pencils):
        for name, entries in pencil.terms:
            hcoord += [(p, index[name], c, r, v) for r, c, v in entries]
        dcoord += [(p, c, r, v) for r, c, v in pencil.entries[0]]
    hcoord.sort(key=lambda e: (e[0], e[1], e[2], e[3]))
    dcoord.sort(key=lambda e: (e[0], e[1], e[2]))
    if hcoord:
        out += ["HCOORD", str(len(hcoord))]
        out += [f"{p} {j} {r} {c} {_num(v)}" for p, j, r, c, v in hcoord]
        out.append("")
    if dcoord:
        out += ["DCOORD", str(len(dcoord))]
        out += [f"{p} {r} {c} {_num(v)}" for p, r, c, v in dcoord]
        out.append("")

    return "\n".join(out).rstrip("\n") + "\n"


_COUNT = range(2**31)  # counts, orders and PSD entry indices


def _real(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"{s!r} is not a finite number")
    return v


_DIGITS = re.compile(r"[+-]?\d+")


def _integer(s):
    """int(s); a decimal token past the interpreter's limit on digits is named too long."""
    try:
        return int(s)
    except ValueError:
        if _DIGITS.fullmatch(s):
            raise ValueError(f"integer token of {len(s.lstrip('+-'))} digits is too long") from None
        raise


def _scalar(s):
    """An objective or row number: an int when the token is one, else a finite float."""
    return _integer(s) if _DIGITS.fullmatch(s) else _real(s)


def _pencil_number(s):
    """A pencil number: `_scalar`, but within the float range, as a pencil's entries are."""
    v = _real(s)
    return int(s) if _DIGITS.fullmatch(s) else v


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0
        self.comments = {}    # key -> (value, line)

    def next(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                body = s[1:].strip()
                if body.startswith("misdpkit-"):
                    key, _, val = body.partition(":")
                    self.comments[key.strip()] = (val.strip(), self.pos)
                continue
            return s
        return None

    def expect(self, what):
        tok = self.next()
        if tok is None:
            raise ParseError(f"unexpected end of file, expected {what}", line=self.pos)
        return tok

    def error(self, msg):
        raise ParseError(msg, line=self.pos)

    def fields(self, what, *kinds):
        """The next line as one value per kind: a range reads an int that
        must lie in it, any other kind is applied to the text."""
        parts = self.expect(what).split()
        if len(parts) != len(kinds):
            self.error(f"{what} needs {len(kinds)} fields, got {len(parts)}")
        values = []
        try:
            for kind, part in zip(kinds, parts):
                if isinstance(kind, range):
                    v = _integer(part)
                    if v not in kind:
                        raise ValueError(f"{v} is outside [{kind.start}, {kind.stop})")
                    values.append(v)
                else:
                    values.append(kind(part))
        except ValueError as exc:
            self.error(f"{what}: {exc}")
        return values

    def count(self, what):
        return self.fields(what, _COUNT)[0]

    def groups(self, what, total, ngroups, cones):
        """`total` cone labels read from `ngroups` lines of (cone, count)."""
        labels = []
        for _ in range(ngroups):
            cone, cnt = self.fields(f"{what} group", str, _COUNT)
            if cone not in cones:
                self.error(f"unsupported {what} cone {cone!r}")
            if len(labels) + cnt > total:
                self.error(f"{what} group sizes exceed the count {total}")
            labels += [cone] * cnt
        if len(labels) != total:
            self.error(f"{what} group sizes do not sum to the count {total}")
        return labels

    def comment(self, key, parse, default):
        """`parse` of the misdpkit-`key` comment, `default` when it is absent."""
        if f"misdpkit-{key}" not in self.comments:
            return default
        val, line = self.comments[f"misdpkit-{key}"]
        try:
            return parse(val)
        except (ValueError, ArithmeticError, MisdpkitError) as exc:
            raise ParseError(f"misdpkit-{key}: {exc}", line=line) from None


def _per_variable(nv, item):
    def parse(val):
        items = [item(tok) for tok in val.split()]
        if len(items) != nv:
            raise ValueError(f"{len(items)} entries for {nv} variables")
        return items
    return parse


def _metadata(val):
    meta = loads_json(val)
    if not isinstance(meta, dict):
        raise ValueError("metadata must be a JSON object")
    return meta


def import_cbf(text: str) -> MisdpModel:
    """Read a CBF model; sections must come in CBF order (structure, then data)."""
    rd = _Reader(text)
    sense = "min"
    var_cones = []
    int_vars = set()
    psd_dims = []
    row_cones = []
    obj_coeffs = {}
    obj_const = 0
    acoord, bcoord, hcoord, dcoord = [], [], [], []

    seen = set()
    tok = rd.next()
    while tok is not None:
        if tok in seen:
            rd.error(f"section {tok} appears twice")
        seen.add(tok)
        nv, n_rows, n_psd = len(var_cones), len(row_cones), len(psd_dims)
        if tok == "VER":
            ver = rd.expect("version")
            if ver not in ("1", "2", "3"):
                rd.error(f"unsupported CBF version {ver}")
        elif tok == "OBJSENSE":
            sense = rd.expect("objective sense").lower()
            if sense not in ("min", "max"):
                rd.error(f"bad OBJSENSE {sense!r}")
        elif tok == "VAR":
            var_cones = rd.groups("VAR", *rd.fields("VAR header", _COUNT, _COUNT), ("F", "L+"))
        elif tok == "INT":
            for _ in range(rd.count("INT count")):
                int_vars.add(rd.fields("INT index", range(nv))[0])
        elif tok == "PSDCON":
            psd_dims = [rd.count("PSDCON dimension") for _ in range(rd.count("PSDCON count"))]
        elif tok == "CON":
            row_cones = rd.groups("CON", *rd.fields("CON header", _COUNT, _COUNT), _CONE_REL)
        elif tok == "OBJACOORD":
            for _ in range(rd.count("OBJACOORD count")):
                j, v = rd.fields("OBJACOORD entry", range(nv), _scalar)
                obj_coeffs[j] = v
        elif tok == "OBJBCOORD":
            obj_const = rd.fields("OBJBCOORD value", _scalar)[0]
        elif tok == "ACOORD":
            for _ in range(rd.count("ACOORD count")):
                acoord.append(rd.fields("ACOORD entry", range(n_rows), range(nv), _scalar))
        elif tok == "BCOORD":
            for _ in range(rd.count("BCOORD count")):
                bcoord.append(rd.fields("BCOORD entry", range(n_rows), _scalar))
        elif tok == "HCOORD":
            for _ in range(rd.count("HCOORD count")):
                p, j, r, c, v = rd.fields("HCOORD entry", range(n_psd), range(nv), _COUNT, _COUNT, _pencil_number)
                if max(r, c) >= psd_dims[p]:
                    rd.error(f"HCOORD entry ({r}, {c}) outside PSD cone {p} of order {psd_dims[p]}")
                hcoord.append((p, j, r, c, v))
        elif tok == "DCOORD":
            for _ in range(rd.count("DCOORD count")):
                p, r, c, v = rd.fields("DCOORD entry", range(n_psd), _COUNT, _COUNT, _pencil_number)
                if max(r, c) >= psd_dims[p]:
                    rd.error(f"DCOORD entry ({r}, {c}) outside PSD cone {p} of order {psd_dims[p]}")
                dcoord.append((p, r, c, v))
        else:
            rd.error(f"unsupported CBF section {tok!r}")
        tok = rd.next()

    nv, n_rows = len(var_cones), len(row_cones)
    names = rd.comment("names", _per_variable(nv, str), [f"v{i}" for i in range(nv)])
    domains = rd.comment("domains", _per_variable(nv, _domain_from_code), None)
    if domains is None:
        domains = []
        for i, cone in enumerate(var_cones):
            lo = 0 if cone == "L+" else None
            if i in int_vars:
                domains.append(VarDomain.integer_range(lo if lo is not None else -_FOREIGN_INT_BOUND,
                                                       _FOREIGN_INT_BOUND))
            else:
                domains.append(VarDomain.continuous(lo))
    n_bound = rd.comment("boundrows", lambda val: range(n_rows + 1).index(int(val)), 0)
    metadata = rd.comment("meta", _metadata, {})

    row_coeffs = [[] for _ in range(n_rows)]
    row_rhs = [0] * n_rows
    for k, j, v in acoord:
        row_coeffs[k].append((names[j], v))
    for k, v in bcoord:
        row_rhs[k] = -v
    rows = [
        LinRow(tuple(row_coeffs[k]), _CONE_REL[row_cones[k]], row_rhs[k])
        for k in range(n_rows - n_bound)
    ]

    objective = Objective(sense, {names[j]: v for j, v in sorted(obj_coeffs.items())}, obj_const)
    variables = list(zip(names, domains))
    defects = validate(MisdpModel(variables, objective, rows, metadata=metadata))
    if defects:
        raise ParseError(f"model has defects: {defects}")

    # the pencils' term names are the variables' names, so a name given twice
    # is refused above as a defect and never merges two terms
    terms = [{} for _ in psd_dims]
    for p, j, r, c, v in hcoord:
        terms[p].setdefault(j, []).append((r, c, v))
    consts = [[] for _ in psd_dims]
    for p, r, c, v in dcoord:
        consts[p].append((r, c, v))
    pencils = []
    for p, d in enumerate(psd_dims):
        try:
            pencils.append(MatrixPencil(d, consts[p], [(names[j], e) for j, e in sorted(terms[p].items())]))
        except ValueError as exc:  # a coordinate given twice
            raise ParseError(f"PSD cone {p}: {exc}") from None
    check_dense_entries(pencils)
    return MisdpModel(variables, objective, rows, pencils, metadata)
