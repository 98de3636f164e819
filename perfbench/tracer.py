"""Spans recorded from outside the package, around calls into each layer.

`Tracer.install` wraps the public functions listed in `TRACED` at every
module attribute of the loaded ``misdpkit`` modules that is bound to them, so
``misdpkit.model.is_psd`` and ``misdpkit.verify.is_psd`` are both caught.
Spans live in flat arrays in memory and are written once, by `save`.

A span is (name, start, end, parent, op).  Spans nest because every traced
call is synchronous; a span's self time is its duration minus the durations
of its direct children.
"""

import sys
from array import array

import numpy as np

from speed import CLOCK

# span name -> (module, attribute); methods are given as "Class.method"
TRACED = {
    "linalg.is_psd": ("misdpkit.linalg", "is_psd"),
    "linalg.eigensym": ("misdpkit.linalg", "eigensym"),
    "linalg.num_rank": ("misdpkit.linalg", "num_rank"),
    "model.eval_point": ("misdpkit.model", "eval_point"),
    "model.MatrixPencil.evaluate": ("misdpkit.model", "MatrixPencil.evaluate"),
    "model.export_json": ("misdpkit.model", "export_json"),
    "model.import_json": ("misdpkit.model", "import_json"),
    "verify.solve_by_enumeration": ("misdpkit.verify", "solve_by_enumeration"),
    "verify.oracle": ("misdpkit.verify", "oracle"),
    "cbf.export_cbf": ("misdpkit.cbf", "export_cbf"),
    "cbf.import_cbf": ("misdpkit.cbf", "import_cbf"),
    "dpsd.enumerate_Dnr": ("misdpkit.dpsd", "enumerate_Dnr"),
    "dpsd.decompose01": ("misdpkit.dpsd", "decompose01"),
    "dpsd.decompose_pm1": ("misdpkit.dpsd", "decompose_pm1"),
    "dpsd.decompose_ternary": ("misdpkit.dpsd", "decompose_ternary"),
    "dpsd.triangle_check01": ("misdpkit.dpsd", "triangle_check01"),
    "dpsd.membership_Pnr": ("misdpkit.dpsd", "membership_Pnr"),
    "dpsd.membership_Rnr": ("misdpkit.dpsd", "membership_Rnr"),
    "exactlp.solve_feasibility": ("misdpkit.exactlp", "solve_feasibility"),
    "schemes.verify_axioms": ("misdpkit.schemes", "verify_axioms"),
}
# every build_* function of these modules is traced as "<module>.<name>"
BUILDER_MODULES = ("misdpkit.problems", "misdpkit.formulations")


def _psd_tag(args, kwargs):
    """order * 2 + (1 if the data is not integer-valued) for an is_psd call."""
    a = args[0] if args else kwargs["a"]
    ints = getattr(a, "ints", False)
    if ints is not False:  # SymMat keeps an exact shadow when integral
        return a.n * 2 + (ints is None)
    arr = np.asarray(a)
    return arr.shape[0] * 2 + (not np.array_equal(np.rint(arr), arr))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")      # is_psd: order*2+float, else -1
        self.counts = {}           # named counters gathered at span boundaries
        self.current_op = -1
        self._stack = [-1]
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid, tag=-1):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.tag.append(tag)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def close(self, idx):
        self.end[idx] = CLOCK()
        self._stack.pop()

    def relabel(self, idx, nid):
        self.name[idx] = nid

    def count(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name, fn):
        nid = self.name_id(name)
        after = _AFTER.get(name)
        if name.rsplit(".", 1)[-1].startswith("build_"):
            after = _after_build
        tagger = _psd_tag if name == "linalg.is_psd" else None
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid, tagger(args, kwargs) if tagger else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function at each misdpkit binding of it."""
        targets = []
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls, meth = attr.split(".")
                owner, attr = getattr(owner, cls), meth
            targets.append((name, getattr(owner, attr)))
        for modname in BUILDER_MODULES:
            mod = sys.modules[modname]
            short = modname.rsplit(".", 1)[1]
            targets += [(f"{short}.{a}", getattr(mod, a)) for a in dir(mod)
                        if a.startswith("build_") and callable(getattr(mod, a))]
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        holders = [m for n, m in list(sys.modules.items()) if n.startswith("misdpkit")]
        holders += [v for m in holders for v in vars(m).values() if isinstance(v, type)]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def arrays(self, probe):
        """Spans as NumPy arrays, with the reference time and self time of each.

        `probe` is the `speed.SpeedProbe` that ran during the pass; the
        reference samples it took inside a span (`ref`) are not the span's
        work, so `dur` and `self` leave them out.
        """
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        ref = probe.spent(start, end)
        dur = end - start - ref
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "tag": np.array(self.tag, dtype=np.int32),
            "ref": ref,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path, arrays, origin):
        """Write `arrays` as an .npz, with times in seconds since `origin`."""
        a = dict(arrays, start=arrays["start"] - origin, end=arrays["end"] - origin)
        np.savez(path, names=np.array(self.names), **a)


def _after_eval_point(tracer, res):
    tracer.count("eval_point.feasible", bool(res.feasible))


def _after_enumeration(tracer, res):
    tracer.count("enumeration.nodes", res.nodes)


def _after_build(tracer, m):
    tracer.count("model.builds")
    tracer.count("model.vars", len(m.variables))
    tracer.count("model.rows", len(m.rows))
    tracer.count("model.pencil_terms", sum(len(p.terms) for p in m.pencils))
    order = max((p.order for p in m.pencils), default=0)
    tracer.counts["model.pencil_order_max"] = max(tracer.counts.get("model.pencil_order_max", 0), order)


def _after_bytes(key):
    return lambda tracer, text: tracer.count(key, len(text.encode()))


_AFTER = {
    "model.eval_point": _after_eval_point,
    "verify.solve_by_enumeration": _after_enumeration,
    "cbf.export_cbf": _after_bytes("cbf.bytes"),
    "model.export_json": _after_bytes("model.json_bytes"),
}
