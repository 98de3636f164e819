"""One workload in one process: set up, run passes, check, report.

Started by ``run.py``, which sets the environment (single-threaded BLAS,
``PYTHONPATH``) and adds ``setup_s``.  Run alone for debugging as

    PYTHONPATH=src python3 perfbench/bench.py --workload verify-float --seed 0 --seconds 5 --trace 0

The load is a closed loop with one caller: operations run back to back on
one thread, and times are CPU seconds of that thread (see ``speed.py``).
A run repeats whole passes over the workload's inputs while the next pass
should end within ``--seconds`` of wall time (at least one pass).  With
``--trace 1`` it runs untraced passes for half the time, then one traced
pass, and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is ``RESULT <json>`` for ``run.py``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from speed import CLOCK, SpeedProbe, time_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REF_CALLS = 20  # reference timings a --setup-only process prints after READY
OUT_DIR = os.path.join(ROOT, ".bench_out")

# orders and suites of the fixed per-layer metric list in BENCHMARK.json; each
# is printed on every workload, as 0 where the workload does not reach it
PSD_ORDERS = {"int": (1, 2, 3, 4, 5, 6, 9), "float": (4, 5, 6)}
SUITE_NAMES = (
    "completion-2x2", "cvetkovic-hamiltonicity", "gpp-cross", "kep-gep-vs-assoc",
    "mkcs-small", "qap-random", "qbpp-random", "qcqp-random", "qmkp-random",
    "sils-small", "stable-set-n4", "stable-set-n5", "tsp-small",
)


@dataclass
class PassResult:
    start: float = 0.0
    end: float = 0.0
    wall: float = 0.0
    op_spans: list = field(default_factory=list)    # (op index, start, end) per completed op
    attempted: int = 0
    failures: list = field(default_factory=list)    # one line per failed op
    lines: dict = field(default_factory=dict)       # group -> report lines
    group_spans: dict = field(default_factory=dict)  # group -> (start, end)
    group_wall: dict = field(default_factory=dict)   # group -> wall seconds


class NullTracer:
    current_op = -1

    def name_id(self, name):
        return 0

    def open(self, nid, tag=-1):
        return 0

    def close(self, idx):
        pass

    def relabel(self, idx, nid):
        pass


def run_pass(groups, tracer=None):
    """Run each group's steps back to back; time each step, then check it."""
    tracer = tracer or NullTracer()
    op_id = tracer.name_id("op")
    end_id = tracer.name_id("group_end")  # the step that found a group exhausted
    res = PassResult()
    clock = CLOCK
    wall0 = time.perf_counter()
    res.start = clock()
    for name, steps, check, stop_on_error in groups:
        lines = res.lines.setdefault(name, [])
        group_span = tracer.open(tracer.name_id(name))
        wall_group = time.perf_counter()
        t_group = clock()
        for k, step in enumerate(steps):
            tracer.current_op = res.attempted
            span = tracer.open(op_id)
            t0 = clock()
            try:
                item = step()
            except StopIteration:
                tracer.close(span)
                tracer.relabel(span, end_id)
                break
            except Exception as exc:  # a crash is a failed op, not a dead run
                tracer.close(span)
                res.attempted += 1
                res.failures.append(f"{name}#{k}: {type(exc).__name__}: {exc}")
                if stop_on_error:
                    break
                continue
            t1 = clock()
            tracer.close(span)
            res.op_spans.append((res.attempted, t0, t1))
            res.attempted += 1
            ok, line = check(item)
            if line is not None:
                lines.append(line)
            if not ok:
                res.failures.append(f"{name}#{k}: check failed {line or ''}".rstrip())
        res.group_spans[name] = (t_group, clock())
        res.group_wall[name] = time.perf_counter() - wall_group
        tracer.close(group_span)
    res.end = clock()
    res.wall = time.perf_counter() - wall0
    tracer.current_op = -1
    return res


@dataclass
class PassTimes:
    seconds: float
    latencies: dict  # op index -> seconds
    groups: dict


def pass_times(p, probe):
    """(raw, normalized) PassTimes of a pass, in CPU seconds.

    The reference samples the `SpeedProbe` took inside a span are removed from
    it, and the rest is rescaled to nominal machine speed.  The time between
    operations (checks, loop) is rescaled by the factor of the whole pass.
    """
    ops = {k: probe.rescale(t0, t1) for k, t0, t1 in p.op_spans}
    groups = {g: probe.rescale(t0, t1) for g, (t0, t1) in p.group_spans.items()}
    raw, norm = probe.rescale(p.start, p.end)
    between = raw - sum(r for r, _ in ops.values())
    return (
        PassTimes(raw, {k: r for k, (r, _) in ops.items()},
                  {g: r for g, (r, _) in groups.items()}),
        PassTimes(sum(n for _, n in ops.values()) + between * norm / raw,
                  {k: n for k, (_, n) in ops.items()}, {g: n for g, (_, n) in groups.items()}),
    )


def digest(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() if lines else None


def op_latencies(times):
    """Each operation's latency: its median over the passes of a run.

    Every pass runs the same operations in the same order, so operation k of
    one pass is operation k of the next.  Taking each operation's median
    first keeps a pause that hit one operation in one pass out of the
    percentiles below.
    """
    per_op = {}
    for t in times:
        for k, x in t.latencies.items():
            per_op.setdefault(k, []).append(x)
    return [statistics.median(v) for v in per_op.values()]


def tail(values):
    """The highest percentile of `values` with at least ten samples beyond it.

    Returns (value, percentile): the 11th largest of n values, percentile
    (n - 10) / n.  With 20 or fewer values no percentile at or above the
    median has ten samples beyond it; the tail is then the largest value.
    """
    s = sorted(values)
    if len(s) <= 20:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def environment(seed):
    from misdpkit import _kernels

    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_installed": have_numba,
        "numba_active": bool(_kernels.USING_NUMBA),
        "misdpkit_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MISDPKIT_")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _timings(times, n_ops):
    """pass_s (median over passes), ops_per_s, op_ms.p50 and op_ms.tail."""
    pass_s = statistics.median(t.seconds for t in times)
    lat = op_latencies(times)
    return {
        "pass_s": pass_s,
        "ops_per_s": n_ops / pass_s,
        "op_ms.p50": statistics.median(lat) * 1e3,
        "op_ms.tail": tail(lat)[0] * 1e3,
    }


def end_to_end(raw, norm, n_ops, wall_pass_s):
    """Normalized timings (raw CPU ones and the wall pass_s in the notes) and peak memory."""
    lat = op_latencies(raw)
    samples = f"{len(lat)} ops, each the median of its {len(raw)} passes"
    notes = {
        "pass_s": f"median of {len(raw)} passes; wall {wall_pass_s:.6g}",
        "ops_per_s": f"{n_ops} ops per pass",
        "op_ms.p50": samples,
        "op_ms.tail": f"p{tail(lat)[1]:.2f} of {samples}",
    }
    r, n = _timings(raw, n_ops), _timings(norm, n_ops)
    units = {"pass_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.tail": "ms"}
    out = {k: (n[k], units[k], f"{notes[k]}; raw {r[k]:.6g}") for k in units}
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          "MB", "worker process")
    return out


def per_layer(tracer, a, traced, untraced_s):
    """Per-layer metrics of one traced pass, from its spans and counters.

    `a` is `tracer.arrays(probe)`, `traced` the (raw, normalized) PassTimes of
    the traced pass and `untraced_s` the normalized pass_s of the others.
    """
    names = tracer.names
    dur = a["dur"]
    by_name = {}
    for nid, name in enumerate(names):
        sel = a["name"] == nid
        by_name[name] = (int(sel.sum()), float(dur[sel].sum()), float(a["self"][sel].sum()))

    def calls(*keys):
        return sum(by_name.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def secs(*keys):
        return sum(by_name.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def self_s(*keys):
        return sum(by_name.get(k, (0, 0.0, 0.0))[2] for k in keys)

    c = tracer.counts
    m = {}
    m["linalg.is_psd.calls"] = (calls("linalg.is_psd"), "count")
    m["linalg.is_psd.s"] = (secs("linalg.is_psd"), "s")
    psd = a["tag"] >= 0  # only is_psd spans carry a tag
    seen = {}
    for tag in np.unique(a["tag"][psd]):
        sel = psd & (a["tag"] == tag)
        kind = "float" if tag % 2 else "int"
        seen[f"linalg.is_psd.us.n{tag // 2}.{kind}"] = float(dur[sel].mean() * 1e6)
    for kind, orders in PSD_ORDERS.items():
        for n in orders:
            key = f"linalg.is_psd.us.n{n}.{kind}"
            m[key] = (seen.pop(key, 0.0), "us")
    extra = {key: (value, "us") for key, value in seen.items()}  # orders outside the list
    for name in ("linalg.eigensym", "linalg.num_rank"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    n_eval = calls("model.eval_point")
    m["model.eval_point.calls"] = (n_eval, "count")
    m["model.eval_point.self_s"] = (self_s("model.eval_point"), "s")
    m["model.eval_point.feasible_ratio"] = (c.get("eval_point.feasible", 0) / n_eval if n_eval else 0.0, "ratio")
    m["model.MatrixPencil.evaluate.calls"] = (calls("model.MatrixPencil.evaluate"), "count")
    m["model.MatrixPencil.evaluate.s"] = (secs("model.MatrixPencil.evaluate"), "s")
    sbe = "verify.solve_by_enumeration"
    m[f"{sbe}.calls"] = (calls(sbe), "count")
    m[f"{sbe}.s"] = (secs(sbe), "s")
    m[f"{sbe}.self_s"] = (self_s(sbe), "s")
    nodes = c.get("enumeration.nodes", 0)
    m["verify.nodes"] = (nodes, "count")
    m["verify.nodes_per_s"] = (nodes / secs(sbe) if secs(sbe) else 0.0, "1/s")
    m["verify.oracle.calls"] = (calls("verify.oracle"), "count")
    m["verify.oracle.s"] = (secs("verify.oracle"), "s")
    for suite in SUITE_NAMES:
        m[f"verify.suite.{suite}.s"] = (secs(f"verify.suite.{suite}"), "s")
    builders = [n for n in names if n.rsplit(".", 1)[-1].startswith("build_")]
    builds = c.get("model.builds", 0)
    m["build.calls"] = (calls(*builders), "count")
    m["build.s"] = (secs(*builders), "s")
    for key in ("model.vars", "model.rows", "model.pencil_terms"):
        m[key] = (c.get(key, 0) / builds if builds else 0.0, "count")
    m["model.pencil_order_max"] = (c.get("model.pencil_order_max", 0), "count")
    m["cbf.export_cbf.s"] = (secs("cbf.export_cbf"), "s")
    m["cbf.import_cbf.s"] = (secs("cbf.import_cbf"), "s")
    m["cbf.bytes"] = (c.get("cbf.bytes", 0), "B")
    m["model.export_json.s"] = (secs("model.export_json"), "s")
    m["model.import_json.s"] = (secs("model.import_json"), "s")
    m["model.json_bytes"] = (c.get("model.json_bytes", 0), "B")
    m["dpsd.enumerate_Dnr.s"] = (secs("dpsd.enumerate_Dnr"), "s")
    m["dpsd.decompose.s"] = (secs("dpsd.decompose01", "dpsd.decompose_pm1", "dpsd.decompose_ternary"), "s")
    member = ("dpsd.membership_Pnr", "dpsd.membership_Rnr")
    m["dpsd.membership.calls"] = (calls(*member), "count")
    m["dpsd.membership.s"] = (secs(*member), "s")
    for name in ("exactlp.solve_feasibility", "schemes.verify_axioms"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    roots = a["parent"] < 0
    m["trace.pass_s"] = (traced[0].seconds, "s")
    m["trace.uncovered_s"] = (traced[0].seconds - float(dur[roots].sum()), "s")
    m["trace.spans"] = (len(dur), "count")
    m["trace.overhead_ratio"] = (traced[1].seconds / untraced_s - 1.0, "ratio")
    return m, extra, by_name


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<40} {value:>16.6f} {unit:<6} {note}".rstrip())


def result_line(correct, attempted, failed, metrics):
    """The final JSON object of a run; `metrics` maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    })


def exit_code(failed):
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the time the first operation is ready, then exit")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import misdpkit
    except ImportError as exc:
        print(f"error: cannot import misdpkit from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(misdpkit.__file__))) != src:
        print(f"error: misdpkit imported from {misdpkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads
    from misdpkit import linalg

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    factory = workloads.prepare(args.workload, args.seed)
    linalg.is_psd([[1.0, 0.0], [0.0, 1.0]])  # first kernel call: numba JIT, when present
    print(f"READY {time.monotonic()!r} {time.process_time()!r}", flush=True)
    if args.setup_only:
        # the machine's speed right after set-up, in the same process
        print("REF " + " ".join(repr(d) for d in time_reference(SETUP_REF_CALLS)), flush=True)
        return 0

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    passes = []
    budget = args.seconds / 2 if args.trace else args.seconds
    traced = None
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        # another pass only if it should end within the budget, so a pass that
        # takes about as long as the budget runs once, whatever the machine speed
        while not passes or (time.perf_counter() - t0) + passes[-1].wall <= budget:
            gc.collect()  # start every pass from the same collector state
            passes.append(run_pass(factory()))
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            gc.collect()
            try:
                origin = CLOCK()
                traced = run_pass(factory(), tracer)
            finally:
                tracer.uninstall()
    raw, norm = zip(*(pass_times(p, probe) for p in passes))
    everything = passes + ([traced] if traced else [])

    attempted = sum(p.attempted for p in everything)
    failures = [f for p in everything for f in p.failures]
    lines = everything[0].lines
    for p in everything[1:]:
        if p.lines != lines:
            failures.append("report lines differ between passes")
            break
    all_lines = [ln for group in lines.values() for ln in group]
    n_ops = passes[0].attempted

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "ops_per_pass": n_ops,
              "pass_seconds_raw": [t.seconds for t in raw],
              "pass_seconds_wall": [p.wall for p in passes],
              "pass_seconds": [t.seconds for t in norm],
              "group_seconds_raw": {g: statistics.median(t.groups[g] for t in raw)
                                    for g in raw[0].groups},
              "group_seconds_wall": {g: statistics.median(p.group_wall[g] for p in passes)
                                     for g in passes[0].group_wall},
              "group_seconds": {g: statistics.median(t.groups[g] for t in norm)
                                for g in norm[0].groups}}
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced passes,"
          f" {n_ops} ops per pass, {attempted} ops attempted, {len(failures)} failed")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    if all_lines:
        record["reports_sha256"] = digest(all_lines)
        record["suite_sha256"] = {g: digest(v) for g, v in lines.items()}
        print(f"reports sha256 {record['reports_sha256']} ({len(all_lines)} lines)")
        for g, v in lines.items():
            print(f"  {g:<40} sha256 {digest(v)} ({len(v)} lines,"
                  f" {record['group_seconds'][g]:.3f} s, raw {record['group_seconds_raw'][g]:.3f} s)")
        report_dir = os.path.join(OUT_DIR, "reports", f"seed{args.seed}")
        os.makedirs(report_dir, exist_ok=True)
        for g, v in lines.items():
            with open(os.path.join(report_dir, g.rsplit(".", 1)[-1] + ".jsonl"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(v) + "\n")

    if args.trace:
        spans = tracer.arrays(probe)
        traced_times = pass_times(traced, probe)
        metrics, extra, by_name = per_layer(tracer, spans, traced_times,
                                            statistics.median(t.seconds for t in norm))
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(spans_path, spans, origin)
        print(f"spans: {metrics['trace.spans'][0]} written to {os.path.relpath(spans_path, ROOT)}")
        print("per-span totals of the traced pass (calls, total s, self s):")
        for name, (n, total, own) in sorted(by_name.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<40} {n:>9} {total:>12.6f} {own:>12.6f}")
        print(f"self times sum to {sum(v[2] for v in by_name.values()):.6f} s; uncovered"
              f" {metrics['trace.uncovered_s'][0]:.6f} s; traced pass_s {traced_times[0].seconds:.6f} s")
        print("per-layer metrics:")
        for name, (value, unit) in metrics.items():
            _print_metric(name, value, unit)
        for name, (value, unit) in extra.items():
            _print_metric(name, value, unit, "(order outside the fixed list)")
    else:
        detailed = end_to_end(raw, norm, n_ops, statistics.median(p.wall for p in passes))
        detailed["failed_ratio"] = (len(failures) / attempted, "ratio", f"{len(failures)} of {attempted}")
        print("end-to-end metrics:")
        for name, (value, unit, note) in detailed.items():
            _print_metric(name, value, unit, note)
        metrics = {k: v[:2] for k, v in detailed.items() if k != "failed_ratio"}
    record["metrics"] = {k: list(v[:2]) for k, v in metrics.items()}
    if not args.trace:
        record["metrics_raw"] = _timings(raw, n_ops)
    record["failures"] = failures
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("RESULT " + result_line(not failures, attempted, len(failures), metrics), flush=True)
    return exit_code(failures)


if __name__ == "__main__":
    sys.exit(main())
