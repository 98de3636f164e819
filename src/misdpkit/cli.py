"""Command-line surface: build, check, enumerate, count, verify, scheme, convert."""

import argparse
import json
import sys

from . import cbf, dpsd, formulations, linalg, model, problems, schemes, verify
from .errors import MisdpkitError


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path):
    return json.loads(_read(path))


def _emit_model(m, out, fmt):
    text = cbf.export_cbf(m) if fmt == "cbf" else model.export_json(m)
    _write(out, text)
    pencil_orders = ",".join(str(p.order) for p in m.pencils) or "-"
    n_int = len(m.integer_names())
    print(
        f"variables={len(m.variables)} (integer={n_int})  rows={len(m.rows)}  "
        f"pencils={len(m.pencils)} (orders {pencil_orders})",
        file=sys.stderr,
    )


def _load_graph(path):
    return problems.graph_from_dimacs(_read(path))


def _load_dist(path):
    return linalg.load_matrix(path).array


def cmd_build(args):
    p = args.problem
    if p == "stable-set":
        m = problems.build_stable_set(_load_graph(args.graph))
    elif p == "mkcs":
        m = problems.build_mkcs(_load_graph(args.graph), args.k)
    elif p == "qbpp":
        m = problems.build_qbpp(*problems.qbpp_from_json(_load_json(args.instance)))
    elif p == "qmkp":
        m = problems.build_qmkp(*problems.qmkp_from_json(_load_json(args.instance)))
    elif p == "qap":
        m = problems.build_qap(problems.parse_qaplib(_read(args.qaplib)))
    elif p == "tsp-qap":
        m = problems.build_tsp_qap(_load_dist(args.dist))
    elif p == "tsp-cvetkovic":
        m = problems.build_tsp_cvetkovic(_load_dist(args.dist))
    elif p == "tsp-lee":
        m = problems.build_tsp_lee(_load_dist(args.dist))
    elif p == "gpp":
        sizes = [int(s) for s in args.sizes.split(",")]
        inst = problems.GppInstance.make(_load_graph(args.graph), args.k, sizes)
        m = problems.build_gpp(inst, args.variant)
    elif p == "kep-assoc":
        g = _load_graph(args.graph)
        sizes = [g.n // args.k] * args.k
        inst = problems.GppInstance.make(g, args.k, sizes)
        m = problems.build_kep_assoc(inst)
    elif p == "completion":
        m = problems.build_matrix_completion(*problems.completion_from_json(_load_json(args.instance)))
    elif p == "sils":
        m = problems.build_sils(*problems.sils_from_json(_load_json(args.instance)))
    elif p == "qcqp":
        inst = formulations.qcqp_from_json(_load_json(args.instance))
        m = formulations.build_bsdp_qcqp(inst, compact=args.compact)
    elif p == "qmp1":
        m = formulations.build_bsdp_qmp1(formulations.qmp1_from_json(_load_json(args.instance)))
    elif p == "qmp2":
        m = formulations.build_bsdp_qmp2(formulations.qmp2_from_json(_load_json(args.instance)))
    else:
        raise MisdpkitError(f"unknown problem {p!r}")
    _emit_model(m, args.out, args.format)
    return 0


def cmd_check(args):
    x = linalg.load_matrix(args.matrix)
    props = args.props.split(",") if args.props else ["psd", "rank", "decompose"]
    out = {}
    for prop in props:
        if prop == "psd":
            out["psd"] = linalg.is_psd(x)
        elif prop == "rank":
            out["rank"] = linalg.num_rank(x)
        elif prop == "decompose":
            out["binary"] = x.values_in({0, 1})
            if out["binary"]:
                try:
                    out["packing"] = dpsd.decompose01(x).to_line()
                except MisdpkitError as exc:
                    out["packing"] = f"none ({exc})"
        elif prop == "blocks":
            perm, sizes, n_z = dpsd.block_form01(x)
            out["blocks"] = {"perm": perm.tolist(), "sizes": list(sizes), "n_z": n_z}
        elif prop == "triangle":
            out["triangle_violations"] = dpsd.triangle_check01(x)
        elif prop == "pm1":
            try:
                out["sign_vector"] = dpsd.decompose_pm1(x).tolist()
            except MisdpkitError as exc:
                out["sign_vector"] = f"none ({exc})"
        elif prop == "ternary":
            try:
                blocks = dpsd.decompose_ternary(x)
                out["ternary_blocks"] = [b.tolist() for b in blocks.blocks]
                out["ternary_zero"] = blocks.n_z
            except MisdpkitError as exc:
                out["ternary_blocks"] = f"none ({exc})"
        else:
            raise MisdpkitError(f"unknown property {prop!r}")
    for key, val in out.items():
        print(f"{key}: {val}")
    return 0


def cmd_enumerate(args):
    mats = dpsd.enumerate_Dnr(args.n, args.r)
    if args.format == "packings":
        for m in mats:
            print(dpsd.decompose01(m).to_line())
    else:
        for m in mats:
            sys.stdout.write(linalg.dumps_matrix(m))
            sys.stdout.write("\n")
    print(f"count: {len(mats)}", file=sys.stderr)
    return 0


def cmd_count(args):
    print(dpsd.count_Dnr(args.n, args.r))
    return 0


def cmd_verify(args):
    if args.budget <= 0:
        raise MisdpkitError("enumeration budget must be positive")
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    lines = []
    for name in names:
        res = verify.equivalence_suite(name, budget=args.budget, seed=args.seed)
        all_ok &= res.passed
        lines += [verify.report_json(r) for r in res.reports]
        if args.table:
            print(verify.render_table(res.reports))
        print(f"suite {name}: {'PASS' if res.passed else 'FAIL'} ({len(res.reports)} instances)")
    if args.out:
        _write(args.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def cmd_scheme(args):
    if args.cycle:
        scheme = schemes.lee_scheme(args.cycle)
    elif args.kep:
        m, k = args.kep
        scheme = schemes.verify_axioms(schemes.kep_scheme_matrices(m, k))
    else:
        obj = _load_json(args.mats)
        scheme = schemes.verify_axioms([linalg.SymMat(a) for a in obj["matrices"]])
    report = schemes.scheme_report(scheme)
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"valid scheme: n={scheme.n} r={scheme.r} q_residual={scheme.q_residual:.2e}",
          file=sys.stderr)
    return 0


def cmd_convert(args):
    text = _read(args.infile)
    m = cbf.import_cbf(text) if text.lstrip().startswith("VER") else model.import_json(text)
    out_fmt = "cbf" if args.outfile.endswith(".cbf") else "json"
    _write(args.outfile, cbf.export_cbf(m) if out_fmt == "cbf" else model.export_json(m))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="misdpkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="compile a problem instance to a model file")
    b.add_argument("problem", choices=[
        "stable-set", "mkcs", "qbpp", "qmkp", "qap", "tsp-qap", "tsp-cvetkovic",
        "tsp-lee", "gpp", "kep-assoc", "completion", "sils", "qcqp", "qmp1", "qmp2",
    ])
    b.add_argument("--graph", help="DIMACS edge file")
    b.add_argument("--dist", help="dense distance matrix file")
    b.add_argument("--qaplib", help="QAPLIB instance file")
    b.add_argument("--instance", help="instance JSON file")
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--sizes", default="", help="comma-separated part sizes for gpp")
    b.add_argument("--variant", default="general", choices=problems.GPP_VARIANTS)
    b.add_argument("--compact", action="store_true", help="aggregate linear equalities (qcqp)")
    b.add_argument("--out", default="-")
    b.add_argument("--format", default="cbf", choices=["cbf", "json"])
    b.set_defaults(fn=cmd_build)

    c = sub.add_parser("check", help="discrete-PSD properties of a matrix file")
    c.add_argument("--matrix", required=True)
    c.add_argument("--props", default="", help="comma list: psd,rank,decompose,blocks,triangle,pm1,ternary")
    c.set_defaults(fn=cmd_check)

    e = sub.add_parser("enumerate", help="enumerate PSD binary matrices of bounded rank")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--format", default="matrices", choices=["matrices", "packings"])
    e.set_defaults(fn=cmd_enumerate)

    k = sub.add_parser("count", help="exact count of PSD binary matrices of bounded rank")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--r", type=int, required=True)
    k.set_defaults(fn=cmd_count)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="all",
                   help="suite name or 'all'; see misdpkit.verify.SUITES")
    v.add_argument("--out", help="write JSON-lines reports here")
    v.add_argument("--table", action="store_true")
    v.add_argument("--budget", type=int, default=10**7,
                   help="enumeration budget per instance (default 1e7)")
    v.add_argument("--seed", type=int, default=0,
                   help="offset for the fixed suite seeds (0 reproduces the canonical reports)")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scheme", help="verify an association scheme")
    s.add_argument("--cycle", type=int, help="cycle length (odd)")
    s.add_argument("--kep", nargs=2, type=int, metavar=("M", "K"),
                   help="k classes of size m")
    s.add_argument("--mats", help="JSON file with a 'matrices' list")
    s.add_argument("--out", default="-")
    s.set_defaults(fn=cmd_scheme)

    t = sub.add_parser("convert", help="convert between model formats")
    t.add_argument("infile")
    t.add_argument("outfile")
    t.set_defaults(fn=cmd_convert)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MisdpkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
