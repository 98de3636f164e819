"""Take a baseline: run every workload with several seeds and summarize.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BENCH_0.json

Run from the root of a checkout.  For each seed 0..N-1 it runs every workload
of ``BENCHMARK.json`` once with ``--trace 0`` (one run at a time), then each
workload once with ``--trace 1`` at seed 0.  For every end-to-end metric it
records the median of the runs, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, and
prints the spread beside the metric's bound.  It also compares the suite
times with the figures the ROADMAP quotes for this code.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
# seconds the ROADMAP quotes for `misdpkit verify` (all suites) and three suites
ROADMAP_S = {"verify --suite all": 53.4, "mkcs-small": 22.4, "sils-small": 19.9, "stable-set-n5": 6.4}


def run(workload, seed, seconds, trace):
    """(result object, run record) of one benchmark run; exits on a failed run."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"{workload} seed {seed} trace {trace} exited with {proc.returncode}")
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(lines[-1]), record


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    for seed in range(args.seeds):
        for w in names:
            runs[w].append(run(w, seed, seconds, 0))
            print(f"seed {seed} {w}: done", flush=True)
    traced = {w: run(w, 0, seconds, 1) for w in names}

    out = {"what": f"{args.seeds}-run baseline: seeds 0-{args.seeds - 1}, run_seconds {seconds}",
           "command": f"python3 perfbench/run.py --workload <w> --seed <0..{args.seeds - 1}>"
                      f" --seconds {seconds} --trace 0",
           "environment": {k: v for k, v in runs[names[0]][0][1]["env"].items() if k != "seed"},
           "workloads": {}}
    groups = {}
    for w in names:
        results, records = zip(*runs[w])
        e2e = {}
        for m in bounds:
            e2e[m] = dict(summary([r["metrics"][m]["value"] for r in results]),
                          unit=results[0]["metrics"][m]["unit"])
        for g in records[0]["group_seconds"]:
            groups[g] = {
                key: statistics.median(r[f"group_seconds{suffix}"][g] for r in records)
                for key, suffix in (("median_s", ""), ("median_raw_s", "_raw"), ("median_wall_s", "_wall"))}
        out["workloads"][w] = {
            "ops_per_pass": records[0]["ops_per_pass"],
            "end_to_end": e2e,
            "raw_medians": {m: statistics.median(r["metrics_raw"][m] for r in records)
                            for m in records[0]["metrics_raw"]},
            "wall_pass_s_median": statistics.median(statistics.median(r["pass_seconds_wall"]) for r in records),
            "reports_sha256_seed0": records[0].get("reports_sha256"),
            "per_layer_seed0": traced[w][0]["metrics"],
        }
        print(f"{w}:")
        for m, s in e2e.items():
            flag = "" if s["spread"] <= bounds[m] / 3 else "  above a third of its bound"
            print(f"  {m:<12} median {s['median']:<12.6g} spread {s['spread']:.3f}"
                  f" (bound {bounds[m]}){flag}")

    out["groups"] = groups
    suites = [g for g in groups if g.startswith("verify.suite.")]
    compare = {}
    for name, quoted in ROADMAP_S.items():
        picked = suites if name == "verify --suite all" else [f"verify.suite.{name}"]
        row = {key: sum(groups[g][key] for g in picked) for key in ("median_s", "median_raw_s", "median_wall_s")}
        row["roadmap_s"] = quoted
        row["ratio"] = row["median_s"] / quoted
        row["ratio_wall"] = row["median_wall_s"] / quoted
        compare[name] = row
        print(f"{name:<20} ROADMAP {quoted:>5} s  normalized {row['median_s']:.1f} s"
              f"  wall {row['median_wall_s']:.1f} s  ratio {row['ratio']:.2f} / {row['ratio_wall']:.2f}")
    out["roadmap_comparison"] = compare
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
