"""Benchmark launcher: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify-int --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The launcher gives every process it starts
single-threaded BLAS and ``PYTHONPATH=src``, so the numbers measure the
program and not the scheduler.  With ``--trace 0`` it first starts the
workload process ``SETUP_PROBES`` times with ``--setup-only`` (one after
another, never in parallel) to time set-up, then starts it once more to
measure.  ``setup_s`` is the median of the probes' start-to-ready times,
read as the CPU time each probe process spent until it was ready and
rescaled to nominal machine speed by reference timings the probe takes right
after it is ready (see ``speed.py``).  With ``--trace 1`` it starts the
workload once and prints the per-layer metrics.

The last line of standard output is the JSON result; the exit code is 0 only
when every operation succeeded and was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import factor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench", "bench.py")
SETUP_PROBES = 9
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start(args, env, timeout):
    """Run bench.py to completion.

    Returns ((wall, CPU) seconds from start to ready or None, stdout, exit code).
    """
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, BENCH, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    ready = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            at, cpu = map(float, line.split()[1:3])
            ready = (at - t_spawn, cpu)
            break
    return ready, proc.stdout, proc.returncode


def setup_sample(args, env):
    """(wall, normalized CPU) start-to-ready seconds of one --setup-only process."""
    ready, out, code = start(args + ["--setup-only"], env, DEADLINE_S)
    ref = [float(x) for line in out.splitlines() if line.startswith("REF ") for x in line.split()[1:]]
    if code != 0 or ready is None or not ref:
        sys.stdout.write(out)
        raise RuntimeError(f"set-up probe exited with {code}")
    wall, cpu = ready
    return wall, cpu * factor(ref)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "misdpkit", "__init__.py")):
        print(f"error: no misdpkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    try:
        if not args.trace:
            setup = [setup_sample(common, env) for _ in range(SETUP_PROBES)]
        ready, out, code = start(common, env, DEADLINE_S - (time.monotonic() - t0))
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = out.splitlines()
    result = next((ln for ln in reversed(lines) if ln.startswith("RESULT ")), None)
    for line in lines:
        if not line.startswith(("READY ", "RESULT ")):
            print(line)
    if result is None or ready is None:
        print(f"error: workload exited with {code} and no result", file=sys.stderr)
        return code or 2
    obj = json.loads(result[len("RESULT "):])
    if not args.trace:
        setup_s = statistics.median(n for _, n in setup)
        wall = statistics.median(w for w, _ in setup)
        print(f"  {'setup_s':<40} {setup_s:>16.6f} {'s':<6} median of {len(setup)}"
              f" process starts; wall {wall:.6g}")
        obj["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **obj["metrics"]}
    print(json.dumps(obj), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
