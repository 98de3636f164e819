"""Join the per-suite report files of one seed and compare with the CLI.

    python3 perfbench/check_reports.py --seed 0 [--against reports.jsonl]

Each ``verify-*`` run writes its report lines to
``.bench_out/reports/seed<n>/<suite>.jsonl``.  After all three have run for a
seed, this joins the files in sorted-suite order, which is the order of
``misdpkit verify --suite all --out``, and prints the SHA-256 of the join.
With ``--against`` it exits non-zero unless that file is byte-identical.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--against", help="output of misdpkit verify --suite all --out")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from misdpkit.verify import SUITES

    folder = os.path.join(ROOT, ".bench_out", "reports", f"seed{args.seed}")
    joined = b""
    for name in sorted(SUITES):
        path = os.path.join(folder, f"{name}.jsonl")
        if not os.path.isfile(path):
            print(f"error: no reports for suite {name} in {folder}", file=sys.stderr)
            return 2
        with open(path, "rb") as fh:
            joined += fh.read()
    digest = hashlib.sha256(joined).hexdigest()
    n_lines = joined.count(b"\n")
    print(f"joined reports sha256 {digest} ({n_lines} lines)")
    if args.against:
        with open(args.against, "rb") as fh:
            other = hashlib.sha256(fh.read()).hexdigest()
        print(f"{args.against} sha256 {other}: {'identical' if other == digest else 'DIFFERENT'}")
        return 0 if other == digest else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
