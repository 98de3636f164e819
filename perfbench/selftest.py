"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Feeds the harness one verification report with a wrong MISDP optimum and one
CBF round trip whose re-import is corrupted.  Both must be counted as failed
operations, mark the result incorrect and make the exit code non-zero, while
the same operations without the faults pass.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import bench  # noqa: E402
import workloads  # noqa: E402
from misdpkit import cbf, verify  # noqa: E402
from misdpkit.problems import Graph  # noqa: E402

SUITE = "completion-2x2"


def _first_report():
    return next(verify.SUITES[SUITE](budget=None, seed=0))


def _suite_with_wrong_optimum(budget=None, seed=0):
    good = _first_report()
    yield good
    # the report still claims match=True; the harness must not trust it
    yield dataclasses.replace(good, misdp_optimum=good.oracle_optimum + 1)


def _roundtrip_group():
    check = lambda: workloads.check_roundtrip("build_stable_set", (Graph.cycle(5),))  # noqa: E731
    return ("theory.roundtrip", [check], workloads._check_bool, False)


def _run(groups):
    res = bench.run_pass(groups)
    obj = json.loads(bench.result_line(not res.failures, res.attempted, len(res.failures), {}))
    return res, obj, bench.exit_code(res.failures)


def test_clean_operations_pass():
    clean = {SUITE: lambda budget=None, seed=0: iter([_first_report()])}
    res, obj, code = _run([workloads.suite_group(SUITE, 0, clean), _roundtrip_group()])
    assert res.attempted == 2 and not res.failures, res.failures
    assert obj["correct"] and obj["failed"] == 0 and code == 0


def test_faults_are_failures():
    real_import = cbf.import_cbf

    def corrupted_import(text):
        m = real_import(text)
        m.objective = dataclasses.replace(
            m.objective, sense="max" if m.objective.sense == "min" else "min")
        return m

    cbf.import_cbf = corrupted_import
    try:
        res, obj, code = _run([
            workloads.suite_group(SUITE, 0, {SUITE: _suite_with_wrong_optimum}),
            _roundtrip_group(),
        ])
    finally:
        cbf.import_cbf = real_import
    assert res.attempted == 3, res.attempted
    assert len(res.failures) == 2, res.failures
    assert any(f.startswith(f"verify.suite.{SUITE}") for f in res.failures)
    assert any(f.startswith("theory.roundtrip") for f in res.failures)
    assert obj == {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}
    assert code != 0


if __name__ == "__main__":
    test_clean_operations_pass()
    test_faults_are_failures()
    print("selftest: ok")
