"""What the benchmark harness in `perfbench/` reads from the package, run once.

The harness imports misdpkit by name: `bench.environment` reads
`_kernels.USING_NUMBA`, `workloads.prepare` builds each workload's groups from
the package's public functions, and `tracer.TRACED` names the functions a
traced run wraps.  A change to the package that drops or renames one of
them fails here, not only in a benchmark run.  Nothing under `perfbench/`
is written.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_environment(perfbench):
    env = perfbench("bench").environment(0)
    assert env["seed"] == 0 and isinstance(env["numba_active"], bool)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_step_of_every_group(perfbench, name):
    groups = perfbench("workloads").prepare(name, 0)()
    assert groups
    for group, steps, check, _ in groups:
        ok, _ = check(next(iter(steps))())
        assert ok, group


def test_every_membership_step(perfbench):
    # the theory-io membership LPs, seeded points and I/n alike, each with its check
    groups = perfbench("workloads").prepare("theory-io", 0)()
    (steps, check), = [(steps, check) for group, steps, check, _ in groups if group == "theory.membership"]
    assert len(steps) == 44
    for k, step in enumerate(steps):
        ok, _ = check(step())
        assert ok, k


def test_every_roundtrip_step(perfbench):
    # the theory-io CBF and JSON round trips, one build per builder and GPP variant and
    # both qcqp forms, each with its check
    groups = perfbench("workloads").prepare("theory-io", 0)()
    (steps, check), = [(steps, check) for group, steps, check, _ in groups if group == "theory.roundtrip"]
    assert len(steps) == 19
    for k, step in enumerate(steps):
        ok, _ = check(step())
        assert ok, k


def test_traced_functions_exist(perfbench):
    for name, (module, attr) in perfbench("tracer").TRACED.items():
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name
