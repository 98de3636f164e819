import importlib
import sys
from pathlib import Path

import pytest

from misdpkit import search
from misdpkit.formulations import shared_pencil


@pytest.fixture(autouse=True)
def _cold_shared_pencils():
    """Start every test without shared pencils and without kept families, so
    that what their memos and leaf stores answer, and so every kernel count,
    does not depend on the tests before."""
    shared_pencil.cache_clear()
    search._FAMILIES.clear()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench(name):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # write nothing there
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved


@pytest.fixture
def perfbench():
    """Imports a module of the benchmark harness against this checkout's src."""
    return _import_perfbench
