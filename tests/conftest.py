import pytest

from misdpkit.formulations import shared_pencil


@pytest.fixture(autouse=True)
def _cold_shared_pencils():
    """Start every test without shared pencils, so that what their memos
    answer, and so every kernel count, does not depend on the tests before."""
    shared_pencil.cache_clear()
