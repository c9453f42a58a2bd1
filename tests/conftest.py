"""Every test starts with the package's caches empty, so what it computes
and counts does not depend on the tests that ran before it."""

import pytest

from helpers import clear_caches


@pytest.fixture(autouse=True)
def _empty_caches():
    clear_caches()
