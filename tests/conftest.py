"""Shared fixtures: no test sees what an earlier one left in a memo."""

import pytest

from quivkit import adjunction


@pytest.fixture(autouse=True)
def _cold_counit_sources():
    adjunction._COUNIT_SOURCES.clear()
    yield
