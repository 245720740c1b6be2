"""Shared fixtures: no test sees what an earlier one left in a memo."""

import pytest

from quivkit import pathalg


@pytest.fixture(autouse=True)
def _cold_kvq_memo():
    pathalg._KVQ_MEMO.clear()
    yield
