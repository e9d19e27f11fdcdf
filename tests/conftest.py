"""Fixtures shared by the test modules."""

import pytest

from polyoracle.errors import CAPS


@pytest.fixture
def set_cap(monkeypatch):
    """Set one cap's limit in the cap table for the duration of a test."""

    def set_limit(name, limit):
        monkeypatch.setitem(CAPS, name, (limit, *CAPS[name][1:]))

    return set_limit
