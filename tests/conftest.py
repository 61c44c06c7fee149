"""Shared fixtures."""

import pytest

from orecalc import poly as poly_mod


@pytest.fixture
def split_calls(monkeypatch):
    """Calls of distinct_degree_parts, counted per polynomial; clear it to
    start a new count."""
    calls = {}
    real = poly_mod.distinct_degree_parts

    def counting(g):
        calls[g] = calls.get(g, 0) + 1
        return real(g)

    monkeypatch.setattr(poly_mod, "distinct_degree_parts", counting)
    return calls
