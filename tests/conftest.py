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


@pytest.fixture
def shift_calls(monkeypatch):
    """Arguments (lam, mu) of every Poly.compose_affine call, in order;
    clear it to start a new count."""
    calls = []
    real = poly_mod.Poly.compose_affine

    def counting(self, lam, mu):
        calls.append((lam, mu))
        return real(self, lam, mu)

    monkeypatch.setattr(poly_mod.Poly, "compose_affine", counting)
    return calls
