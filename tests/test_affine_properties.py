"""Property sweeps for the affine substitution x -> lam*x + mu.

Poly.compose is the independent oracle: the (lam, mu) scan in
affine_matches and the witness of are_isomorphic are each checked against a
plain double loop of compositions.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from orecalc.eigengroup import affine_matches
from orecalc.gf import GF
from orecalc.lambda_aut import are_isomorphic
from orecalc.poly import Poly

# small enough for a q(q-1) loop of full compositions
SCAN_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]


def substitute(f: Poly, lam: int, mu: int) -> Poly:
    return f.compose(Poly.from_values(f.field, (mu, lam)))


def oracle_matches(f: Poly, g: Poly) -> list[tuple[int, int]]:
    F = f.field
    return sorted(
        (lam, mu)
        for lam in F.units()
        for mu in F.elements()
        if substitute(f, lam, mu) == g.scale_value(F.pow(lam, f.degree))
    )


@st.composite
def scan_pairs(draw, monic=False):
    """(f, g) of one degree; g is an affine image of f about half the time."""
    F = draw(st.sampled_from(SCAN_FIELDS))
    low = draw(st.lists(st.integers(0, F.q - 1), min_size=int(monic), max_size=4))
    f = Poly.from_values(F, low + [1 if monic else draw(st.integers(1, F.q - 1))])
    d = f.degree
    if draw(st.booleans()):
        lam = draw(st.integers(1, F.q - 1))
        mu = draw(st.integers(0, F.q - 1))
        g = substitute(f, lam, mu).scale_value(F.inv(F.pow(lam, d)))
    else:
        low = draw(st.lists(st.integers(0, F.q - 1), min_size=d, max_size=d))
        g = Poly.from_values(F, low + [1 if monic else draw(st.integers(1, F.q - 1))])
    return f, g


@settings(max_examples=60, deadline=None)
@given(scan_pairs(), st.data())
def test_affine_matches_is_the_double_loop(pair, data):
    f, g = pair
    got = affine_matches(f, g)
    assert got == oracle_matches(f, g)
    F = f.field
    sub = data.draw(st.sets(st.integers(0, F.q - 1)))
    assert affine_matches(f, g, sub) == [(l, m) for l, m in got if l in sub and m in sub]


@settings(max_examples=60, deadline=None)
@given(scan_pairs(monic=True))
def test_isomorphism_witness_is_the_first_match(pair):
    f, g = pair
    res = are_isomorphic(f, g)
    matches = oracle_matches(f, g)
    assert res.isomorphic == bool(matches)
    if matches:
        assert (res.alpha, res.beta) == min(matches)
