"""Text round-trips for fields, elements, polynomials, and Ore elements."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orecalc.errors import ParseError
from orecalc.gf import GF, canonical_modulus
from orecalc.ore import OreAlgebra
from orecalc.parsing import (
    format_element,
    format_field,
    format_ore,
    format_poly,
    parse_element,
    parse_field,
    parse_ore,
    parse_poly,
)
from orecalc.poly import Poly


def test_parse_field_forms():
    assert parse_field("GF(5)") is GF(5)
    assert parse_field("GF(2^3)") is GF(2, 3)
    assert parse_field("GF(8)") is GF(2, 3)
    assert parse_field(" GF( 9 ) ") is GF(3, 2)
    assert parse_field("GF(4, mod=1,1,1)") is GF(2, 2)  # the canonical modulus
    F = parse_field("GF(9, mod=2,2,1)")
    assert F.p == 3 and F.m == 2 and F.modulus == (2, 2, 1)


def test_format_field_roundtrip():
    for F in (GF(2), GF(7), GF(2, 2), GF(3, 2), GF(2, 3), GF(3, 2, (2, 2, 1))):
        assert parse_field(format_field(F)) is F
    assert format_field(GF(5)) == "GF(5)"
    assert format_field(GF(2, 2)) == "GF(2^2)"
    assert format_field(GF(3, 2, (2, 2, 1))) == "GF(3^2, mod=2,2,1)"
    assert format_field(GF(3, 2, canonical_modulus(3, 2))) == "GF(3^2)"


def test_parse_field_errors():
    for bad in ("GF(6)", "GF(12)", "GF(4^2)", "XF(5)", "GF(5", "GF(5) x", "GF(2^0)", "GF(1)"):
        with pytest.raises(ParseError):
            parse_field(bad)
    with pytest.raises(ParseError):
        parse_field("GF(4, mod=1,1)")  # wrong degree
    with pytest.raises(ParseError):
        parse_field("GF(4, foo=1,1,1)")


def test_parse_element():
    F5 = GF(5)
    assert parse_element(F5, "3").val == 3
    assert parse_element(F5, "-1").val == 4
    assert parse_element(F5, "2^3").val == 3
    assert parse_element(F5, "(1+1)*2").val == 4
    F9 = GF(3, 2)
    assert parse_element(F9, "[1,2]").val == 7  # 1 + 2t packed
    assert parse_element(F9, "[1]").val == 1
    assert parse_element(F9, "[1,2]^2") == F9.from_value(7) ** 2
    with pytest.raises(ParseError):
        parse_element(F5, "x")
    with pytest.raises(ParseError):
        parse_element(F9, "[1,2,3]")  # too many digits


def test_format_element_roundtrip():
    F9 = GF(3, 2)
    for v in F9.elements():
        a = F9.from_value(v)
        assert parse_element(F9, format_element(a)) == a
    assert parse_element(GF(7), format_element(GF(7).element(6))).val == 6


def test_parse_poly_expression_form():
    F3 = GF(3)
    assert parse_poly(F3, "x^3 + 2*x + 1") == Poly(F3, (1, 2, 0, 1))
    assert parse_poly(F3, "x*(x+1)^2") == Poly(F3, (0, 1, 2, 1))
    assert parse_poly(F3, "-x") == Poly(F3, (0, -1))
    assert parse_poly(F3, "0") == Poly.zero(F3)
    assert parse_poly(F3, "7") == Poly(F3, (1,))
    F4 = GF(2, 2)
    got = parse_poly(F4, "([0,1]*x - 1)^2")
    t = F4.gen.val
    expect = Poly.from_values(F4, (1, t)) ** 2
    assert got == expect


def test_parse_poly_vector_form():
    F3 = GF(3)
    assert parse_poly(F3, "[1,2,0,1]") == Poly(F3, (1, 2, 0, 1))
    assert parse_poly(F3, "[1,-1]") == Poly(F3, (1, 2))
    assert parse_poly(F3, "[0]") == Poly.zero(F3)
    F4 = GF(2, 2)
    assert parse_poly(F4, "[[1],[0,1]]") == Poly.from_values(F4, (1, 2))
    assert parse_poly(F4, "[1,[0,1]]") == Poly.from_values(F4, (1, 2))
    # a bracketed vector inside a larger expression is a single element
    F9 = GF(3, 2)
    assert parse_poly(F9, "[1,2] + x") == Poly.from_values(F9, (7, 1))
    assert parse_poly(F9, "([1,2])") == Poly.from_values(F9, (7,))
    # but alone it is a coefficient vector
    assert parse_poly(F9, "[1,2]") == Poly.from_values(F9, (1, 2))


def test_format_poly_constant_extension_disambiguation():
    F9 = GF(3, 2)
    const = Poly.from_values(F9, (7,))
    s = format_poly(const)
    assert s.startswith("(") and parse_poly(F9, s) == const
    assert format_poly(Poly.zero(F9)) == "0"
    assert parse_poly(F9, "0") == Poly.zero(F9)
    assert format_poly(Poly.one(GF(3))) == "1"


def test_poly_roundtrip_random():
    rng = random.Random(13)
    for F in (GF(2), GF(5), GF(2, 2), GF(3, 2), GF(2, 3)):
        for _ in range(100):
            f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(6))])
            s = format_poly(f)
            assert parse_poly(F, s) == f
            assert format_poly(parse_poly(F, s)) == s


ROUND_TRIP_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(11), GF(13), GF(2, 3), GF(3, 2)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_format_poly_round_trips_and_is_a_fixpoint(data):
    """parse_poly(format_poly(f)) == f and format_poly is a fixpoint of the
    round trip, in x and, as the CLI reads q, in y; over prime fields up to
    GF(13), GF(2^3) and GF(3^2), with sparse and dense coefficients."""
    F = data.draw(st.sampled_from(ROUND_TRIP_FIELDS), label="field")
    coeff = st.one_of(st.integers(0, F.q - 1), st.just(0), st.just(1))
    f = Poly.from_values(F, data.draw(st.lists(coeff, max_size=9), label="coefficients"))
    text = format_poly(f)
    assert parse_poly(F, text) == f
    assert format_poly(parse_poly(F, text)) == text
    assert parse_poly(F, text.replace("x", "y"), var="y") == f


def test_parse_poly_var_parameter():
    F3 = GF(3)
    assert parse_poly(F3, "y^2 + 1", var="y") == Poly(F3, (1, 0, 1))
    with pytest.raises(ParseError):
        parse_poly(F3, "x + 1", var="y")
    with pytest.raises(ParseError):
        parse_poly(F3, "y + 1")  # default variable is x


def test_parse_poly_errors_carry_position():
    F = GF(3)
    with pytest.raises(ParseError) as ei:
        parse_poly(F, "x + $")
    assert ei.value.pos == 4
    with pytest.raises(ParseError) as ei:
        parse_poly(F, "x^")
    assert ei.value.pos == 2
    with pytest.raises(ParseError) as ei:
        parse_poly(F, "(x+1")
    assert ei.value.pos == 4
    with pytest.raises(ParseError) as ei:
        parse_poly(F, "2x")
    assert ei.value.pos == 1
    with pytest.raises(ParseError) as ei:
        parse_poly(F, "x^100001")
    assert "exponent" in str(ei.value)
    assert "column" in str(ei.value)


def test_parse_ore_examples():
    F3 = GF(3)
    A = OreAlgebra(Poly(F3, (0, 0, 1)))  # f = x^2
    e = parse_ore(A, "(x^2+1)*y^2 + x*y + 3")
    assert e.coeff(2) == Poly(F3, (1, 0, 1))
    assert e.coeff(1) == Poly(F3, (0, 1))
    assert e.coeff(0) == Poly(F3, (0,))  # 3 = 0 mod 3
    # multiplication is the algebra's own product: y*x normalizes
    assert parse_ore(A, "y*x") == A.x * A.y + A.element(A.f)
    assert parse_ore(A, "y*x - x*y") == A.element(A.f)
    assert parse_ore(A, "y^2") == A.y * A.y


def test_ore_roundtrip_random():
    rng = random.Random(29)
    algebras = [
        OreAlgebra(Poly(GF(2), (0, 0, 1))),
        OreAlgebra(Poly(GF(5), (1, 1))),
        OreAlgebra(Poly.from_values(GF(2, 2), (0, 2, 1))),
        OreAlgebra(Poly.from_values(GF(3, 2), (2, 0, 1))),
    ]
    for A in algebras:
        F = A.field
        for _ in range(60):
            terms = [
                Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(4))])
                for _ in range(rng.randrange(4))
            ]
            e = A.from_terms(terms)
            s = format_ore(e)
            assert parse_ore(A, s) == e
            assert format_ore(parse_ore(A, s)) == s


def test_parse_ore_errors():
    A = OreAlgebra(Poly(GF(3), (0, 1)))
    with pytest.raises(ParseError):
        parse_ore(A, "z + 1")
    with pytest.raises(ParseError):
        parse_ore(A, "y y")
    with pytest.raises(ParseError):
        parse_ore(A, "")


def test_whitespace_insensitive():
    F = GF(5)
    assert parse_poly(F, "  x ^ 2+ 1 ") == Poly(F, (1, 0, 1))
    assert parse_field(" GF(5) ") is F
