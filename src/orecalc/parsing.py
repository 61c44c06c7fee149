"""Text input and output for fields, field elements, polynomials, and Ore
algebra elements.

Grammar summary
---------------

Field specs:
    "GF(5)"                  prime field
    "GF(2^3)" or "GF(8)"     extension field with the canonical modulus
    "GF(9, mod=2,2,1)"       explicit monic modulus, F_p digits low first

Field elements:
    "3"                      an integer, reduced mod p
    "[1,2]"                  digit vector low first: 1 + 2t
    any constant expression, e.g. "-1" or "[0,1]^2"

Polynomials in x:
    expression form          "x^3 + 2*x + 1", "x*(x+1)^2", "([0,1]*x - 1)^2"
    coefficient-vector form  "[1,2,0,1]" = 1 + 2x + x^3 (low first); over an
                             extension field entries may themselves be digit
                             vectors, e.g. "[[1],[0,1]]" = 1 + t*x

Ore elements:
    expression form in x and y, e.g. "(x^2+1)*y^2 + x*y + 3".  Multiplication
    is the algebra's own (noncommutative) product, so "y*x" parses to the
    normal form x*y + f.

A whole input that consists of exactly one bracketed vector is read in
coefficient-vector form; inside a larger expression, brackets always denote a
single field element.  Integer literals everywhere reduce mod p (they live in
the prime subfield); packed values never appear in the text syntax.

Printing uses the canonical descending-power repr of each value.  For every
value v, parse(print(v)) == v, and print(parse(s)) is a fixpoint of
parse-then-print.  Malformed input raises ParseError with the offending
column.
"""

from .errors import DomainError, ParseError
from .gf import GF, FieldDesc, FqElement, canonical_modulus, is_prime
from .ore import OreAlgebra, OreElement
from .poly import Poly

_MAX_EXPONENT = 10**5
# Longest integer literal read.  No number the grammar takes needs more:
# exponents stop at _MAX_EXPONENT, field sizes at the q cap, and other
# integers reduce mod p; it keeps int() and the prime-power test of a field
# spec to microseconds.
_MAX_DIGITS = 100

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    "=": "EQUALS",
}


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return f"{self.kind}({self.value!r})@{self.pos}"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > _MAX_DIGITS:
                raise ParseError(f"integer literal exceeds the supported {_MAX_DIGITS} digits", text, i)
            tokens.append(_Token("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", text, i)
        tokens.append(_Token(kind, ch, i))
        i += 1
    tokens.append(_Token("END", None, n))
    return tokens


class _Parser:
    """Recursive-descent reader over a token stream.

    The value domain is pluggable: atoms() supplies the variables, and the
    arithmetic is whatever +, -, * and ** do on the produced objects, so the
    same grammar serves Poly and OreElement alike.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    # -- stream helpers -----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}")
        return self.next()

    def fail(self, message: str):
        raise ParseError(message, self.text, self.peek().pos)

    def at_end(self) -> bool:
        return self.peek().kind == "END"

    # -- shared pieces --------------------------------------------------------

    def read_int(self, what: str) -> int:
        return self.expect("INT", what).value

    def read_signed_int(self, what: str) -> int:
        if self.peek().kind == "MINUS":
            self.next()
            return -self.read_int(what)
        return self.read_int(what)

    def read_digit_vector(self) -> list[int]:
        """Reads "[d0,d1,...]" with signed integer digits."""
        self.expect("LBRACK", "'['")
        digits = [self.read_signed_int("a digit")]
        while self.peek().kind == "COMMA":
            self.next()
            digits.append(self.read_signed_int("a digit"))
        self.expect("RBRACK", "']'")
        return digits

    # -- expression grammar -----------------------------------------------------
    #
    # expr   := term (('+' | '-') term)*
    # term   := factor ('*' factor)*
    # factor := '-' factor | primary ('^' INT)?
    # primary := NAME | INT | '[' digits ']' | '(' expr ')'

    def expr(self, atoms):
        value = self.term(atoms)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next().kind
            rhs = self.term(atoms)
            value = value + rhs if op == "PLUS" else value - rhs
        return value

    def term(self, atoms):
        value = self.factor(atoms)
        while self.peek().kind == "STAR":
            self.next()
            value = value * self.factor(atoms)
        return value

    def factor(self, atoms):
        if self.peek().kind == "MINUS":
            self.next()
            return -self.factor(atoms)
        value = self.primary(atoms)
        if self.peek().kind == "CARET":
            caret = self.next()
            e = self.read_int("a nonnegative exponent")
            if e > _MAX_EXPONENT:
                raise ParseError(
                    f"exponent exceeds the supported bound {_MAX_EXPONENT}",
                    self.text,
                    caret.pos,
                )
            value = value**e
        return value

    def primary(self, atoms):
        tok = self.peek()
        if tok.kind == "NAME":
            value = atoms.variable(tok.value)
            if value is None:
                self.fail(f"unknown symbol {tok.value!r}")
            self.next()
            return value
        if tok.kind == "INT":
            self.next()
            return atoms.integer(tok.value)
        if tok.kind == "LBRACK":
            digits = self.read_digit_vector()
            return atoms.element_vector(digits, tok.pos)
        if tok.kind == "LPAREN":
            self.next()
            value = self.expr(atoms)
            self.expect("RPAREN", "')'")
            return value
        self.fail("expected a term")


# ---------------------------------------------------------------------------
# Atom suppliers for the two value domains
# ---------------------------------------------------------------------------


class _PolyAtoms:
    def __init__(self, field: FieldDesc, parser: _Parser, var: str = "x"):
        self.field = field
        self.parser = parser
        self.var = var

    def variable(self, name: str):
        if name == self.var:
            return Poly.x(self.field)
        return None

    def integer(self, n: int):
        return Poly(self.field, (n,))

    def element_vector(self, digits: list[int], pos: int):
        return Poly.from_values(self.field, (_pack_digits(self.field, digits, self.parser, pos),))


class _OreAtoms:
    def __init__(self, algebra: OreAlgebra, parser: _Parser):
        self.algebra = algebra
        self.parser = parser

    def variable(self, name: str):
        if name == "x":
            return self.algebra.x
        if name == "y":
            return self.algebra.y
        return None

    def integer(self, n: int):
        return self.algebra.element(n)

    def element_vector(self, digits: list[int], pos: int):
        F = self.algebra.field
        return self.algebra.element(F.from_value(_pack_digits(F, digits, self.parser, pos)))


def _pack_digits(field: FieldDesc, digits: list[int], parser: _Parser, pos: int) -> int:
    if len(digits) > field.m:
        raise ParseError(
            f"element vector has {len(digits)} digits but the field has degree {field.m}",
            parser.text,
            pos,
        )
    return field.pack(digits)


# ---------------------------------------------------------------------------
# Field specs
# ---------------------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int]:
    """Factors q as p^m for prime p, or raises DomainError.  The largest m
    with q a perfect m-th power gives the least root, which is no perfect
    power itself, so q is a prime power exactly when that root is prime."""
    for m in range(q.bit_length() - 1, 0, -1):
        r = 1 << -(-q.bit_length() // m)  # above the m-th root; Newton's steps fall to its floor
        while (s := ((m - 1) * r + q // r ** (m - 1)) // m) < r:
            r = s
        if r**m == q:
            if is_prime(r):
                return r, m
            break
    raise DomainError(f"{q} is not a prime power")


def parse_field(text: str) -> FieldDesc:
    """Reads a field spec such as "GF(5)", "GF(2^3)", or "GF(4, mod=1,1,1)"."""
    parser = _Parser(text)
    name = parser.expect("NAME", "'GF'")
    if name.value != "GF":
        raise ParseError("field specs start with 'GF'", text, name.pos)
    parser.expect("LPAREN", "'('")
    first = parser.read_int("a prime power")
    if parser.peek().kind == "CARET":
        parser.next()
        p, m = first, parser.read_int("an extension degree")
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", text, name.pos)
        if m < 1:
            raise ParseError("extension degree must be >= 1", text, name.pos)
    else:
        try:
            p, m = _prime_power(first)
        except DomainError as exc:
            raise ParseError(str(exc), text, name.pos) from None
    modulus = None
    if parser.peek().kind == "COMMA":
        parser.next()
        key = parser.expect("NAME", "'mod'")
        if key.value != "mod":
            raise ParseError("expected 'mod=...'", text, key.pos)
        parser.expect("EQUALS", "'='")
        coeffs = [parser.read_signed_int("a modulus digit")]
        while parser.peek().kind == "COMMA":
            parser.next()
            coeffs.append(parser.read_signed_int("a modulus digit"))
        modulus = coeffs
    parser.expect("RPAREN", "')'")
    if not parser.at_end():
        parser.fail("unexpected trailing input")
    try:
        return GF(p, m, modulus)
    except ParseError:
        raise
    except DomainError as exc:
        raise ParseError(str(exc), text, 0) from None


def format_field(field: FieldDesc) -> str:
    """Prints a field spec that parse_field maps back to the same field."""
    base = f"GF({field.p})" if field.m == 1 else f"GF({field.p}^{field.m})"
    if field.m > 1 and field.modulus != canonical_modulus(field.p, field.m):
        return base[:-1] + ", mod=" + ",".join(str(c) for c in field.modulus) + ")"
    return base


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------


def parse_element(field: FieldDesc, text: str) -> FqElement:
    """Reads a constant expression: "3", "-1", or "[1,2]" for 1 + 2t."""
    parser = _Parser(text)
    value = parser.expr(_PolyAtoms(field, parser))
    if not parser.at_end():
        parser.fail("unexpected trailing input")
    if value.degree > 0:
        raise ParseError("expected a constant, not a polynomial in x", text, 0)
    return field.from_value(value.c[0] if value.c else 0)


def format_element(a: FqElement) -> str:
    return repr(a)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _is_whole_vector(tokens: list[_Token]) -> bool:
    """True when the token stream is exactly one balanced [...] group."""
    if tokens[0].kind != "LBRACK":
        return False
    depth = 0
    for idx, tok in enumerate(tokens):
        if tok.kind == "LBRACK":
            depth += 1
        elif tok.kind == "RBRACK":
            depth -= 1
            if depth == 0:
                return tokens[idx + 1].kind == "END"
    return False


def parse_poly(field: FieldDesc, text: str, var: str = "x") -> Poly:
    """Reads a polynomial in `var`, in expression or coefficient-vector form."""
    parser = _Parser(text)
    if _is_whole_vector(parser.tokens):
        parser.expect("LBRACK", "'['")
        vals: list[int] = []
        while True:
            tok = parser.peek()
            if tok.kind == "LBRACK":
                vals.append(_pack_digits(field, parser.read_digit_vector(), parser, tok.pos))
            else:
                vals.append(parser.read_signed_int("a coefficient") % field.p)
            if parser.peek().kind == "COMMA":
                parser.next()
                continue
            break
        parser.expect("RBRACK", "']'")
        if not parser.at_end():
            parser.fail("unexpected trailing input")
        return Poly.from_values(field, vals)
    value = parser.expr(_PolyAtoms(field, parser, var))
    if not parser.at_end():
        parser.fail("unexpected trailing input")
    return value


def format_poly(f: Poly) -> str:
    s = repr(f)
    if f.is_constant() and not f.is_zero() and f.field.m > 1:
        # A bare constant over an extension field would otherwise read back
        # as a coefficient vector; parenthesize to keep it an element.
        return "(" + s + ")"
    return s


# ---------------------------------------------------------------------------
# Ore elements
# ---------------------------------------------------------------------------


def parse_ore(algebra: OreAlgebra, text: str) -> OreElement:
    """Reads an Ore algebra element such as "(x^2+1)*y^2 + x*y + 3"."""
    parser = _Parser(text)
    value = parser.expr(_OreAtoms(algebra, parser))
    if not parser.at_end():
        parser.fail("unexpected trailing input")
    return value


def format_ore(a: OreElement) -> str:
    return repr(a)
