"""The Ore extension A = K[x][y; delta] with delta(g) = f * g'.

Elements are kept in normal form sum_i a_i(x) y^i with a_i in K[x]; the
defining relation is y*a = a*y + delta(a) for a in K[x], equivalently
y*x - x*y = f.  Multiplication uses the iterated rewrite

    y^n * a = sum_t binom(n, t) delta^t(a) y^(n-t)

with binomial coefficients reduced mod p.

In characteristic p the centre is the polynomial ring K[z1, z2] on

    z1 = x^p,    z2 = y^p - c(x) y,

where c = (delta^(p-2)(f))' for p odd and c = f' for p = 2.  z1 is central
without a check: x^p commutes with x, and [y, x^p] = delta(x^p) =
p x^(p-1) f = 0 in characteristic p.  z2 is checked against x and y on
construction, which is the check on c.  The algebra is a free module of
rank p^2 over its centre with basis x^i y^j, 0 <= i, j < p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .eigengroup import _stage_error
from .errors import DomainError
from .gf import FieldDesc, FqElement
from .poly import Poly, _check_error


def delta_apply(f: Poly, g: Poly) -> Poly:
    """The derivation g -> f * g'."""
    return f * g.derivative()


def delta_power(f: Poly, g: Poly, k: int) -> Poly:
    if k < 0:
        raise DomainError("negative derivation power")
    for _ in range(k):
        g = f * g.derivative()
    return g


# A dataclass: perfbench/selftest.py corrupts it with dataclasses.replace.
@dataclass(frozen=True)
class CentreGens:
    """Verified central generators z1 = x^p and z2 = y^p - c(x) y."""

    z1: "OreElement"
    z2: "OreElement"
    c: Poly


class OreAlgebra:
    """K[x][y; f d/dx] for a fixed polynomial f over a finite field."""

    __slots__ = ("field", "f", "_c", "_centre")

    def __init__(self, f: Poly):
        self.field = f.field
        self.f = f
        self._c = None
        self._centre = None

    def __eq__(self, other):
        return (
            isinstance(other, OreAlgebra)
            and self.field is other.field
            and self.f == other.f
        )

    def __hash__(self):
        return hash((id(self.field), self.f.c))

    def __repr__(self):
        return f"Ore({self.field!r}, f={self.f!r})"

    def delta(self, g: Poly) -> Poly:
        return self.f * g.derivative()

    def delta_power(self, g: Poly, k: int) -> Poly:
        return delta_power(self.f, g, k)

    # -- element constructors ---------------------------------------------------

    def element(self, value) -> "OreElement":
        if isinstance(value, OreElement):
            if value.algebra != self:
                raise DomainError("element of a different Ore algebra")
            return value
        if isinstance(value, Poly):
            if value.field is not self.field:
                raise DomainError("coefficient from a different field")
            return OreElement(self, (value,))
        if isinstance(value, (int, FqElement)):
            return OreElement(self, (Poly.from_values(self.field, (self.field.element(value).val,)),))
        raise DomainError(f"cannot coerce {type(value).__name__} into the Ore algebra")

    @property
    def x(self) -> "OreElement":
        return OreElement(self, (Poly.x(self.field),))

    @property
    def y(self) -> "OreElement":
        return OreElement(self, (Poly.zero(self.field), Poly.one(self.field)))

    def from_terms(self, polys) -> "OreElement":
        return OreElement(self, tuple(polys))

    def zero(self) -> "OreElement":
        return OreElement(self, ())

    def one(self) -> "OreElement":
        return OreElement(self, (Poly.one(self.field),))

    # -- the centre ---------------------------------------------------------------

    @property
    def c_poly(self) -> Poly:
        """c with delta^p = c * delta; z2 = y^p - c(x) y."""
        if self._c is None:
            p = self.field.p
            if p == 2:
                self._c = self.f.derivative()
            else:
                self._c = self.delta_power(self.f, p - 2).derivative()
        return self._c

    def centre_generators(self) -> CentreGens:
        if self._centre is None:
            p = self.field.p
            z1 = self.element(Poly.x(self.field) ** p)
            terms = [Poly.zero(self.field)] * (p + 1)
            terms[p] = Poly.one(self.field)
            terms[1] = -self.c_poly
            z2 = self.from_terms(terms)
            # z1 is central in characteristic p (module docstring)
            if z2 * self.x != self.x * z2 or z2 * self.y != self.y * z2:
                raise _stage_error("centre.central", self.f, "z2 is not central", "centre")
            self._centre = CentreGens(z1, z2, self.c_poly)
        return self._centre

    def omega(self, elem: "OreElement") -> "OreElement":
        """The automorphism with f * a = omega(a) * f:  x -> x, y -> y - f'."""
        elem = self.element(elem)
        ytgt = self.y - self.element(self.f.derivative())
        out = self.zero()
        for i, ai in enumerate(elem.terms):
            if not ai.is_zero():
                out = out + self.element(ai) * ytgt**i
        return out


class OreElement:
    """Normal form sum_i terms[i](x) * y^i (terms trimmed, low degree first)."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: OreAlgebra, terms=()):
        terms = list(terms)
        while terms and terms[-1].is_zero():
            terms.pop()
        for t in terms:
            if t.field is not algebra.field:
                raise DomainError("coefficient from a different field")
        self.algebra = algebra
        self.terms = tuple(terms)

    @property
    def y_degree(self) -> int:
        return len(self.terms) - 1

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: int) -> Poly:
        if 0 <= i < len(self.terms):
            return self.terms[i]
        return Poly.zero(self.algebra.field)

    def __eq__(self, other):
        return (
            isinstance(other, OreElement)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.algebra.field), self.algebra.f.c, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for i in range(self.y_degree, -1, -1):
            a = self.terms[i]
            if a.is_zero():
                continue
            ypow = "" if i == 0 else ("y" if i == 1 else f"y^{i}")
            astr = repr(a)
            if i and astr == "1":
                parts.append(ypow)
            elif i and (a.degree > 0 or "," in astr):
                parts.append(f"({astr})*{ypow}")
            elif i:
                parts.append(f"{astr}*{ypow}")
            else:
                parts.append(astr)
        return " + ".join(parts)

    def _coerce(self, other) -> "OreElement":
        if isinstance(other, OreElement):
            if other.algebra != self.algebra:
                raise DomainError("mixed Ore algebras")
            return other
        if isinstance(other, (Poly, int, FqElement)):
            return self.algebra.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.terms, o.terms
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, t in enumerate(b):
            out[i] = out[i] + t
        return OreElement(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return OreElement(self.algebra, (-t for t in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out = list(self.terms) + [Poly.zero(self.algebra.field)] * (len(o.terms) - len(self.terms))
        for i, t in enumerate(o.terms):
            out[i] = out[i] - t
        return OreElement(self.algebra, out)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        A = self.algebra
        p = A.field.p
        if self.is_zero() or o.is_zero():
            return A.zero()
        n = self.y_degree
        out: list[Poly] = [Poly.zero(A.field)] * (n + o.y_degree + 1)
        for j, bj in enumerate(o.terms):
            if bj.is_zero():
                continue
            deltas = [bj]
            for _ in range(n):
                deltas.append(A.delta(deltas[-1]))
            for i, ai in enumerate(self.terms):
                if ai.is_zero():
                    continue
                for t in range(i + 1):
                    cb = comb(i, t) % p
                    if cb == 0 or deltas[t].is_zero():
                        continue
                    out[i + j - t] = out[i + j - t] + ai * deltas[t] * cb
        return OreElement(A, out)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative power in the Ore algebra")
        r = self.algebra.one()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def commutator(self, other: "OreElement") -> "OreElement":
        o = self._coerce(other)
        return self * o - o * self


def is_central(elem: OreElement) -> bool:
    A = elem.algebra
    return elem.commutator(A.x).is_zero() and elem.commutator(A.y).is_zero()


def verify_normality(f: Poly) -> None:
    """Check f * a = omega(a) * f on the generators (omega: x -> x, y -> y - f');
    a failure raises InternalCheckError at stage ore.normality, naming f and
    its field."""
    A = OreAlgebra(f)
    fe = A.element(f)
    for gen in (A.x, A.y):
        if fe * gen != A.omega(gen) * fe:
            raise _check_error("ore.normality", f, "f is not normal for the claimed twist")
