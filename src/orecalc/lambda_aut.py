"""Automorphisms and isomorphisms of the Ore extensions Lambda(f).

Every K-algebra endomorphism of Lambda(f) = K[x][y; f d/dx] fixing K that is
an automorphism has the triangular shape

    phi: x -> lam*x + mu,    y -> lam^(deg f - 1) * y + P(x)

with (lam, mu) in the eigengroup G_f(K) and P in K[x] arbitrary: applying
phi to the defining relation yx - xy = f(x) gives
[phi(y), phi(x)] = lam^(deg f - 1) * lam * f = lam^(deg f) * f, which must
equal f(lam*x + mu), i.e. (lam, mu) must be an eigenpair of f and the
y-coefficient is forced.  Hence Aut(Lambda(f)) = (K[x], +) x| G_f(K), the
polynomial part acting by y -> y + P(x).

Two extensions are isomorphic exactly when the relation can be transported:
Lambda(f) ~ Lambda(g) iff g(x) = alpha^(-deg f) * f(alpha*x + beta) for some
alpha != 0, beta; the witness map sends x -> alpha*x + beta and
y -> alpha^(deg f - 1) * y.  Every constructed map re-checks the relation
transport inside the target algebra, so a wrong exponent convention would
fail loudly rather than silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eigengroup import (
    EigengroupDesc,
    _reproducer,
    _require_monic_nonscalar,
    eigengroup_over_base,
    solve_affine_matches,
    torus_centre,
)
from .errors import DomainError, InternalCheckError
from .gf import FieldDesc
from .ore import OreAlgebra, OreElement
from .poly import Poly


@dataclass(frozen=True)
class OreHom:
    """The map Lambda(f) -> Lambda(g) with x -> lam*x + mu,
    y -> lam^(deg f - 1)*y + pol(x); an automorphism when src is dst."""

    src: OreAlgebra
    dst: OreAlgebra
    lam: int
    mu: int
    pol: Poly

    def __post_init__(self):
        if self.src.field is not self.dst.field:
            raise DomainError("source and target algebras must share the field")
        if self.lam == 0:
            raise DomainError("x-coefficient of a homomorphism must be a unit")
        if self.pol.field is not self.src.field:
            raise DomainError("polynomial part over the wrong field")

    @property
    def field(self) -> FieldDesc:
        return self.src.field

    @property
    def y_coeff(self) -> int:
        return self.field.pow(self.lam, self.src.f.degree - 1)

    def image_x(self) -> OreElement:
        return self.dst.element(Poly.from_values(self.field, (self.mu, self.lam)))

    def image_y(self) -> OreElement:
        F = self.field
        terms = (self.pol, Poly.from_values(F, (self.y_coeff,)))
        return self.dst.from_terms(terms)

    def apply(self, elem: OreElement) -> OreElement:
        if elem.algebra != self.src:
            raise DomainError("element does not belong to the source algebra")
        out = self.dst.zero()
        iy = self.image_y()
        acc = self.dst.one()
        for i, a in enumerate(elem.terms):
            if i:
                acc = acc * iy
            out = out + self.dst.element(a.compose_affine(self.lam, self.mu)) * acc
        return out

    def verify(self) -> None:
        """Relation transport: [phi(y), phi(x)] must equal phi(f(x))."""
        ix, iy = self.image_x(), self.image_y()
        lhs = iy * ix - ix * iy
        rhs = self.dst.element(self.src.f.compose_affine(self.lam, self.mu))
        if lhs != rhs:
            raise InternalCheckError("relation transport fails for the claimed map")

    def describe(self) -> dict:
        from .eigengroup import _elt_json, _poly_json

        return {
            "lambda": _elt_json(self.field, self.lam),
            "mu": _elt_json(self.field, self.mu),
            "y_coeff": _elt_json(self.field, self.y_coeff),
            "P": _poly_json(self.pol),
        }


class LambdaAut(OreHom):
    """An automorphism of Lambda(f); composition and inversion stay in the class."""

    def __init__(self, algebra: OreAlgebra, lam: int, mu: int, pol: Poly | None = None):
        if pol is None:
            pol = Poly.zero(algebra.field)
        super().__init__(algebra, algebra, lam, mu, pol)

    @property
    def algebra(self) -> OreAlgebra:
        return self.src

    @classmethod
    def identity(cls, algebra: OreAlgebra) -> "LambdaAut":
        return cls(algebra, 1, 0)

    def __mul__(self, other: "LambdaAut") -> "LambdaAut":
        """(a * b).apply == a.apply after b.apply (composition of maps)."""
        if not isinstance(other, LambdaAut) or other.algebra != self.algebra:
            raise DomainError("composition needs automorphisms of one algebra")
        F = self.field
        c2 = other.y_coeff
        lam = F.mul(self.lam, other.lam)
        mu = F.add(F.mul(other.lam, self.mu), other.mu)
        pol = self.pol.scale_value(c2) + other.pol.compose_affine(self.lam, self.mu)
        return LambdaAut(self.algebra, lam, mu, pol)

    def inverse(self) -> "LambdaAut":
        F = self.field
        li = F.inv(self.lam)
        mi = F.neg(F.mul(li, self.mu))
        ci = F.pow(li, self.src.f.degree - 1)
        pol = -self.pol.compose_affine(li, mi).scale_value(ci)
        return LambdaAut(self.algebra, li, mi, pol)


@dataclass(frozen=True)
class AutGroupDesc:
    """Aut(Lambda(f)) = (K[x], +) x| G_f(K): always infinite through the
    polynomial part, with the finite eigengroup as the reductive quotient."""

    algebra: OreAlgebra
    eigen: EigengroupDesc

    @property
    def f(self) -> Poly:
        return self.algebra.f

    def order(self) -> None:
        return None

    def eigen_order(self) -> int:
        """The order of the eigen part (public API; callers outside the
        package read it)."""
        return self.eigen.order()

    def generators(self) -> list[LambdaAut]:
        """Eigengroup generators with P = 0, plus y -> y + 1 and y -> y + x
        representing the infinite polynomial part."""
        F = self.algebra.field
        out = [LambdaAut(self.algebra, a.lam, a.mu) for a in self.eigen.generators()]
        out.append(LambdaAut(self.algebra, 1, 0, Poly.one(F)))
        out.append(LambdaAut(self.algebra, 1, 0, Poly.x(F)))
        return out

    def contains(self, phi: OreHom) -> bool:
        if phi.src != self.algebra or phi.dst != self.algebra:
            return False
        return (phi.lam, phi.mu) in {a.pair for a in self.eigen.elements()}

    def describe(self) -> dict:
        return {
            "order": "infinite",
            "polynomial_part": "additive group of K[x] acting by y -> y + P(x)",
            "eigen_part": self.eigen.describe(),
        }


def aut_group(f: Poly) -> AutGroupDesc:
    """Automorphism group of Lambda(f) for monic nonscalar f.

    G_f(K) comes from eigengroup_over_base, the solve over K, so no
    splitting field is built; every generator then transports the
    defining relation."""
    _require_monic_nonscalar(f)
    desc = AutGroupDesc(OreAlgebra(f), eigengroup_over_base(f))
    for g in desc.generators():
        g.verify()
    return desc


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    alpha: int | None
    beta: int | None
    hom: OreHom | None

    @property
    def scaling(self) -> int | None:
        """lambda = alpha^(-d) with g = lambda * f(alpha*x + beta)."""
        if not self.isomorphic:
            return None
        F = self.hom.field
        return F.inv(F.pow(self.alpha, self.hom.src.f.degree))

    def describe(self) -> dict:
        from .eigengroup import _elt_json

        if not self.isomorphic:
            return {"isomorphic": False, "lambda": None, "alpha": None, "beta": None}
        F = self.hom.field
        return {
            "isomorphic": True,
            "lambda": _elt_json(F, self.scaling),
            "alpha": _elt_json(F, self.alpha),
            "beta": _elt_json(F, self.beta),
        }


def are_isomorphic(f: Poly, g: Poly) -> IsoResult:
    """Decide Lambda(f) ~ Lambda(g) and produce a verified witness map.

    The criterion is g = alpha^(-d) f(alpha*x + beta); solve_affine_matches
    finds every (alpha, beta) in K from the roots of the equations left
    after eliminating alpha, and the first witness in (alpha, beta) order is
    returned after transporting the defining relation through it.  A torus
    pair (x - a)^d, (x - b)^d has q - 1 witnesses (lam, a - b*lam), and
    the first, (1, a - b), is taken without listing them.  A
    witness that fails the transport raises InternalCheckError at stage
    iso.solve with the CLI line that repeats the query.  The scan
    affine_matches, one Taylor shift per beta, is the oracle it agrees with.
    """
    _require_monic_nonscalar(f)
    _require_monic_nonscalar(g)
    a, b = torus_centre(f), torus_centre(g)
    if a is not None and b is not None and f.degree == g.degree:
        matches = [(1, f.field.sub(a, b))]
    else:
        matches = solve_affine_matches(f, g)
    if not matches:
        return IsoResult(False, None, None, None)
    alpha, beta = matches[0]
    hom = OreHom(OreAlgebra(f), OreAlgebra(g), alpha, beta, Poly.zero(f.field))
    try:
        hom.verify()
    except InternalCheckError as exc:
        line = _reproducer("isomorphic", f.field, "--f", repr(f), "--g", repr(g))
        raise InternalCheckError(f"{exc}; {line}", "iso.solve") from exc
    return IsoResult(True, alpha, beta, hom)
