"""Independent oracles and enumerators that only the tests use.

Each one scans or enumerates instead of calling the fast path it checks:
roots by evaluation at every field element, subfields by spanning the
embedded power basis, eigengroups over a subfield by affine_matches over
its values, and the triviality of G_f by the paper's criterion from its
own Taylor shifts.
"""

from orecalc.eigengroup import DEFAULT_BRUTE_CAP, affine_matches, shift_space
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import FieldDesc, FieldTower, span_values
from orecalc.poly import (
    Poly,
    exponent_decomp,
    exponent_gcd,
    lift_poly,
    roots_in_ext,
    roots_with_multiplicity,
)


def roots_in_field(f: Poly) -> list[int]:
    """Packed values v in f's own field with f(v) = 0 (exhaustive scan)."""
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    return [v for v in f.field.elements() if f.eval_value(v) == 0]


def monic_polys(field: FieldDesc, degree: int):
    """Deterministic iterator over all monic polynomials of the given degree."""
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    q = field.q

    def rec(prefix, i):
        if i == degree:
            yield Poly.from_values(field, prefix + [1])
            return
        for v in range(q):
            yield from rec(prefix + [v], i + 1)

    yield from rec([], 0)


def subfield_values(tower: FieldTower, j: int) -> tuple[int, ...]:
    """Sorted packed ext-values of the subfield F_{p^j}: the F_p-span of
    the embedded power basis of level j."""
    if tower.M % j != 0:
        raise DomainError(f"F_{{p^{j}}} is not a subfield of F_{{p^{tower.M}}}")
    ext = tower.ext
    if j == tower.M:
        return tuple(range(ext.q))
    out = span_values(ext, tower.level(j).pows)
    if len(out) != ext.p**j:
        raise InternalCheckError("subfield enumeration mismatch")
    return out


def eigengroup_bruteforce_in_tower(f: Poly, tower: FieldTower, level: int) -> set[tuple[int, int]]:
    """Brute-force eigen-substitution pairs with lam, mu in F_{p^level} <= L,
    returned as packed values of the level field."""
    if f.degree < 1 or not f.is_monic():
        raise DomainError("a monic nonscalar polynomial is required")
    if tower.M % level:
        raise DomainError("level must divide the splitting degree")
    sub = subfield_values(tower, level)
    if len(sub) > DEFAULT_BRUTE_CAP:
        raise DomainError(f"subfield of size {len(sub)} exceeds the brute-force cap {DEFAULT_BRUTE_CAP}")
    fe = lift_poly(f, tower)
    lvl = tower.level(level)
    return {(lvl.lower(l).val, lvl.lower(m).val) for l, m in affine_matches(fe, fe, sub)}


def _prime_to_p(w: Poly) -> int:
    """Prime-to-p part of the exponent gcd of w."""
    g, p = exponent_gcd(w), w.field.p
    if g == 0:
        raise InternalCheckError("exponent gcd of a constant polynomial")
    while g % p == 0:
        g //= p
    return g


def triviality_criterion(f: Poly, tower: FieldTower | None = None) -> bool:
    """The paper's criterion for G_f = 1 over the closure, f = f1^(p^s):
    f has two distinct roots, and (a) at each root nu of f1 the shift
    f1(x + nu) with its power of x stripped, (b) at each root nu of f1'
    that is no root of f1 the shift f1(x + nu) itself, has prime-to-p
    exponent gcd 1, and (c) the shift space V of the roots is 0."""
    rm = roots_with_multiplicity(f, tower)
    if len(rm.distinct()) == 1 or shift_space(rm).dim:
        return False
    f1 = exponent_decomp(f).f1
    f1e = lift_poly(f1, rm.tower)
    for nu in rm.distinct():
        sh = f1e.compose_affine(1, nu)
        if _prime_to_p(Poly.from_values(sh.field, sh.c[sh.valuation():])) != 1:
            return False
    for nu in roots_in_ext(f1.derivative(), rm.tower):
        if f1e.eval_value(nu) and _prime_to_p(f1e.compose_affine(1, nu)) != 1:
            return False
    return True
