"""Independent oracles and enumerators that only the tests use.

Each one scans or enumerates instead of calling the fast path it checks:
roots by evaluation at every field element, subfields by spanning the
embedded power basis, eigengroups over a subfield by affine_matches over
its values, and the triviality of G_f by the paper's criterion from its
own Taylor shifts, which also list the centres that a scan over every root
of f1 and f1' would hit.  The root finder's former slow paths live here
too, on Poly arithmetic with a full remainder per product:
square-and-multiply powers, the distinct-degree loop that raises to the
q-th power at every degree, Rabin's test on those powers, equal-degree
splitting by the (Q-1)/2-th power, and f_V as the product of its |V|
linear factors.
Subspaces given by all their values are checked by rank (p^rank elements),
and their multiplier field is found by set membership.  The spectrum's
closed points come from its former walk over every pair (xi, rho), with
element-wise Frobenius orbits and subfield tests, and the irreducible
factors over K from the Frobenius orbits of the roots of f in its
splitting field (factor_orbits_oracle, which lowers each orbit's product
with lower_poly).  radical_oracle is
radical's general loop without its squarefree short-cut.
generator_laws_hold applies every generator of a closure descriptor to f,
the law that eigengroup_closed derives from the eigenform round trip and
lambda_n^n = 1 instead of checking it.  shift_space_oracle tries every
pairwise root difference against the root multiset, where
eigengroup.shift_space reads V from the gcd of the shift equations.
assert_record_semantics checks the value semantics of a result record.
The off-f module checks that simple_module_off_f proves instead of running
live here: relations_hold multiplies out every relation, and
eigenline_certificate checks the three conditions of simplicity, with the
matrix helpers mat_sub, mat_pow and is_scalar_mat.
"""

import copy
import pickle
import random
from math import gcd

import pytest

from orecalc.eigengroup import DEFAULT_BRUTE_CAP, affine_matches
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import (
    FieldDesc,
    FieldTower,
    Span,
    divisors,
    prime_factors,
    primitive_root_of_unity,
    span_values,
    tower_over,
)
from orecalc.modules_spectra import cyclic_span_dim, mat_id, mat_poly, mat_scale
from orecalc.poly import (
    Poly,
    exponent_decomp,
    exponent_gcd,
    lift_poly,
    poly_pth_root,
    radical,
    roots_in_ext,
    roots_with_multiplicity,
    space_basis,
)


def assert_record_semantics(rec, twin, text: str) -> None:
    """rec, a record, and twin, built again from the same values: equal and
    hashed by value, immutable, repr'd as text, and copied or pickled to an
    equal record of the same class."""
    assert rec is not twin and rec == twin and hash(rec) == hash(twin)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert repr(rec) == text
    for back in (copy.copy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)


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


def generator_laws_hold(res) -> bool:
    """Every generator of the closure descriptor of the EigengroupResult res
    sends f, lifted to the splitting field, to a scalar multiple of f: the
    torus law for a single root, the cyclic generator and the shifts by V."""
    fe = lift_poly(res.f, res.tower)
    return all(gen.eigenvalue_on(fe) is not None for gen in res.closure.generators())


def shift_space_oracle(rm, level: int | None = None) -> tuple[int, ...]:
    """Reduced echelon basis of the shifts delta in the subfield
    F_{p^level} of the splitting field (default: all of it) with
    delta + R(f) = R(f) as multisets, R(f) the root multiset rm of f: every
    pairwise difference of distinct roots is tried against the multiset,
    and the qualifying shifts must form a subspace."""
    tower = rm.tower
    level = tower.M if level is None else level
    L, mult, distinct = tower.ext, rm.as_multiset(), rm.distinct()
    qual = {0}
    for delta in {L.sub(r, r2) for r in distinct for r2 in distinct if r != r2}:
        if level < tower.M and not tower.in_subfield(delta, level):
            continue
        if all(mult.get(L.add(r, delta)) == m for r, m in rm.pairs):
            qual.add(delta)
    verify_fp_subspace(L, qual)
    return space_basis(L, qual)


def fixed_point(a) -> int:
    """The unique fixed value of an AffineAut x -> lam x + mu with lam != 1."""
    F = a.field
    if a.lam == 1:
        raise DomainError("shifts have no fixed point")
    return F.div(a.mu, F.sub(1, a.lam))


def mat_add(F: FieldDesc, A, B):
    """The entrywise sum of two matrices over F."""
    return tuple(tuple(F.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(F: FieldDesc, A, B):
    return tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_pow(F: FieldDesc, A, e: int):
    out, b = mat_id(F, len(A)), A
    while e:
        if e & 1:
            out = F.mat_mul(out, b)
        b = F.mat_mul(b, b)
        e >>= 1
    return out


def is_scalar_mat(F: FieldDesc, A, s: int) -> bool:
    return A == mat_scale(F, mat_id(F, len(A)), s)


def relations_hold(F: FieldDesc, f: Poly, X, Y, z1: int, c: int, z2) -> bool:
    """YX - XY = f(X), x^p acts as the scalar z1 and y^p - c y as the matrix
    z2, on a module where c(x) acts as the scalar c: every relation, by full
    matrix products, where simple_module_off_f checks one column."""
    return (
        mat_sub(F, F.mat_mul(Y, X), F.mat_mul(X, Y)) == mat_poly(F, f, X)
        and is_scalar_mat(F, mat_pow(F, X, F.p), z1)
        and mat_sub(F, mat_pow(F, Y, F.p), mat_scale(F, Y, c)) == z2
    )


def eigenline_certificate(F: FieldDesc, X, Y, a: int) -> bool:
    """N = X - a kills e_0 and has rank d - 1, and e_0 generates F^d under X
    and Y.  When N is nilpotent this proves the module absolutely simple (see
    the docstring of orecalc.modules_spectra, which proves the three
    conditions from the off-f construction instead of checking them)."""
    d = len(X)
    N = mat_sub(F, X, mat_scale(F, mat_id(F, d), a))
    rows = Span(F)
    for row in N:
        rows.add(row)
    kills_e0 = not any(row[0] for row in N)
    return kills_e0 and rows.rank == d - 1 and cyclic_span_dim(F, X, Y, mat_id(F, d)[0]) == d


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
    if len(rm.distinct()) == 1 or shift_space_oracle(rm):
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


def centre_hits(rm) -> dict[int, int]:
    """The root scan's hits on f = f1^(p^s) with V = 0, from the root
    multiset rm of f: each root nu of f1 or of f1' in the splitting field
    where f1(x + nu), its power of x stripped, is nonconstant with
    prime-to-p exponent gcd n >= 2, mapped to that n."""
    f1 = exponent_decomp(rm.poly).f1
    f1e = lift_poly(f1, rm.tower)
    out = {}
    for nu in set(rm.distinct()) | set(roots_in_ext(f1.derivative(), rm.tower)):
        sh = f1e.compose_affine(1, nu)
        g = Poly.from_values(sh.field, sh.c[sh.valuation():])
        if not g.is_constant() and _prime_to_p(g) >= 2:
            out[nu] = _prime_to_p(g)
    return out


def pow_mod_oracle(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod mod by square-and-multiply, one Poly remainder per product."""
    r = Poly.one(base.field)
    b = base % mod
    while e:
        if e & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        e >>= 1
    return r


def is_irreducible_oracle(f: Poly) -> bool:
    """Rabin's test with each x^(q^k) mod f raised by pow_mod_oracle."""
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    q = f.field.q
    x = Poly.x(f.field)
    for r in prime_factors(d):
        h = pow_mod_oracle(x, q ** (d // r), f)
        if (h - x).gcd(f).degree != 0:
            return False
    return pow_mod_oracle(x, q**d, f) == x % f


def radical_oracle(f: Poly) -> Poly:
    """radical(f) by the general loop alone: strip p-th roots, take the
    factors of multiplicity prime to p as f / gcd(f, f'), and divide out
    every factor sharing a root with them, also for a squarefree f."""
    out, f = Poly.one(f.field), f.monic()
    while f.degree > 0:
        d = f.derivative()
        if d.is_zero():
            f = poly_pth_root(f)
            continue
        g1 = (f // f.gcd(d)).monic()
        out = out * (g1 // out.gcd(g1))
        while (g := f.gcd(g1)).degree > 0:
            f = f // g
    return out


def distinct_degree_parts_oracle(f: Poly) -> list[tuple[int, Poly]]:
    """The distinct-degree parts of f, x^(q^d) raised to the q-th power by
    pow_mod_oracle at every degree d and reduced by the part still unsplit."""
    g = radical(f)
    q = f.field.q
    parts = []
    x = Poly.x(f.field)
    h = x % g
    d = 0
    while g.degree > 0:
        d += 1
        h = pow_mod_oracle(h, q, g)
        gd = g.gcd(h - x)
        if gd.degree > 0:
            parts.append((d, gd))
            g = g // gd
            h = h % g if g.degree > 0 else h
    return parts


def split_roots_oracle(g: Poly, seed: int = 0) -> list[int]:
    """Sorted roots of a monic product of distinct linear factors over F_Q by
    equal-degree splitting through h^((Q-1)/2) (odd p) or the trace of h
    (p = 2) for random linear h, each power taken by pow_mod_oracle."""
    F, rng = g.field, random.Random(seed)
    out, todo = [], [g]
    while todo:
        u = todo.pop()
        if u.degree <= 1:
            out.extend(F.neg(u.c[0]) for _ in range(u.degree))
            continue
        while True:
            h = Poly.from_values(F, (rng.randrange(F.q), rng.randrange(1, F.q)))
            if F.p == 2:
                t = s = h % u
                for _ in range(F.m - 1):
                    t = (t * t) % u
                    s = s + t
            else:
                s = pow_mod_oracle(h, (F.q - 1) // 2, u) - 1
            w = u.gcd(s)
            if 0 < w.degree < u.degree:
                todo += [w, u // w]
                break
    return sorted(out)


def verify_fp_subspace(field: FieldDesc, values) -> tuple[int, ...]:
    """Check that a finite set is an F_p-subspace; returns the sorted values.

    A set containing 0 is a subspace exactly when it has p^rank elements,
    rank being the dimension of its span.
    """
    vals = tuple(sorted({field.element(v).val if not isinstance(v, int) else v for v in values}))
    if 0 not in vals:
        raise DomainError("an F_p-subspace must contain 0")
    if len(vals) != field.p ** len(space_basis(field, vals)):
        raise DomainError("set is not closed under addition")
    return vals


def multiplier_field_oracle(field: FieldDesc, V) -> int:
    """Largest e with F_{p^e} V <= V for a nonzero subspace V given by all
    its values: gamma, of order p^e - 1, must send a basis into the set V."""
    vals = verify_fp_subspace(field, V)
    if len(vals) == 1:
        raise DomainError("multiplier field of the zero space")
    n = 0
    size = len(vals)
    while size > 1:
        size //= field.p
        n += 1
    vset = set(vals)
    basis = space_basis(field, vals)
    best = 1
    for e in divisors(gcd(n, field.m)):
        if e == 1:
            continue
        gamma = primitive_root_of_unity(field.p**e - 1, field).val
        if all(field.mul(gamma, b) in vset for b in basis):
            best = max(best, e)
    return best


def f_V_oracle(field: FieldDesc, V, nu=0) -> Poly:
    """prod_{v in V} (x - nu - v), one linear factor per element of V."""
    out = Poly.one(field)
    for v in verify_fp_subspace(field, V):
        out = out * Poly.from_values(field, (field.neg(field.add(nu, v)), 1))
    return out


def lower_poly(f: Poly, tower: FieldTower, j: int | None = None) -> Poly:
    """f, over the tower extension with its coefficients in the level j
    (the base by default), as a polynomial over that level."""
    lvl = tower.level(tower.k if j is None else j)
    return Poly.from_values(lvl.desc, (lvl.lower(v).val for v in f.c))


def factor_orbits_oracle(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f with multiplicities, sorted by degree
    and coefficients, through the Frobenius orbits of the roots of f in its
    splitting field: each orbit has one multiplicity, and its linear factors
    multiply to a factor over K."""
    rm = roots_with_multiplicity(f)
    tower = rm.tower
    L = tower.ext
    mult = rm.as_multiset()
    remaining = set(rm.distinct())
    factors = []
    while remaining:
        v = min(remaining)
        orbit = [v]
        while (w := L.frob(orbit[-1], tower.k)) != v:
            orbit.append(w)
        prod = Poly.one(L)
        for w in orbit:
            assert w in remaining and mult[w] == mult[v], "Frobenius orbit is not multiplicity-stable"
            remaining.discard(w)
            prod = prod * Poly.from_values(L, (L.neg(w), 1))
        factors.append((lower_poly(prod, tower), mult[v]))
    return sorted(factors, key=lambda t: (t[0].degree, t[0].c))


def spectrum_points_oracle(f: Poly, bound: int) -> tuple[tuple[int, int, int], ...]:
    """Closed points (j, xi, rho) off V(f^p) up to residue degree bound, by
    walking every pair of F_{q^j}: no coordinate pair in a proper subfield,
    and least in its orbit under element-wise Frobenius."""
    K = f.field
    fp = Poly.from_values(K, (K.frob(c) for c in f.c))
    points = []
    for j in range(1, bound + 1):
        tw = tower_over(K, K.m * j)
        Fj, fpj = tw.ext, lift_poly(fp, tw)
        for xi in Fj.elements():
            if fpj.eval_value(xi) == 0:
                continue
            for rho in Fj.elements():
                if any(
                    tw.in_subfield(xi, tw.k * t) and tw.in_subfield(rho, tw.k * t)
                    for t in range(1, j)
                    if j % t == 0
                ):
                    continue
                orbit = [(xi, rho)]
                for _ in range(j - 1):
                    orbit.append((Fj.frob(orbit[-1][0], tw.k), Fj.frob(orbit[-1][1], tw.k)))
                if min(orbit) == (xi, rho):
                    points.append((j, xi, rho))
    return tuple(points)
