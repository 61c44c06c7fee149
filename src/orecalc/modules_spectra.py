"""Simple modules over Lambda(f) and the prime spectrum bookkeeping.

Lambda(f) is free of rank p^2 over its centre Z = K[z1, z2], so simple
modules are attached to maximal ideals of Z and split into two families:

* on the locus f = 0: for an irreducible factor p_i of f the quotient
  Lambda/(p_i) collapses to F_i[y] with F_i = K[x]/(p_i) (the derivation
  vanishes), and the simple module L(p_i, q) = F_i[y]/(q) has x acting as
  the root class of p_i and y as the companion matrix of q; the dimension
  over F_i is deg q.

* off the locus: a maximal ideal m = (x^p - xi, z2 - rho) of Z with
  f(xi^(1/p)) != 0 gives a p-dimensional simple module on the basis
  {y^i 1}, with x acting through the explicit binomial table
  x . y^i 1 = xi^(1/p) y^i 1 + sum_{j<i} C(i,j) (-1)^(i-j)
  (delta^(i-j-1) f)(xi^(1/p)) y^j 1 and y acting as the cyclic shift whose
  top column reduces y^p through z2 = y^p - c(x) y, i.e. y^p = rho + c(x) y
  on the module.  rho is the z2-coordinate of the maximal ideal throughout
  (the y^p-coordinate differs from it by c(xi^(1/p)) times the y-eigenvalue
  and is not used).

The x-action table is never trusted as typed: it is re-derived from the
defining relation alone, x 1 = xi^(1/p) 1 and x (y v) = y (x v) - f(x) v
(as yx - xy = f), so column i + 1 of X is column i shifted down one place
minus f(X) e_i, by Horner over the columns built so far; the two matrices
must agree exactly.  The Horner steps and the cyclic span of the eigenline
certificate apply a matrix to a vector through gf.LinearMap: one sum of
packed columns over a prime field, one dot per row over an extension.  As
z2 is central, c' = 0: c lies in K[x^p], so c(X) is the scalar
c(xi^(1/p)).  A wrong value there, in the last column of Y, fails
YX - XY = f(X) on that column.

Off f, simplicity rests on an eigenline certificate.  With a = xi^(1/p) and
N = X - a (nilpotent, as X^p = xi) it asks for N e_0 = 0, rank N = p - 1 and
e_0 generating K^p under X and Y.  Over any extension L, a nonzero X- and
Y-stable W meets ker N = L e_0 (N is nilpotent on W, and rank does not
depend on the field), so W contains e_0 and hence L^p: the module is
absolutely simple, so by Burnside the words in X and Y span all p x p
matrices and every nonzero vector is cyclic.  On f, q is irreducible over
F_i (bad input otherwise), q(Y) = 0 and X is the scalar x-bar, which
generates F_i over K: a submodule is an F_i[Y]-submodule, F_i[Y] =
F_i[y]/(q) is a field of degree d = deg q, and F_i^d is a line over it, so
the module is simple.  word_span_dim and all_basis_vectors_cyclic, which
would prove it again, are the tests' oracles.  The relations need no check
there either: X = x-bar I gives YX - XY = 0 = f(X) as p_i | f and
p_i(x-bar) = 0, x^p acts as the scalar x-bar^p, and z2 = y^p - c(x) y as
(y^p - c(x-bar) y) mod q once q(Y) = 0, the one check that stays.

The spectrum of Lambda: minimal primes are the irreducible factors p_i of f
(computed over K from the distinct-degree parts, split over K, with no
splitting field; see factor_into_irreducibles), the height-one completely
prime layer is the same list, and maximal ideals of Z off V(f^p) are
enumerated as Frobenius orbits of points (xi, rho) up to a residue degree
bound, each orbit once, by its least pair, built from the orbit minima of
xi and of rho instead of a test of every pair.  Krull and global dimension
are both the constant 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb, gcd, lcm

from .eigengroup import _elt_json, _poly_json, _require_monic_nonscalar, _stage_error
from .errors import DomainError, InternalCheckError
from .gf import SPECTRUM_PAIR_CAP, FieldDesc, LinearMap, Span, tower_over
from .poly import (
    Poly,
    distinct_degree_parts,
    is_irreducible,
    lift_poly,
    roots_in_ext,
    split_equal_degree,
)

# ---------------------------------------------------------------------------
# Dense exact matrices (row-major tuples of packed values)
# ---------------------------------------------------------------------------


def mat_id(F: FieldDesc, d: int):
    return tuple(tuple(1 if r == c else 0 for c in range(d)) for r in range(d))


def mat_zero(F: FieldDesc, d: int):
    return tuple((0,) * d for _ in range(d))


def mat_sub(F: FieldDesc, A, B):
    return tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(F: FieldDesc, A, s: int):
    return tuple(tuple(F.mul(a, s) for a in row) for row in A)


def mat_mul(F: FieldDesc, A, B):
    return F.mat_mul(A, B)


def mat_pow(F: FieldDesc, A, e: int):
    out = mat_id(F, len(A))
    b = A
    while e:
        if e & 1:
            out = mat_mul(F, out, b)
        b = mat_mul(F, b, b)
        e >>= 1
    return out


def mat_poly(F: FieldDesc, g: Poly, A):
    """g(A) by Horner, each coefficient added on the diagonal; g's field must
    be F.  It checks f(X) on both module families and the relations on f;
    off f it is the tests' oracle for c(X)."""
    out = mat_zero(F, len(A))
    for c in reversed(g.c):
        out = mat_mul(F, A, out)
        if c:
            out = tuple(row[:r] + (F.add(row[r], c),) + row[r + 1:] for r, row in enumerate(out))
    return out


def is_scalar_mat(F: FieldDesc, A, s: int) -> bool:
    return A == mat_scale(F, mat_id(F, len(A)), s)


def word_span_dim(F: FieldDesc, X, Y) -> int:
    """Dimension of the algebra spanned by words in X and Y (with identity)."""
    d = len(X)
    span = Span(F)
    frontier = [mat_id(F, d)]
    flat = lambda M: tuple(v for row in M for v in row)  # noqa: E731
    span.add(flat(frontier[0]))
    while frontier and span.rank < d * d:
        new = []
        for W in frontier:
            for A in (X, Y):
                WA = mat_mul(F, A, W)
                if span.add(flat(WA)):
                    new.append(WA)
        frontier = new
    return span.rank


def cyclic_span_dim(F: FieldDesc, X, Y, v) -> int:
    """Dimension of the span of the words in X and Y applied to v; X and Y
    are taken as LinearMaps of their columns once per call."""
    d = len(v)
    span = Span(F)
    maps = [LinearMap(F, d, zip(*A)) for A in (X, Y)]
    frontier = [v] if span.add(v) else []
    while frontier and span.rank < d:
        new = []
        for u in frontier:
            for A in maps:
                w = A.apply(u)
                if span.add(w):
                    new.append(w)
        frontier = new
    return span.rank


def eigenline_certificate(F: FieldDesc, X, Y, a: int) -> bool:
    """N = X - a kills e_0 and has rank d - 1, and e_0 generates F^d under X
    and Y.  When N is nilpotent this proves the module absolutely simple
    (see the module docstring)."""
    d = len(X)
    N = mat_sub(F, X, mat_scale(F, mat_id(F, d), a))
    rows = Span(F)
    for row in N:
        rows.add(row)
    kills_e0 = not any(row[0] for row in N)
    return kills_e0 and rows.rank == d - 1 and cyclic_span_dim(F, X, Y, mat_id(F, d)[0]) == d


def all_basis_vectors_cyclic(F: FieldDesc, X, Y) -> bool:
    d = len(X)
    return all(cyclic_span_dim(F, X, Y, e) == d for e in mat_id(F, d))


# ---------------------------------------------------------------------------
# Simple modules
# ---------------------------------------------------------------------------


# A dataclass: perfbench/selftest.py corrupts it with dataclasses.replace.
@dataclass(frozen=True)
class SimpleModuleSpec:
    """A simple Lambda(f)-module given by exact matrices.

    kind "on_f": L(p_i, q) = F_i[y]/(q) over F_i = K[x]/(p_i); dim = deg q.
    kind "off_f": Lambda/Lambda(x - xi^(1/p), z2 - rho); dim = p; xi and rho
    are the central characters of z1 = x^p and z2 (rho is the z2-coordinate).
    """

    kind: str
    f: Poly
    field: FieldDesc
    dim: int
    X: tuple
    Y: tuple
    xi: int | None = None
    rho: int | None = None
    p_i: Poly | None = None
    q: Poly | None = None

    def central_character(self) -> tuple[int, int] | None:
        return (self.xi, self.rho) if self.kind == "off_f" else None

    def describe(self) -> dict:
        F = self.field
        return {
            "kind": self.kind,
            "dim": self.dim,
            "X": [[_elt_json(F, v) for v in row] for row in self.X],
            "Y": [[_elt_json(F, v) for v in row] for row in self.Y],
            "xi": _elt_json(F, self.xi) if self.xi is not None else None,
            "rho": _elt_json(F, self.rho) if self.rho is not None else None,
            "p_i": _poly_json(self.p_i),
            "q": _poly_json(self.q),
        }


def simple_module_on_f(f: Poly, p_i: Poly, q: Poly) -> SimpleModuleSpec:
    """L(p_i, q) for p_i | f irreducible and q irreducible over F_i = K[x]/(p_i).

    For deg p_i > 1 the residue field F_i is realized as the canonical
    extension field and q must be given over it.  A failed check raises
    InternalCheckError at stage on_f.split or on_f.relations with the CLI
    line that builds the module.
    """
    _require_monic_nonscalar(f)
    K = f.field
    if p_i.field is not K:
        raise DomainError("p_i must be over the coefficient field of f")
    if p_i.degree < 1 or not p_i.is_monic() or not is_irreducible(p_i):
        raise DomainError("p_i must be monic irreducible")
    if not (f % p_i).is_zero():
        raise DomainError("p_i does not divide f")

    def error(stage: str, msg: str) -> InternalCheckError:  # q is read in y
        return _stage_error(stage, f, msg, "simple-module", "--pi", repr(p_i), "--q", repr(q).replace("x", "y"))

    e = p_i.degree
    if e == 1:
        F = K
        xbar = K.neg(p_i.c[0])
    else:
        tower = tower_over(K, K.m * e)
        F = tower.ext
        roots = roots_in_ext(p_i, tower)
        if len(roots) != e:
            raise error("on_f.split", "irreducible p_i must split in its residue field")
        xbar = roots[0]
    if q.field is not F:
        raise DomainError("q must be over the residue field K[x]/(p_i)")
    if q.degree < 1 or not q.is_monic() or not is_irreducible(q):
        raise DomainError("q must be monic irreducible over the residue field")

    d = q.degree
    X = mat_scale(F, mat_id(F, d), xbar)
    Y = []
    for r in range(d):
        row = []
        for c in range(d):
            if c < d - 1:
                row.append(1 if r == c + 1 else 0)
            else:
                row.append(F.neg(q.coeff(r).val))
        Y.append(tuple(row))
    Y = tuple(Y)

    # the one relation check; the others follow from it (module docstring)
    if mat_poly(F, q, Y) != mat_zero(F, d):
        raise error("on_f.relations", "q(Y) != 0")

    return SimpleModuleSpec("on_f", f, F, d, X, Y, p_i=p_i, q=q)


def _check_relations(F: FieldDesc, f: Poly, X, Y, z1: int, c: int, z2, error, stage: str) -> None:
    """YX - XY = f(X), x^p acts as the scalar z1 and y^p - c y as the matrix
    z2, on a module where c(x) acts as the scalar c; a failure raises
    error(stage, message), the caller's staged error."""
    p = F.p
    if mat_sub(F, mat_mul(F, Y, X), mat_mul(F, X, Y)) != mat_poly(F, f, X):
        raise error(stage, "YX - XY != f(X) on the constructed module")
    if not is_scalar_mat(F, mat_pow(F, X, p), z1):
        raise error(stage, "z1 = x^p does not act as its central character")
    if mat_sub(F, mat_pow(F, Y, p), mat_scale(F, Y, c)) != z2:
        raise error(stage, "z2 = y^p - c(x) y does not act as its central character")


def simple_module_off_f(f: Poly, xi, rho) -> SimpleModuleSpec:
    """The p-dimensional simple module at m = (x^p - xi, z2 - rho), off V(f^p)."""
    _require_monic_nonscalar(f)
    K = f.field
    xi = K.element(xi).val
    rho = K.element(rho).val
    p = K.p
    a = K.pth_root(xi)
    if f.eval_value(a) == 0:
        raise DomainError("the maximal ideal lies on V(f^p): f(xi^(1/p)) = 0")

    def error(stage: str, msg: str) -> InternalCheckError:
        point = ("--xi", repr(K.from_value(xi)), "--rho", repr(K.from_value(rho)))
        return _stage_error(stage, f, msg, "simple-module", *point)

    # closed-form x-action table; phi_t = delta^t(f) with delta(g) = f g'
    phis = [f]
    for _ in range(max(0, p - 2)):
        phis.append(f * phis[-1].derivative())
    phi_vals = [g.eval_value(a) for g in phis]  # phi_t = delta^t(f), t = 0..p-2

    X = [[0] * p for _ in range(p)]
    for i in range(p):
        X[i][i] = a
        for j in range(i):
            t = i - j
            cb = comb(i, j) % p
            sign = K.neg(phi_vals[t - 1]) if t % 2 else phi_vals[t - 1]
            X[j][i] = K.mul(cb, sign) if cb else 0
    X = tuple(tuple(row) for row in X)

    # independent re-derivation from the defining relation: x 1 = a 1 and
    # x (y v) = y (x v) - f(x) v, so column i + 1 is column i shifted down
    # minus f(X) e_i, by Horner, which needs only the columns 0..i built so
    # far: R applies them, one more after each step
    col = [a] + [0] * (p - 1)
    cols, R = [col], LinearMap(K, p, [col])
    for i in range(p - 1):
        fe = [0] * p
        fe[i] = f.c[-1]
        for c in reversed(f.c[:-1]):
            fe = R.apply(fe)
            fe[i] = K.add(fe[i], c)
        col = [K.sub(col[r - 1] if r else 0, fe[r]) for r in range(i + 2)] + [0] * (p - i - 2)
        cols.append(col)
        R.append(col)
    if tuple(zip(*cols)) != X:
        raise error("off_f.x_table", "x-action table disagrees with the ideal reduction")

    # y-action: cyclic shift with y^p = rho + c(x) y on the module, where
    # c = phi_(p-2)' lies in K[x^p], so c(X) is the scalar c(a)
    c_a = phis[-1].derivative().eval_value(a)
    Y = [[0] * p for _ in range(p)]
    for i in range(p - 1):
        Y[i + 1][i] = 1
    Y[0][p - 1] = rho
    Y[1][p - 1] = c_a
    Y = tuple(tuple(row) for row in Y)

    _check_relations(K, f, X, Y, xi, c_a, mat_scale(K, mat_id(K, p), rho), error, "off_f.relations")
    if not eigenline_certificate(K, X, Y, a):
        raise error("off_f.simplicity", "the eigenline certificate fails")

    return SimpleModuleSpec("off_f", f, K, p, X, Y, xi=xi, rho=rho)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


# A dataclass: perfbench/selftest.py corrupts it with dataclasses.replace.
@dataclass(frozen=True)
class SpectrumDesc:
    f: Poly
    min_primes: tuple[tuple[Poly, int], ...]
    max_off_f: tuple[tuple[int, int, int], ...]  # (residue degree, xi, rho)
    degree_bound: int

    @property
    def ht1(self) -> tuple[Poly, ...]:
        return tuple(p for p, _ in self.min_primes)

    @property
    def krull_dim(self) -> int:
        return 2

    @property
    def global_dim(self) -> int:
        return 2

    def spec_c(self) -> list[str]:
        out = ["0"]
        out.extend(f"({p_i!r})" for p_i, _ in self.min_primes)
        out.extend(
            f"({p_i!r}, q): q monic irreducible over K[x]/({p_i!r}) in y"
            for p_i, _ in self.min_primes
        )
        return out

    def describe(self) -> dict:
        K = self.f.field
        entries = []
        for j, xi, rho in self.max_off_f:
            Fj = tower_over(K, K.m * j).ext
            entries.append(
                {"degree": j, "xi": _elt_json(Fj, xi), "rho": _elt_json(Fj, rho)}
            )
        return {
            "min_primes": [
                {"poly": _poly_json(p_i), "mult": n} for p_i, n in self.min_primes
            ],
            "ht1": [_poly_json(p_i) for p_i in self.ht1],
            "spec_c": self.spec_c(),
            "max_off_f": entries,
            "krull_dim": self.krull_dim,
            "global_dim": self.global_dim,
        }


def factor_into_irreducibles(f: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors of f over K with their multiplicities,
    sorted by degree, then coefficients.

    No field past K is built: each distinct-degree part of f is split over
    K by split_equal_degree, and each multiplicity is read by exact
    division.  Two checks stay: the factors must rebuild f, which fails on
    a wrong multiplicity, a missed factor or one that does not divide f
    (multiplicity 0, as a factor found twice), and each must pass Rabin's
    test, which fails on a part split too little.  Either raises
    InternalCheckError at stage spectrum.factor."""
    _require_monic_nonscalar(f)
    factors = []
    for d, gd in distinct_degree_parts(f):
        factors += split_equal_degree(gd, d)
    out, rebuilt, rem = [], Poly.one(f.field), f
    for p_i in factors:
        m = 0
        while True:
            quo, r = rem.divmod(p_i)
            if not r.is_zero():
                break
            rem, m = quo, m + 1
        out.append((p_i, m))
        rebuilt = rebuilt * p_i**m
    if rebuilt != f or any(m == 0 for _, m in out):
        raise _stage_error("spectrum.factor", f, "the irreducible factors do not rebuild f", "spectrum")
    if not all(is_irreducible(p_i) for p_i in factors):
        raise _stage_error("spectrum.factor", f, "a factor failed Rabin's irreducibility test", "spectrum")
    out.sort(key=lambda t: (t[0].degree, t[0].c))
    return out


def spectrum(f: Poly, degree_bound: int = 1) -> SpectrumDesc:
    """Minimal primes, height-one layer, and maximal ideals of the centre
    off V(f^p) up to the residue degree bound.

    The points of residue degree j are the Frobenius orbits of pairs
    (xi, rho) of F_{q^j}, each given by its least pair: xi least in its orbit,
    of length a, and rho the strict minimum of an orbit of fr^a of length j/a.
    They number about q^(2j)/j; a bound with sum_j q^(2j) above
    SPECTRUM_PAIR_CAP is refused."""
    _require_monic_nonscalar(f)
    if degree_bound < 0:
        raise DomainError("degree bound must be nonnegative")
    K = f.field
    pairs = 0
    for j in range(1, degree_bound + 1):
        pairs += K.q ** (2 * j)
        if pairs > SPECTRUM_PAIR_CAP:
            raise DomainError(
                f"spectrum up to residue degree {degree_bound} over a field of size {K.q} "
                f"walks more than {SPECTRUM_PAIR_CAP} pairs (xi, rho)"
            )
    factors = factor_into_irreducibles(f)
    for p_i, _ in factors:
        if not ((f * p_i.derivative()) % p_i).is_zero():
            msg = "factor is not normal: p_i does not divide f p_i'"
            raise _stage_error("spectrum.normality", f, msg, "spectrum", "--degree-bound", str(degree_bound))

    fp = Poly.from_values(K, (K.frob(c) for c in f.c))  # f^p = fp(x^p)
    points = []
    for j in range(1, degree_bound + 1):
        tw = tower_over(K, K.m * j)
        Fj = tw.ext
        fpj = lift_poly(fp, tw)
        # the orbits of the Frobenius fr of Fj over K, in the order of their
        # least elements, each listed from it; v's orbit has length [K(v) : K]
        fr = [Fj.frob(v, tw.k) for v in Fj.elements()]
        orbits, seen = [], set()
        for v in Fj.elements():
            if v not in seen:
                orbit = [v]
                while fr[orbit[-1]] != v:
                    orbit.append(fr[orbit[-1]])
                seen.update(orbit)
                orbits.append(orbit)
        # reps[a]: the least elements of the orbits of fr^a of length j/a; in
        # an orbit of length b these are the classes of positions mod gcd(a, b)
        reps = {
            a: sorted(min(o[r :: gcd(a, len(o))]) for o in orbits if lcm(a, len(o)) == j for r in range(gcd(a, len(o))))
            for a in {len(o) for o in orbits}
        }
        for o in orbits:
            if fpj.eval_value(o[0]):
                points.extend(zip(repeat(j), repeat(o[0]), reps[len(o)]))
    return SpectrumDesc(f, tuple(factors), tuple(points), degree_bound)
