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

Off f, with a = xi^(1/p) and N = X - a, two checks run:

* the x-table (stage off_f.x_table).  The closed-form table is re-derived
  from the defining relation alone, x 1 = a 1 and x (y v) = y (x v) - f(x) v
  (as yx - xy = f), so column i + 1 of X is column i shifted down one place
  minus f(X) e_i, by Horner over the columns built so far (X is upper
  triangular, so f(X) e_i needs only the columns <= i); the two matrices
  must agree exactly.  The Horner steps apply a matrix to a vector through
  gf.LinearMap: one sum of packed columns over a prime field, one dot per
  row over an extension.
* column p - 1 of YX - XY = f(X) (stage off_f.relations), against f(X)
  e_(p-1) from one more Horner pass with all p columns.  It is the one
  column the re-derivation does not cover, and the one c(a) enters: as z2
  is central, c' = 0, so c lies in K[x^p] and c(X) is the scalar c(a),
  written at Y[1][p-1].  That column is shift(x_(p-1)) + c(a) f(a) e_0, so
  a wrong c(a) fails it, since f(a) != 0.

Everything else is implied by these checks or by the input check f(a) != 0:

* YX - XY = f(X) on e_i, i < p - 1: Y e_i = e_(i+1) and x_i = X e_i has no
  row p - 1 entry, so the column is shift(x_i) - x_(i+1) = f(X) e_i, which
  is the re-derivation.
* X^p = xi I: N is strictly upper triangular of size p, so in
  characteristic p, (a I + N)^p = a^p I + N^p = xi I.
* Y^p - c(a) Y = rho I: Y is the companion matrix of t^p - c(a) t - rho
  (Cayley-Hamilton).  No commutator check sees rho, as
  [e_0 e_(p-1)^T, X] = 0 (X e_0 = a e_0 and e_(p-1)^T X = a e_(p-1)^T).
* Simplicity, by an eigenline certificate: N e_0 = 0, as the first column
  of X is a e_0; rank N = p - 1, as the superdiagonal of N is
  X[i-1][i] = -i f(a) != 0; and e_0 is cyclic, as Y^i e_0 = e_i.  Over any
  extension L, a nonzero X- and Y-stable W meets ker N = L e_0 (N is
  nilpotent on W, and rank does not depend on the field), so W contains
  e_0 and hence L^p: the module is absolutely simple, so by Burnside the
  words in X and Y span all p x p matrices and every nonzero vector is
  cyclic.

On f, q is irreducible over F_i (bad input otherwise), q(Y) = 0 and X is
the scalar x-bar, which generates F_i over K: a submodule is an
F_i[Y]-submodule, F_i[Y] = F_i[y]/(q) is a field of degree d = deg q, and
F_i^d is a line over it, so the module is simple.  The relations need no
check on f either: X = x-bar I gives YX - XY = 0 = f(X) as p_i | f and
p_i(x-bar) = 0, x^p acts as the scalar x-bar^p, and z2 = y^p - c(x) y as
(y^p - c(x-bar) y) mod q once q(Y) = 0, the one check that stays.

For both families the full relation check, the eigenline certificate,
word_span_dim and all_basis_vectors_cyclic, which would prove all this
again, are the tests' oracles.

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


def mat_scale(F: FieldDesc, A, s: int):
    return tuple(tuple(F.mul(a, s) for a in row) for row in A)


def mat_poly(F: FieldDesc, g: Poly, A):
    """g(A) by Horner, each coefficient added on the diagonal; g's field must
    be F.  It checks q(Y) = 0 on f; the tests' oracles take f(X) and c(X)
    from it."""
    out = mat_zero(F, len(A))
    for c in reversed(g.c):
        out = F.mat_mul(A, out)
        if c:
            out = tuple(row[:r] + (F.add(row[r], c),) + row[r + 1:] for r, row in enumerate(out))
    return out


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
                WA = F.mat_mul(A, W)
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


def simple_module_off_f(f: Poly, xi, rho) -> SimpleModuleSpec:
    """The p-dimensional simple module at m = (x^p - xi, z2 - rho), off V(f^p).

    It runs two checks, the x-table against its re-derivation and the last
    column of YX - XY = f(X); the module docstring proves the rest from
    them.  A failure raises InternalCheckError at stage off_f.x_table or
    off_f.relations with the CLI line that builds the module."""
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
    # far: R applies them, one more after each step; the last pass, with
    # all p columns, leaves f(X) e_(p-1) in fe
    col = [a] + [0] * (p - 1)
    cols, R = [col], LinearMap(K, p, [col])
    for i in range(p):
        fe = [0] * p
        fe[i] = f.c[-1]
        for c in reversed(f.c[:-1]):
            fe = R.apply(fe)
            fe[i] = K.add(fe[i], c)
        if i < p - 1:
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

    # column p - 1 of YX - XY = f(X): the one the re-derivation leaves out,
    # and the one c(a) enters (module docstring)
    x_last, y_last = [row[-1] for row in X], [row[-1] for row in Y]
    if [K.sub(K.dot(yr, x_last), K.dot(xr, y_last)) for xr, yr in zip(X, Y)] != fe:
        raise error("off_f.relations", "YX - XY != f(X) on the last column")

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
    SPECTRUM_PAIR_CAP is refused.

    Each (p_i) is a two-sided ideal, as y p_i = p_i y + f p_i' and
    p_i | f | f p_i': the rebuild check of factor_into_irreducibles gives
    every p_i multiplicity at least 1, so no further normality check runs."""
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
