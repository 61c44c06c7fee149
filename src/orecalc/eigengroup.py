"""Eigengroups of monic polynomials over finite fields.

The eigengroup G_f of a monic nonscalar f in K[x] consists of the affine
substitutions sigma_{lam,mu}: x -> lam*x + mu with sigma(f) = c*f for some
nonzero scalar c (necessarily c = lam^deg f).  Computations run over the
splitting field L of f, which stands in for the algebraic closure: once f
has two distinct roots, every eigen-substitution permutes them and an affine
map is pinned by two points, so all of G_f(closure) is already L-rational.

Structure of the group (with all data L-rational):

* f = (x - nu)^d  ->  the torus T_nu = {x -> lam*(x - nu) + nu}, infinite
  over the closure.
* otherwise G_f = Sh_V x| <sigma_{lam_n, (1-lam_n) nu}> is finite: Sh_V is
  the group of shifts by the shift space V of f, extended by a cyclic group
  of order n prime to p fixing nu.

The closed-form computation has two steps.  A single distinct root gives the
torus f = (x - a)^d, a = torus_centre(f).  Otherwise one centre search reads
f = f1^(p^s) through its shift space V: f1 = G(f_V) with f_V = x and no
bound on n when V = 0, and with G from decompose_through and n | p^e - 1
(F_{p^e} the multiplier field of V) when V != 0.  If p does not divide
d1 = deg f1, no root is split: V moves the roots of f1 freely and keeps
multiplicities, so |V| divides d1 and V = 0, and a centre with n >= 2 kills
the x^(d1-1) coefficient a_(d1-1) + d1 nu of f1(x + nu), so
nu = -a_(d1-1)/d1 in K is the one candidate.  If p | d1, shift_space_is_zero
decides V = 0 over K.  Then a commutator in G_f (lam = 1) is a trivial shift,
so all of G_f fixes one nu; the Frobenius conjugate of a generator fixes
nu^q, so nu is in K, a root of f1 (i >= 1) or of f1' (i = 0), and no root of
L is split.  When V != 0 each root of f1 and of f1' in L is a candidate
centre nu.  With w = f_V(x - nu), f1 = G(w + f_V(nu)),
and stripping the power of w from G(y + f_V(nu)) leaves g_nu, whose
prime-to-p exponent gcd (p^e - 1 when g_nu is constant: one coset of roots)
bounds n.  Hits, the candidates with n >= 2, lie in one V-coset with equal
data and give the eigenform f = f_V(x-nu)^i * g(f_V(x-nu)^n), case A10 (A11
when V = 0); no hit leaves the shifts alone (B11) or the trivial group
(V = 0).  The eigenform round trip and the generator laws are checked once.

Descent to a subfield F_{p^j} of L intersects V with the subfield and finds
the minimal power of the cyclic generator that can be corrected into the
subfield by a shift from V.  G_f(K) alone needs no splitting field:
eigengroup_over_base reads it from the eigenpairs that solve_affine_matches
finds over K, and the descent to K must give the same descriptor.
Canonical choices throughout: nu is the packed minimum of its V-coset (at
every level), lambda_n is the level field's own primitive_root_of_unity(n),
bases are echelonized; identical inputs produce identical descriptors.  V
moves between the steps as its reduced echelon basis only; its values are
listed where elements are (v_values of the descriptors, for elements() and
the descent and variant-b scans).

The inverse problem (realize a prescribed subgroup H as G_f) is solved by
explicit witness polynomials per subgroup shape, and every structured result
can be compared against `eigengroup_bruteforce`, the independent oracle that
shifts f by every mu and solves a coefficient equation for lam.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from math import comb, gcd

from .errors import DomainError, InternalCheckError
from .gf import FieldDesc, FieldTower, Span, divisors, primitive_root_of_unity, span_values, tower_over
from .poly import (
    Poly,
    RootMultiset,
    checked_splitting_tower,
    contract_exponents,
    decompose_through,
    exponent_decomp,
    f_V,
    gcd_p,
    lift_poly,
    multiplier_field,
    poly_pow_mod,
    roots_in_ext,
    roots_with_multiplicity,
    shift_coeffs,
    space_basis,
)

DEFAULT_BRUTE_CAP = 1 << 10


def _require_monic_nonscalar(f: Poly) -> None:
    if f.degree < 1:
        raise DomainError("a nonscalar polynomial is required")
    if not f.is_monic():
        raise DomainError("a monic polynomial is required")


def _elt_json(field: FieldDesc, v: int | None):
    if v is None:
        return None
    if field.m == 1:
        return v
    return list(field.unpack(v))


def _poly_json(g: Poly | None):
    if g is None:
        return None
    return [_elt_json(g.field, c) for c in g.c]


def _reproducer(command: str, field: FieldDesc, *opts: str) -> str:
    """The one-line CLI call that repeats a computation, for check errors."""
    mod = ",".join(map(str, field.modulus))
    spec = repr(field) if field.m == 1 else f"GF({field.p}^{field.m}, mod={mod})"
    return "reproduce: " + shlex.join(["orecalc", command, "--field", spec, *opts])


def _stage_error(stage: str, f: Poly, msg: str, command: str = "eigengroup") -> InternalCheckError:
    """A failed check on f at the given stage, with the CLI line that repeats it."""
    return InternalCheckError(f"{msg}; {_reproducer(command, f.field, '--f', repr(f))}", stage)


# ---------------------------------------------------------------------------
# Affine substitutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineAut:
    """The substitution sigma_{lam,mu}: x -> lam*x + mu with lam != 0.

    Products compose substitutions left to right:
    (s1 * s2)(x) = s1(s2(x)) as ring maps, i.e. lam = lam1*lam2 and
    mu = lam2*mu1 + mu2, matching sigma^i_{lam,(1-lam)nu} sigma_{1,v}
    = sigma_{lam^i, (1-lam^i)nu + v}.
    """

    field: FieldDesc
    lam: int
    mu: int

    def __post_init__(self):
        if self.lam == 0:
            raise DomainError("affine substitution needs lam != 0")

    @classmethod
    def identity(cls, field: FieldDesc) -> "AffineAut":
        return cls(field, 1, 0)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.lam, self.mu)

    def __mul__(self, other: "AffineAut") -> "AffineAut":
        if other.field is not self.field:
            raise DomainError("mixed-field composition of substitutions")
        F = self.field
        return AffineAut(
            F, F.mul(self.lam, other.lam), F.add(F.mul(other.lam, self.mu), other.mu)
        )

    def inverse(self) -> "AffineAut":
        F = self.field
        li = F.inv(self.lam)
        return AffineAut(F, li, F.neg(F.mul(li, self.mu)))

    def power(self, j: int) -> "AffineAut":
        F = self.field
        if j < 0:
            return self.inverse().power(-j)
        if self.lam == 1:
            return AffineAut(F, 1, F.mul(self.mu, j % F.p))
        lj = F.pow(self.lam, j)
        ratio = F.div(F.sub(1, lj), F.sub(1, self.lam))
        return AffineAut(F, lj, F.mul(ratio, self.mu))

    def order(self) -> int:
        F = self.field
        if self.lam != 1:
            return F.order_of(self.lam)
        return F.p if self.mu else 1

    def apply(self, f: Poly) -> Poly:
        if f.field is not self.field:
            raise DomainError("substitution field does not match the polynomial")
        return f.compose_affine(self.lam, self.mu)

    def eigenvalue_on(self, f: Poly) -> int | None:
        """Packed c with f(lam*x+mu) = c*f, or None; c = lam^deg f if any."""
        F = self.field
        c = F.pow(self.lam, f.degree)
        if self.apply(f) == f.scale_value(c):
            return c
        return None

    def describe(self) -> dict:
        return {"lambda": _elt_json(self.field, self.lam), "mu": _elt_json(self.field, self.mu)}

    def __repr__(self):
        F = self.field
        ls = "x" if self.lam == 1 else f"{_elt_json(F, self.lam)}*x"
        if self.mu == 0:
            return f"x -> {ls}"
        return f"x -> {ls} + {_elt_json(F, self.mu)}"


# ---------------------------------------------------------------------------
# Shift spaces
# ---------------------------------------------------------------------------


class ShiftSpace:
    """The F_p-space of shifts delta with delta + R(f) = R(f) as multisets,
    with delta constrained to the subfield F_{p^level} of the splitting field."""

    def __init__(self, tower: FieldTower, level: int, basis: tuple[int, ...]):
        self.tower = tower
        self.level = level
        self.basis = tuple(basis)

    def __eq__(self, other):
        return (
            isinstance(other, ShiftSpace)
            and self.tower is other.tower
            and self.level == other.level
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"ShiftSpace(dim={self.dim}, level={self.level})"

    @property
    def dim(self) -> int:
        return len(self.basis)


def shift_space(rm: RootMultiset, level: int | None = None) -> ShiftSpace:
    """Shift space of the root multiset of f at the given subfield level of
    its tower (default: the whole of L)."""
    _require_monic_nonscalar(rm.poly)
    tower = rm.tower
    if len(rm.pairs) == 1:
        raise DomainError("shift space needs at least two distinct roots")
    if level is None:
        level = tower.M
    if tower.M % level:
        raise DomainError("shift level must divide the splitting degree")
    L = tower.ext
    mult = rm.as_multiset()
    distinct = rm.distinct()
    cands = {L.sub(r, r2) for r in distinct for r2 in distinct if r != r2}
    qual = {0}
    for delta in cands:
        if level < tower.M and not tower.in_subfield(delta, level):
            continue
        if all(mult.get(L.add(r, delta)) == m for r, m in rm.pairs):
            qual.add(delta)
    basis = space_basis(L, qual)
    if len(qual) != L.p ** len(basis):
        raise InternalCheckError("qualifying shifts failed to form a subspace")
    return ShiftSpace(tower, level, basis)


def shift_space_is_zero(f: Poly) -> bool:
    """Whether V = {v : f(x + v) = f(x)} is 0, decided over K: V is the common
    zero set of b_k(mu) - f_k, k < deg f (shift_coeffs), so V = 0 exactly when
    their gcd is c mu^t.  The gcd is taken from the top k down until it is."""
    G = Poly.zero(f.field)
    for b in shift_coeffs(f, range(f.degree - 1, -1, -1)):
        G = G.gcd(Poly.from_values(f.field, b.c[1:]))
        if G.c and G.valuation() == G.degree:
            return True
    return False


# ---------------------------------------------------------------------------
# Group descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigengroupDesc:
    """G_f presented over the field F_{p^level} inside the splitting tower.

    kind "torus": T_nu (all x -> lam*(x-nu)+nu); infinite when over_closure.
    kind "finite": Sh_V x| <sigma_{lambda_n,(1-lambda_n)nu}>; the trivial
    group is the finite descriptor with n = 1 and empty basis.
    kind "full": every substitution over the level field (normalized form of
    a finite descriptor with V the whole level field and n = p^level - 1).

    All packed values (nu, lambda_n, v_basis) live in the level field.
    """

    kind: str
    tower: FieldTower
    level: int
    over_closure: bool
    nu: int
    n: int
    lambda_n: int
    v_basis: tuple[int, ...]

    @property
    def level_field(self) -> FieldDesc:
        return self.tower.level(self.level).desc

    def is_trivial(self) -> bool:
        return self.kind == "finite" and self.n == 1 and not self.v_basis

    def v_values(self) -> tuple[int, ...]:
        return span_values(self.level_field, self.v_basis)

    def order(self) -> int | None:
        """Group order; None means infinite."""
        if self.over_closure and self.kind in ("torus", "full"):
            return None
        F = self.level_field
        if self.kind == "torus":
            return F.q - 1
        if self.kind == "full":
            return F.q * (F.q - 1)
        return self.n * F.p ** len(self.v_basis)

    def generators(self) -> list[AffineAut]:
        F = self.level_field
        out = []
        if self.kind == "torus":
            g0 = primitive_root_of_unity(F.q - 1, F).val if F.q > 2 else 1
            if g0 != 1:
                out.append(AffineAut(F, g0, F.mul(F.sub(1, g0), self.nu)))
            return out
        if self.kind in ("finite", "full") and self.n > 1:
            out.append(
                AffineAut(F, self.lambda_n, F.mul(F.sub(1, self.lambda_n), self.nu))
            )
        vb = self.v_basis if self.kind == "finite" else (F.p**i for i in range(F.m))
        for v in vb:
            out.append(AffineAut(F, 1, v))
        return out

    def elements(self) -> list[AffineAut]:
        """All group elements over the level field, sorted; infinite rejected."""
        if self.order() is None:
            raise DomainError(
                "the group over the closure is infinite; descend to a finite level first"
            )
        F = self.level_field
        kind = "cyclic" if self.kind == "finite" else self.kind
        pairs = _subgroup_pairs(F, kind, self.nu, self.n, self.lambda_n, self.v_values())
        out = [AffineAut(F, l, m) for l, m in pairs]
        if len(out) != self.order():
            raise InternalCheckError("element enumeration does not match the order formula")
        return out

    def describe(self) -> dict:
        F = self.level_field
        order = self.order()
        return {
            "kind": self.kind,
            "nu": _elt_json(F, self.nu if self.kind != "full" else 0),
            "n": self.n,
            "lambda_n": _elt_json(F, self.lambda_n) if self.kind != "torus" else None,
            "V_basis": [_elt_json(F, v) for v in self.v_basis],
            "order": "infinite" if order is None else order,
        }


def _subgroup_pairs(F: FieldDesc, kind: str, nu: int = 0, n: int = 1, lam1: int = 1, v_vals=(0,)):
    """Sorted pairs (lam, mu) of a subgroup of the substitutions over F:
    kind "torus" is T_nu, "full" is every substitution, and "cyclic" is
    Sh_V x| <sigma_{lam1,(1-lam1)nu}> with lam1 of order n and V given by
    its values v_vals."""
    if kind == "full":
        return [(lam, mu) for lam in F.units() for mu in F.elements()]
    if kind == "torus":
        pairs = {(lam, F.mul(F.sub(1, lam), nu)) for lam in F.units()}
    else:
        pairs, lam = set(), 1
        for _ in range(n):
            base = F.mul(F.sub(1, lam), nu)
            pairs.update((lam, F.add(base, v)) for v in v_vals)
            lam = F.mul(lam, lam1)
    return sorted(pairs)


def _trivial_desc(tower: FieldTower, level: int, over_closure: bool) -> EigengroupDesc:
    return EigengroupDesc("finite", tower, level, over_closure, 0, 1, 1, ())


# ---------------------------------------------------------------------------
# Eigenforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Eigenform:
    """Canonical presentation of f from which G_f is read off.

    case "A10": f = f_V(x-nu)^i * g(f_V(x-nu)^n)   (g may be 1)
    case "A11": f = (x-nu)^i * g((x-nu)^n)         (V = 0)
    case "B11": f = g(f_V(x))^(p^s)                (shifts only)
    case "single_root": f = (x-nu)^i with i = deg f
    case "none": trivial group, f kept as is

    All parts live over the splitting field; nu is the packed minimum of its
    V-coset and (nu, i, g) is unique in cases A10/A11.
    """

    case: str
    f: Poly
    tower: FieldTower
    nu: int
    i: int
    n: int
    s: int
    g: Poly | None
    v_basis: tuple[int, ...]
    lambda_n: int

    def expand(self) -> Poly:
        L = self.tower.ext
        if self.case == "none":
            return lift_poly(self.f, self.tower)
        if self.case == "single_root":
            return Poly.from_values(L, (L.neg(self.nu), 1)) ** self.i
        if self.case in ("A10", "A11"):
            w = f_V(L, self.v_basis, self.nu)
            g = self.g if self.g.is_constant() else self.g.compose(w**self.n)
            return w**self.i * g
        if self.case == "B11":
            p = L.p
            return self.g.compose(f_V(L, self.v_basis)) ** (p**self.s)
        raise InternalCheckError(f"unknown eigenform case {self.case!r}")

    def verify(self, fe: Poly) -> None:
        """Round-trip to fe, f lifted to the splitting field (case "none" is
        f itself), and the torus law for a single root; the generators of a
        finite group are checked by _verify_finite_generators."""
        L = self.tower.ext
        if self.case != "none" and self.expand() != fe:
            raise _stage_error("eigengroup.eigenform", self.f, "eigenform does not expand back to f")
        if self.case == "single_root":
            lam = primitive_root_of_unity(L.q - 1, L).val if L.q > 2 else 1
            gen = AffineAut(L, lam, L.mul(L.sub(1, lam), self.nu))
            if gen.apply(fe) != fe.scale_value(L.pow(lam, self.i)):
                raise _stage_error("eigengroup.eigenform", self.f, "torus eigenvalue law fails")

    def describe(self) -> dict:
        L = self.tower.ext
        return {
            "case": self.case,
            "i": self.i,
            "nu": _elt_json(L, self.nu) if self.case not in ("none", "B11") else None,
            "n": self.n,
            "g": _poly_json(self.g),
            "s": self.s,
            "V_basis": [_elt_json(L, v) for v in self.v_basis],
        }


# ---------------------------------------------------------------------------
# The closed-form algorithm over the splitting field
# ---------------------------------------------------------------------------


def torus_centre(f: Poly) -> int | None:
    """The a with f = c (x - a)^deg f, c the leading coefficient, or None.

    With deg f = p^s d' and p not dividing d', such an f is
    c (x^(p^s) - t)^d' with t = a^(p^s): the x^(deg f - p^s) coefficient
    -c d' t names t, the coefficients are compared with the binomial
    expansion from the top down, and a is the (p^s)-th root of t.
    Constants give None."""
    F, d = f.field, f.degree
    if d < 1:
        return None
    ps = 1
    while d % (ps * F.p) == 0:
        ps *= F.p
    d1, c = d // ps, f.c[-1]
    neg_t = F.div(f.c[d - ps], F.mul(c, d1 % F.p))
    coef = c
    for i in range(d1, -1, -1):
        if f.c[i * ps] != F.mul(comb(d1, i) % F.p, coef):
            return None
        coef = F.mul(coef, neg_t)
    if any(f.c[k] for k in range(d) if k % ps):
        return None
    t = F.neg(neg_t)
    while ps > 1:
        t, ps = F.pth_root(t), ps // F.p
    return t


def _unity_root(n: int, field: FieldDesc) -> int:
    try:
        return primitive_root_of_unity(n, field).val
    except DomainError as exc:
        raise InternalCheckError(
            f"required root of unity of order {n} missing from the splitting field"
        ) from exc


def _coset_min(F: FieldDesc, nu: int, basis) -> int:
    """The packed minimum of nu + span(basis) in F: nu reduced against an
    echelon basis whose pivots sit at the most significant digit."""
    span = Span(F.prime_field)
    for b in basis:
        span.add(F.unpack(b)[::-1])
    return F.pack(span.reduce(F.unpack(nu)[::-1])[::-1])


def _verify_finite_generators(desc: EigengroupDesc, f: Poly, fe: Poly) -> None:
    """Every stored generator must send f (lifted: fe) to a scalar multiple of f."""
    if any(gen.eigenvalue_on(fe) is None for gen in desc.generators()):
        raise _stage_error("eigengroup.generators", f, "claimed generator is not an eigen-substitution")


@dataclass(frozen=True)
class EigengroupResult:
    f: Poly
    tower: FieldTower
    closure: EigengroupDesc
    eigenform: Eigenform

    def descend(self, level: int | None = None) -> EigengroupDesc:
        return eigengroup_descend(self.closure, level)


def eigengroup_closed(f: Poly, tower: FieldTower | None = None) -> EigengroupResult:
    """G_f over the splitting field L together with the eigenform of f."""
    _require_monic_nonscalar(f)
    ed, K = exponent_decomp(f), f.field
    s, f1, d1, p = ed.s, ed.f1, ed.f1.degree, K.p
    if d1 % p or shift_space_is_zero(f1):  # V = 0: every centre is in K, no root of L is split
        (tower, parts), rm = checked_splitting_tower(f, tower), None
        a, fe = torus_centre(f) if d1 % p else None, lift_poly(f, tower)
    else:
        rm = roots_with_multiplicity(f, tower)
        tower, a, fe = rm.tower, None, rm.lifted
    L, M, lift = tower.ext, tower.M, tower.level(tower.k).lift
    f1e = fe if s == 0 else lift_poly(f1, tower)

    if a is not None:
        nu = lift(a)
        desc = EigengroupDesc("torus", tower, M, True, nu, 0, 1, ())
        form = Eigenform("single_root", f, tower, nu, f.degree, 0, s, None, (), 1)
        form.verify(fe)
        return EigengroupResult(f, tower, desc, form)

    # f1 = G(f_V); n is bounded by p^e - 1 when V != 0 (gcd(0, n) = n).
    # Candidate centres nu, read through w = f_V(x - nu): f1 = G(w + f_V(nu)).
    fv, big_g, bound, basis = Poly.x(L), f1e, 0, ()
    if d1 % p:
        cands = [lift(K.div(K.neg(f1.c[d1 - 1]), d1 % p))]
    elif rm is None:  # the roots of f1 and of f1' in K
        base = tower_over(K, K.m)
        cands = [lift(r) for r in sorted({*roots_in_ext(f, base, parts), *roots_in_ext(f1.derivative(), base)})]
    else:
        basis, seen = shift_space(rm).basis, set(rm.distinct())
        cands = sorted(seen) + [r for r in roots_in_ext(f1.derivative(), tower) if r not in seen]
        if basis:
            fv = f_V(L, basis)
            big_g = decompose_through(f1e, fv)
            if big_g is None:
                raise _stage_error("eigengroup.decompose", f, "f1 must be a polynomial in f_V once V shifts f")
            bound = p ** multiplier_field(L, basis) - 1
    hits = []
    for nu in cands:
        at = fv.eval_value(nu)
        w = big_g.compose_affine(1, at)
        i_nu = w.valuation()
        g_nu = Poly.from_values(L, w.c[i_nu:])
        n = gcd(bound, gcd_p(g_nu))  # gcd_p = 0 for a constant g_nu
        if n >= 2:
            hits.append((at, nu, i_nu, g_nu, n))
    if not hits:
        desc = EigengroupDesc("finite", tower, M, True, 0, 1, 1, basis)
        form = Eigenform("B11" if basis else "none", f, tower, 0, 0, 1, s, big_g if basis else None, basis, 1)
    else:
        at, nu, i_nu, g_nu, n = hits[0]
        if any(h[0] != at or h[2:] != (i_nu, g_nu, n) for h in hits):
            raise _stage_error("eigengroup.centre", f, "candidate centres must lie in one V-coset with equal data")
        nu, lam = _coset_min(L, nu, basis), _unity_root(n, L)
        g = contract_exponents(g_nu, n) ** (p**s)
        desc = EigengroupDesc("finite", tower, M, True, nu, n, lam, basis)
        form = Eigenform("A10" if basis else "A11", f, tower, nu, p**s * i_nu, n, s, g, basis, lam)
    form.verify(fe)
    _verify_finite_generators(desc, f, fe)
    return EigengroupResult(f, tower, desc, form)


eigengroup = eigengroup_closed


# ---------------------------------------------------------------------------
# Descent to a subfield
# ---------------------------------------------------------------------------


def eigengroup_descend(desc: EigengroupDesc, level: int | None = None) -> EigengroupDesc:
    """Intersect a closure descriptor with the substitutions over F_{p^level}."""
    tower = desc.tower
    if not desc.over_closure:
        raise DomainError("descent starts from a descriptor over the splitting field")
    if level is None:
        level = tower.k
    if level < 1 or tower.M % level:
        raise DomainError("descent level must divide the splitting degree")
    L = tower.ext
    lvl = tower.level(level)
    lower = lambda v: lvl.lower(v).val  # noqa: E731

    if desc.kind == "torus":
        if tower.in_subfield(desc.nu, level):
            return EigengroupDesc("torus", tower, level, False, lower(desc.nu), 0, 1, ())
        return _trivial_desc(tower, level, False)
    if desc.kind == "full":
        raise InternalCheckError("full descriptors are a descent-side normal form only")

    vk_vals = tuple(v for v in desc.v_values() if tower.in_subfield(v, level))
    vk_basis = space_basis(lvl.desc, tuple(sorted(lower(v) for v in vk_vals)))

    n_k, lam_k, nu_k = 1, 1, 0
    if desc.n > 1:
        span = Span(L.prime_field)
        vb = list(desc.v_basis)
        for b in vb + list(lvl.pows):
            span.add(L.unpack(b))
        for i2 in divisors(desc.n):
            if i2 == desc.n:
                continue
            lam2 = L.pow(desc.lambda_n, i2)
            if not tower.in_subfield(lam2, level):
                continue
            target = L.mul(L.sub(1, lam2), desc.nu)
            coords = span.coords(L.unpack(target))
            if coords is None:
                continue
            mu2 = L.sub(target, L.dot(coords[: len(vb)], vb))
            if not tower.in_subfield(mu2, level):
                raise InternalCheckError("descent shift correction left the subfield")
            n_k = desc.n // i2
            lam_k = primitive_root_of_unity(n_k, lvl.desc).val
            nu_k = _coset_min(lvl.desc, lower(L.div(mu2, L.sub(1, lam2))), vk_basis)
            break

    F = lvl.desc
    if n_k == 1 and not vk_basis:
        return _trivial_desc(tower, level, False)
    out = EigengroupDesc("finite", tower, level, False, nu_k if n_k > 1 else 0, n_k, lam_k, vk_basis)
    if len(vk_basis) == F.m and n_k == F.q - 1:
        out = EigengroupDesc("full", tower, level, False, 0, n_k, lam_k, vk_basis)
    return out


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def affine_matches(f: Poly, g: Poly, values=None) -> list[tuple[int, int]]:
    """Sorted pairs (lam, mu), lam != 0, with f(lam*x + mu) = lam^(deg f) * g.

    lam and mu run over the packed values given (default: all of f's field).
    One Taylor shift b = f(x + mu) per mu; since f(lam*x + mu) has
    coefficients lam^k * b_k, a pair matches when b_k = lam^(d - k) * g_k for
    every k.  The largest j < d with g_j != 0 solves for lam: only the units
    with lam^(d - j) = b_j / g_j, looked up in a table built once per call,
    are compared from the top coefficient down with early exit.  When
    g = g_d * x^d no coefficient involves lam, and every unit is a
    candidate exactly when b = g.  This scan is the oracle: the brute-force
    eigengroups run on it, and solve_affine_matches, which are_isomorphic
    calls, must agree with it.
    """
    if f.field is not g.field:
        raise DomainError("polynomials over different fields")
    F = f.field
    d = f.degree
    if g.degree != d:
        return []
    vals = sorted(values) if values is not None else F.elements()
    units = [v for v in vals if v]
    gc = g.c
    j = next((k for k in range(d - 1, -1, -1) if gc[k]), None)
    if j is not None:
        by_power: dict[int, list[int]] = {}
        for lam in units:
            by_power.setdefault(F.pow(lam, d - j), []).append(lam)
        inv_gj = F.inv(gc[j])
    out = []
    for mu in vals:
        b = f.compose_affine(1, mu).c
        if j is None:
            candidates = units if b == gc else ()
        else:
            candidates = by_power.get(F.mul(b[j], inv_gj), ())
        for lam in candidates:
            pw = 1
            for k in range(d, -1, -1):
                if b[k] != F.mul(pw, gc[k]):
                    break
                pw = F.mul(pw, lam)
            else:
                out.append((lam, mu))
    out.sort()
    return out


def eigengroup_bruteforce(
    f: Poly, field: FieldDesc | None = None, *, cap: int = DEFAULT_BRUTE_CAP
) -> list[AffineAut]:
    """All sigma_{lam,mu} over f's field with sigma(f) proportional to f.

    Exhaustive over mu in F (at most cap field elements), with lam in F^x
    solved from the coefficients by affine_matches; the independent oracle
    for every structured computation.
    """
    _require_monic_nonscalar(f)
    if field is None:
        field = f.field
    if field is not f.field:
        raise DomainError("brute force runs over the coefficient field of f")
    if field.q > cap:
        raise DomainError(f"field of size {field.q} exceeds the brute-force cap {cap}")
    return [AffineAut(field, l, m) for l, m in affine_matches(f, f)]


# ---------------------------------------------------------------------------
# Affine matches by solving for mu
# ---------------------------------------------------------------------------


def _bezout(ns: list[int]) -> tuple[int, list[int]]:
    """(t, us) with t = gcd(ns) = sum(u * n for u, n in zip(us, ns))."""
    t, us = 0, []
    for n in ns:
        r0, r1, x0, x1, y0, y1 = t, n, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        t, us = r0, [u * x0 for u in us] + [y0]
    return t, us


def solve_affine_matches(f: Poly, g: Poly) -> list[tuple[int, int]]:
    """affine_matches(f, g) over all of f's field, by solving for mu in K.

    b_k(mu) = sum_{i >= k} C(i, k) f_i mu^(i - k), the x^k coefficient of
    f(x + mu), is a polynomial in mu of degree at most d - k, and (lam, mu)
    matches when b_k(mu) = lam^(d - k) g_k for every k.  k = d asks
    f_d = g_d; each k < d with g_k = 0 asks b_k(mu) = 0; the largest j < d
    with g_j != 0 gives lam^e = b_j(mu) / g_j, e = d - j; each other k with
    g_k != 0 eliminates lam as b_j^(d-k) g_k^e - b_k^e g_j^(d-k) = 0.  The
    candidate mu are the roots in K of the gcd G of these polynomials (each
    power reduced modulo G as found so far, or while G = 0 modulo x^q - x
    once its degree would reach q).  A match has lam^(d-k) =
    b_k(mu) / g_k wherever g_k != 0, so with sum_k u_k (d - k) = t, the gcd
    of those exponents (t divides e), the candidate lam are the roots in K
    of lam^t = prod_k (b_k(mu) / g_k)^(u_k): b_j(mu) / g_j alone when
    t = 1, and found once per right-hand side.  Every candidate is checked
    against all coefficients (those with g_k = 0 once per mu).  With no
    such j (g = g_d x^d) G is the gcd of all b_k, whose roots are exactly
    the matching mu, and every unit goes with each of them.

    G = 0 puts every mu in K.  It happens for the torus kind (f = c(x - a)^d
    and g = c(x - b)^d), and whenever every equation vanishes on K.  For
    e = 1 the matches are then exactly (b_j(mu) / g_j, mu) with b_j(mu) != 0,
    returned in closed form; for e > 1 this falls back to the scan,
    affine_matches(f, g).  Degree below 1 matches every pair when f = g.
    are_isomorphic and eigengroup_over_base read the torus kind off by
    torus_centre before calling this.
    """
    if f.field is not g.field:
        raise DomainError("polynomials over different fields")
    F = f.field
    d = f.degree
    if g.degree != d or f.c[-1:] != g.c[-1:]:
        return []
    if d < 1:
        return [(lam, mu) for lam in F.units() for mu in F.elements()]
    gc = g.c
    b = list(shift_coeffs(f, range(d)))
    j = next((k for k in range(d - 1, -1, -1) if gc[k]), None)
    e = d - j if j is not None else 0
    G = Poly.zero(F)

    def power(h: Poly, n: int) -> Poly:
        if not G.is_zero():
            return poly_pow_mod(h, n, G)
        if n * h.degree < F.q:
            return h**n
        # only the values on K count, and x^q - x vanishes there
        return poly_pow_mod(h, n, Poly.from_values(F, [0, F.neg(1)] + [0] * (F.q - 2) + [1]))

    for k in range(d - 1, -1, -1):
        if k == j:
            continue
        if gc[k]:
            h = power(b[j], d - k).scale_value(F.pow(gc[k], e))
            h = h - power(b[k], e).scale_value(F.pow(gc[j], d - k))
        else:
            h = b[k]
        G = G.gcd(h)
        if G.degree == 0:
            return []
    if G.is_zero():
        if e > 1:
            return affine_matches(f, g)
        inv_gj = F.inv(gc[j])
        lams = ((F.mul(b[j].eval_value(mu), inv_gj), mu) for mu in F.elements())
        return sorted((lam, mu) for lam, mu in lams if lam)
    ks = [k for k in range(d - 1, -1, -1) if gc[k]]
    t, us = _bezout([d - k for k in ks])
    tower = tower_over(F, F.m)
    out, lams_of = [], {}
    for mu in roots_in_ext(G, tower):
        if j is None:
            out += [(lam, mu) for lam in F.units()]
            continue
        bm = [h.eval_value(mu) for h in b]
        if not all(bm[k] for k in ks) or any(bm[k] for k in range(d) if not gc[k]):
            continue
        c = 1
        for k, u in zip(ks, us):
            c = F.mul(c, F.pow(F.div(bm[k], gc[k]), u))
        if c not in lams_of:
            lams_of[c] = [c] if t == 1 else roots_in_ext(Poly.from_values(F, [F.neg(c)] + [0] * (t - 1) + [1]), tower)
        for lam in lams_of[c]:
            if all(bm[k] == F.mul(F.pow(lam, d - k), gc[k]) for k in ks):
                out.append((lam, mu))
    out.sort()
    return out


def eigengroup_over_base(f: Poly) -> EigengroupDesc:
    """G_f(K) over the coefficient field K of f, with no splitting field.

    The torus kind f = (x - a)^d is T_a in closed form.  Otherwise
    G_f(K) = Sh_V x| C_n is exactly the list solve_affine_matches(f, f):
    V is spanned by the mu with lam = 1, n counts the distinct lam,
    lambda_n is K's primitive_root_of_unity(n), and nu is the coset minimum
    of the fixed point of its match, as in the descent.  The descriptor's
    elements must be the solved list; otherwise InternalCheckError is
    raised at stage aut.solve with the CLI line that repeats the query.
    """
    _require_monic_nonscalar(f)
    K = f.field
    tower = tower_over(K, K.m)
    a = torus_centre(f)
    if a is not None:
        return EigengroupDesc("torus", tower, K.m, False, a, 0, 1, ())
    matches = solve_affine_matches(f, f)
    mu_of = dict(matches)  # lam -> one of its mu; all share one fixed-point coset
    n = len(mu_of)
    vk = space_basis(K, [mu for lam, mu in matches if lam == 1])
    lam = primitive_root_of_unity(n, K).val if n and (K.q - 1) % n == 0 else None
    desc = None
    if lam in mu_of:
        if len(vk) == K.m and n == K.q - 1:
            desc = EigengroupDesc("full", tower, K.m, False, 0, n, lam, vk)
        else:
            nu = _coset_min(K, K.div(mu_of[lam], K.sub(1, lam)), vk) if n > 1 else 0
            desc = EigengroupDesc("finite", tower, K.m, False, nu, n, lam, vk)
    if desc is None or [el.pair for el in desc.elements()] != matches:
        msg = "the solved eigenpairs are not the elements of a subgroup descriptor"
        raise _stage_error("aut.solve", f, msg, "aut-group")
    return desc


# ---------------------------------------------------------------------------
# The inverse problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupSpec:
    """A prescribed subgroup H of the affine substitutions over a finite field.

    kinds: "trivial"; "cyclic" (order n fixing nu); "shift" (Sh_V, with
    realization variant "a" = additive image trick or "b" = double-coset
    trick needing V proper); "shift_cyclic" (Sh_V x| cyclic of order n at
    nu); "torus" (T_nu); "full".
    """

    kind: str
    field: FieldDesc
    n: int = 1
    nu: int = 0
    v_basis: tuple[int, ...] = ()
    variant: str = "a"

    def v_values(self) -> tuple[int, ...]:
        return span_values(self.field, self.v_basis)

    def validate(self) -> "SubgroupSpec":
        F, basis = self.field, space_basis(self.field, self.v_basis)
        if self.kind not in ("trivial", "cyclic", "shift", "shift_cyclic", "torus", "full"):
            raise DomainError(f"unsupported subgroup kind {self.kind!r}")
        if self.kind == "cyclic":
            if self.n < 1:
                raise DomainError("cyclic subgroup order must be positive")
            if self.n > 1 and (F.q - 1) % self.n:
                raise DomainError(f"no primitive root of unity of order {self.n} in the field")
        if self.kind in ("shift", "shift_cyclic") and not basis:
            raise DomainError("shift subgroup needs a nonzero space V")
        # shift_cyclic of order 1 is realized as shift, variant and all
        shift = self.kind == "shift" or (self.kind == "shift_cyclic" and self.n == 1)
        if shift and self.variant not in ("a", "b"):
            raise DomainError("shift realization variant must be 'a' or 'b'")
        if shift and self.variant == "b" and len(basis) == F.m:
            raise DomainError("variant 'b' needs V proper in the field")
        if self.kind == "shift_cyclic" and self.n > 1:
            e = multiplier_field(F, basis)
            if (F.p**e - 1) % self.n:
                raise DomainError(
                    f"cyclic order {self.n} does not divide p^e - 1 = {F.p**e - 1} "
                    "for the multiplier field of V"
                )
        return self

    def elements(self) -> list[AffineAut]:
        self.validate()
        F, kind, n = self.field, self.kind, self.n
        if kind in ("torus", "full"):
            pairs = _subgroup_pairs(F, kind, self.nu)
        else:
            cyclic = kind in ("cyclic", "shift_cyclic")
            lam1 = primitive_root_of_unity(n, F).val if cyclic else 1
            vv = self.v_values() if kind in ("shift", "shift_cyclic") else (0,)
            pairs = _subgroup_pairs(F, "cyclic", self.nu, n if cyclic else 1, lam1, vv)
        return [AffineAut(F, l, m) for l, m in pairs]


def inverse_eigengroup(spec: SubgroupSpec) -> Poly:
    """A monic f over the base field whose K-rational eigengroup is exactly H."""
    spec.validate()
    F = spec.field
    x = Poly.x(F)
    kind = spec.kind
    if kind == "cyclic" and spec.n == 1:
        kind = "trivial"
    if kind == "shift_cyclic" and spec.n == 1:
        kind = "shift"
    if kind == "trivial":
        return x * (x + 1) ** 2
    if kind == "cyclic":
        return Poly.from_values(F, (F.neg(spec.nu), 1)) ** spec.n - 1
    if kind == "shift":
        fv = f_V(F, spec.v_basis)
        if spec.variant == "a":
            image = {fv.eval_value(a) for a in F.elements()}
            off = [r for r in F.elements() if r not in image]
            if not off:
                raise InternalCheckError("additive map with nonzero kernel cannot be onto")
            return fv - Poly.from_values(F, (off[0],))
        in_v = set(spec.v_values())
        nu_aux = next(v for v in F.elements() if v not in in_v)
        shifted = fv.compose_affine(1, F.neg(nu_aux))
        return fv * shifted * shifted
    if kind == "shift_cyclic":
        e = multiplier_field(F, spec.v_basis)
        fv_sh = f_V(F, spec.v_basis).compose_affine(1, F.neg(spec.nu))
        if spec.n == F.p**e - 1:
            return fv_sh
        return fv_sh**spec.n + 1
    if kind == "torus":
        return Poly.from_values(F, (F.neg(spec.nu), 1))
    if kind == "full":
        return Poly.from_values(F, [0, F.neg(1)] + [0] * (F.q - 2) + [1])
    raise DomainError(f"unsupported subgroup kind {spec.kind!r}")
