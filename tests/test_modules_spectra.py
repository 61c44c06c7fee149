"""Simple modules over the Ore extensions and the spectrum bookkeeping."""

import json
import random
import shlex
import subprocess
import sys
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orecalc import cli, modules_spectra
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import DEFAULT_Q_CAP, GF, SPECTRUM_PAIR_CAP, Span, tower_over
from orecalc.modules_spectra import (
    all_basis_vectors_cyclic,
    cyclic_span_dim,
    eigenline_certificate,
    factor_into_irreducibles,
    is_scalar_mat,
    mat_id,
    mat_mul,
    mat_poly,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_zero,
    simple_module_off_f,
    simple_module_on_f,
    spectrum,
    word_span_dim,
)
from orecalc.ore import OreAlgebra
from orecalc.poly import Poly, is_irreducible, lift_poly, roots_in_ext, roots_with_multiplicity

from oracles import is_irreducible_oracle, mat_add, monic_polys, roots_in_field, spectrum_points_oracle


def rand_mat(F, d, rng):
    return tuple(tuple(rng.randrange(F.q) for _ in range(d)) for _ in range(d))


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------


def test_matrix_arithmetic():
    rng = random.Random(12)
    for F in (GF(5), GF(2, 2)):
        for _ in range(20):
            A, B, C = (rand_mat(F, 3, rng) for _ in range(3))
            assert mat_mul(F, A, mat_mul(F, B, C)) == mat_mul(F, mat_mul(F, A, B), C)
            assert mat_mul(F, A, mat_add(F, B, C)) == mat_add(
                F, mat_mul(F, A, B), mat_mul(F, A, C)
            )
            assert mat_mul(F, A, mat_id(F, 3)) == A
            assert mat_sub(F, A, A) == mat_zero(F, 3)
            g = Poly.from_values(F, [rng.randrange(F.q) for _ in range(4)])
            naive = mat_zero(F, 3)
            for i, c in enumerate(g.c):
                naive = mat_add(F, naive, mat_scale(F, mat_pow(F, A, i), c))
            assert mat_poly(F, g, A) == naive
    # packed products at full module size, and a prime above 2^32, whose
    # slots need more than 8 bytes, against the triple loop
    big = 4294967311
    shapes = ((GF(13), 13, 13, 13), (GF(13), 13, 7, 11), (GF(big, p_cap=big, q_cap=big), 3, 4, 2))
    for F, r, k, c in shapes:
        p = F.p

        def rand(rows, cols):
            return tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows))

        for A, B in ((rand(r, k), rand(k, c)), (((p - 1,) * k,) * r, ((p - 1,) * c,) * k)):
            triple = tuple(
                tuple(sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(c)) for i in range(r)
            )
            assert mat_mul(F, A, B) == triple


def test_word_span_and_cyclicity():
    F = GF(3)
    N = ((0, 1), (0, 0))  # one shared nilpotent: commutative, not simple
    assert word_span_dim(F, N, N) == 2
    assert not all_basis_vectors_cyclic(F, N, N)  # e_0 reaches only e_0
    assert [cyclic_span_dim(F, N, N, v) for v in ((1, 0), (0, 1), (0, 0))] == [1, 2, 0]
    M = ((0, 0), (1, 0))
    assert word_span_dim(F, N, M) == 4  # e_01 and e_10 generate M_2
    assert all_basis_vectors_cyclic(F, N, M)
    X = ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    Y = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
    assert word_span_dim(F, X, Y) == 9  # shift plus corner unit is irreducible
    assert all_basis_vectors_cyclic(F, X, Y)
    # commuting diagonals over GF(13): the words are the diagonal matrices
    # constant on the 12 classes of i mod 12, far below p^2 = 169
    F = GF(13)
    X = tuple(tuple(i % 4 if i == j else 0 for j in range(13)) for i in range(13))
    Y = tuple(tuple(i % 3 if i == j else 0 for j in range(13)) for i in range(13))
    assert word_span_dim(F, X, Y) == 12
    assert not all_basis_vectors_cyclic(F, X, Y)


def _combination(F, coeffs, vecs, width):
    out = [0] * width
    for c, v in zip(coeffs, vecs):
        out = [F.add(a, F.mul(c, b)) for a, b in zip(out, v)]
    return out


def _enumerate_span(F, vecs, width):
    """Every F-combination of vecs, by brute force."""
    out = {(0,) * width}
    for v in vecs:
        out = {tuple(_combination(F, (1, c), (u, v), width)) for u in out for c in F.elements()}
    return out


def _check_span_against_enumeration(F, rng):
    """Span(F) against the enumerated span: add, rank, coords and basis.

    Rows are random combinations of a few random vectors (at most five, or
    three over fields larger than 5, so the enumeration stays small), so
    ranks fall short of the width; half the probes are combinations of the
    rows.
    """
    for _ in range(6):
        width = rng.randrange(1, 9)
        nbase = rng.randrange(1, 6 if F.q <= 5 else 4)
        base = [[rng.randrange(F.q) for _ in range(width)] for _ in range(nbase)]

        def combo(vecs):
            return _combination(F, [rng.randrange(F.q) for _ in vecs], vecs, width)

        span, added, members = Span(F), [], {(0,) * width}
        for row in [combo(base) for _ in range(width + 2)]:
            grows = tuple(row) not in members
            assert span.add(row) == grows
            if grows:
                added.append(row)
                members = _enumerate_span(F, added, width)
        assert span.rank == len(added) and len(members) == F.q**span.rank
        for _ in range(20):
            probe = combo(added) if rng.random() < 0.5 else [rng.randrange(F.q) for _ in range(width)]
            coords = span.coords(probe)
            if tuple(probe) in members:
                assert len(coords) == span.rank
                assert _combination(F, coords, added, width) == probe
            else:
                assert coords is None
        # reduced echelon: pivots rise, each row is 1 at its pivot and every
        # other row is 0 there, and the rows span the same set
        basis = span.basis()
        pivots = [next(i for i, a in enumerate(b) if a) for b in basis]
        assert len(basis) == span.rank and pivots == sorted(set(pivots))
        for k, piv in enumerate(pivots):
            assert [b[piv] for b in basis] == [int(i == k) for i in range(len(basis))]
        assert _enumerate_span(F, basis, width) == members


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_span_agrees_with_fp_span(p):
    """The echelon behind word spans over GF(p) against the F_p-span
    enumerated by brute force."""
    _check_span_against_enumeration(GF(p), random.Random(p))


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2)])
def test_span_over_residue_fields(p, m):
    """Word spans over a residue field F_i = K[x]/(p_i) run over GF(p^m)."""
    _check_span_against_enumeration(GF(p, m), random.Random(p * m))


# ---------------------------------------------------------------------------
# Modules on the locus f = 0
# ---------------------------------------------------------------------------


def test_on_f_one_dimensional():
    K = GF(3)
    f = Poly(K, (0, 0, 1))  # x^2
    p_i = Poly(K, (0, 1))
    spec = simple_module_on_f(f, p_i, Poly(K, (0, 1)))  # q = y
    assert spec.kind == "on_f" and spec.dim == 1
    assert spec.X == ((0,),) and spec.Y == ((0,),)
    assert spec.central_character() is None
    for c in (1, 2):
        spec = simple_module_on_f(f, p_i, Poly(K, (-c, 1)))  # q = y - c
        assert spec.Y == ((c,),)
    d = spec.describe()
    assert set(d) == {"kind", "dim", "X", "Y", "xi", "rho", "p_i", "q"}
    assert d["xi"] is None and d["p_i"] == [0, 1] and d["q"] == [1, 1]


def test_on_f_companion_matrix():
    K = GF(3)
    f = Poly(K, (0, 0, 1)) * Poly(K, (1, 1))  # x^2 (x + 1)
    p_i = Poly(K, (1, 1))
    q = Poly(K, (1, 0, 1))  # y^2 + 1, irreducible over F_3
    spec = simple_module_on_f(f, p_i, q)
    assert spec.dim == 2
    assert spec.X == ((2, 0), (0, 2))  # xbar = -1
    assert spec.Y == ((0, 2), (1, 0))
    assert mat_poly(K, q, spec.Y) == mat_zero(K, 2)
    lhs = mat_sub(K, mat_mul(K, spec.Y, spec.X), mat_mul(K, spec.X, spec.Y))
    assert lhs == mat_poly(K, f, spec.X)


def test_on_f_extension_residue_field():
    K = GF(3)
    f = Poly(K, (1, 0, 1)) * Poly(K, (0, 1))  # (x^2 + 1) x
    p_i = Poly(K, (1, 0, 1))
    tower = tower_over(K, 2)
    F9 = tower.ext
    xbar = roots_in_ext(p_i, tower)[0]
    q1 = Poly.from_values(F9, (F9.neg(xbar), 1))  # y - xbar
    spec = simple_module_on_f(f, p_i, q1)
    assert spec.field is F9 and spec.dim == 1
    assert spec.X == ((xbar,),) and spec.Y == ((xbar,),)
    assert lift_poly(p_i, tower).eval_value(spec.X[0][0]) == 0
    # a quadratic q over the residue field gives a two-dimensional module
    q2 = next(q for q in monic_polys(F9, 2) if is_irreducible(q))
    spec2 = simple_module_on_f(f, p_i, q2)
    assert spec2.dim == 2
    assert is_scalar_mat(F9, spec2.X, xbar)
    assert mat_poly(F9, q2, spec2.Y) == mat_zero(F9, 2)
    dq = spec2.describe()["q"]
    assert len(dq) == 3 and dq[2] == [1, 0]  # digit vectors over F_9


def test_on_f_validation():
    K = GF(3)
    f = Poly(K, (0, 0, 1))
    x, y = Poly(K, (0, 1)), Poly(K, (0, 1))
    with pytest.raises(DomainError):
        simple_module_on_f(f, Poly(K, (1, 1)), y)  # x + 1 does not divide x^2
    with pytest.raises(DomainError):
        simple_module_on_f(f, Poly(K, (0, 0, 1)), y)  # p_i reducible
    with pytest.raises(DomainError):
        simple_module_on_f(f, x, Poly(K, (2, 0, 1)))  # q = y^2 - 1 reducible
    with pytest.raises(DomainError):
        simple_module_on_f(f, x, Poly(K, (2,)))  # q constant
    with pytest.raises(DomainError):
        simple_module_on_f(Poly(K, (1,)), x, y)
    with pytest.raises(DomainError):
        simple_module_on_f(f, Poly(GF(5), (0, 1)), y)  # wrong field
    g = Poly(K, (1, 0, 1)) * x
    with pytest.raises(DomainError):
        # q must live over the residue field F_9, not over K
        simple_module_on_f(g, Poly(K, (1, 0, 1)), y)


def test_on_f_dimension_law_sweep():
    K = GF(2)
    f = Poly(K, (0, 1)) * Poly(K, (1, 1)) ** 2  # x (x + 1)^2
    for p_i in (Poly(K, (0, 1)), Poly(K, (1, 1))):
        for d in (1, 2, 3):
            for q in monic_polys(K, d):
                if not is_irreducible(q):
                    continue
                spec = simple_module_on_f(f, p_i, q)
                assert spec.dim == d
                assert mat_poly(K, q, spec.Y) == mat_zero(K, d)
                xbar = K.neg(p_i.c[0])
                assert is_scalar_mat(K, spec.X, xbar)
                assert is_scalar_mat(K, mat_pow(K, spec.X, 2), K.pow(xbar, 2))


# ---------------------------------------------------------------------------
# Modules off the locus
# ---------------------------------------------------------------------------


def horner_x_table(f, a):
    """The x-action on {y^i 1} by reducing x y^i modulo the left ideal of
    x - a through the binomial rewrite x y^i = y^i x - sum_t C(i,t)
    phi_{t-1}(x) y^(i-t), with phi_{t-1}(X) e_{i-t} evaluated by Horner on the
    columns built so far for every pair (i, t): an oracle for the table that
    simple_module_off_f re-derives from the one-step relation
    x (y v) = y (x v) - f(x) v."""
    K = f.field
    p = K.p
    phis = [f]
    for _ in range(max(0, p - 2)):
        phis.append(f * phis[-1].derivative())
    Xr = [[0] * p for _ in range(p)]

    def apply_poly_partial(g, col):
        vec = [0] * p
        for c in reversed(g.c):
            vec = [K.dot(row, vec) for row in Xr]
            if c:
                vec[col] = K.add(vec[col], c)
        return vec

    for i in range(p):
        col = [0] * p
        col[i] = a
        for t in range(1, i + 1):
            cb = comb(i, t) % p
            if cb:
                col = K.row_sub(col, cb, apply_poly_partial(phis[t - 1], i - t))
        for r in range(p):
            Xr[r][i] = col[r]
    return tuple(tuple(row) for row in Xr)


def check_off_f_oracles(spec):
    """The eigenline certificate holds, and so do the slow checks it replaced:
    the full word span, every basis vector cyclic, and the Horner table."""
    F, p, X, Y = spec.field, spec.dim, spec.X, spec.Y
    a = F.pth_root(spec.xi)
    assert eigenline_certificate(F, X, Y, a)
    assert word_span_dim(F, X, Y) == p * p
    assert all_basis_vectors_cyclic(F, X, Y)
    assert horner_x_table(spec.f, a) == X


def test_off_f_explicit_char3():
    K = GF(3)
    f = Poly(K, (0, 0, 1))  # x^2: c = (f f')' = (2x^3)' = 0
    spec = simple_module_off_f(f, 1, 0)
    assert spec.kind == "off_f" and spec.dim == 3
    assert (spec.xi, spec.rho) == (1, 0)
    assert spec.central_character() == (1, 0)
    assert spec.X == ((1, 2, 2), (0, 1, 1), (0, 0, 1))
    assert spec.Y == ((0, 0, 0), (1, 0, 0), (0, 1, 0))
    lhs = mat_sub(K, mat_mul(K, spec.Y, spec.X), mat_mul(K, spec.X, spec.Y))
    assert lhs == mat_poly(K, f, spec.X)
    assert is_scalar_mat(K, mat_pow(K, spec.X, 3), 1)
    assert word_span_dim(K, spec.X, spec.Y) == 9


def test_off_f_rejects_points_on_the_locus():
    K2, K3 = GF(2), GF(3)
    with pytest.raises(DomainError):
        simple_module_off_f(Poly(K2, (1, 0, 1)), 1, 0)  # f = (x+1)^2, xi^(1/2) = 1
    with pytest.raises(DomainError):
        simple_module_off_f(Poly(K3, (0, 1)), 0, 1)  # f = x, xi = 0
    with pytest.raises(DomainError):
        simple_module_off_f(Poly(K3, (2,)), 1, 0)  # constant f
    with pytest.raises(DomainError):
        simple_module_off_f(Poly(K3, (0, 2)), 1, 0)  # not monic


def test_off_f_random_sweep():
    rng = random.Random(31)
    for F in (GF(3), GF(2, 2), GF(3, 2), GF(5), GF(7)):
        p = F.p
        built = 0
        while built < 8:
            d = rng.randrange(1, 4)
            f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])
            xi = F.from_value(rng.randrange(F.q))
            rho = F.from_value(rng.randrange(F.q))
            if f.eval_value(F.pth_root(xi.val)) == 0:
                continue
            spec = simple_module_off_f(f, xi, rho)
            built += 1
            assert spec.dim == p
            lhs = mat_sub(F, mat_mul(F, spec.Y, spec.X), mat_mul(F, spec.X, spec.Y))
            assert lhs == mat_poly(F, f, spec.X)
            assert is_scalar_mat(F, mat_pow(F, spec.X, p), xi.val)
            c = f  # c = (delta^(p-2) f)' with delta(g) = f g'
            for _ in range(p - 2):
                c = f * c.derivative()
            c_of_x = mat_poly(F, c.derivative(), spec.X)
            z2 = mat_sub(F, mat_pow(F, spec.Y, p), mat_mul(F, c_of_x, spec.Y))
            assert is_scalar_mat(F, z2, rho.val)
            check_off_f_oracles(spec)


@pytest.mark.parametrize("p", [11, 13])
def test_off_f_largest_prime_fields(p, monkeypatch):
    """One seeded module over each of the largest prime fields; the slow
    simplicity checks run here only as oracles, never inside simple_module_off_f."""
    F = GF(p)
    rng = random.Random(p)
    while True:
        f = Poly.from_values(F, [rng.randrange(p) for _ in range(3)] + [1])
        xi, rho = rng.randrange(p), rng.randrange(p)
        if f.eval_value(F.pth_root(xi)) != 0:
            break

    def not_off_f(*args):
        raise AssertionError("simple_module_off_f ran a slow simplicity check")

    monkeypatch.setattr(modules_spectra, "word_span_dim", not_off_f)
    monkeypatch.setattr(modules_spectra, "all_basis_vectors_cyclic", not_off_f)
    spec = simple_module_off_f(f, F.from_value(xi), F.from_value(rho))
    monkeypatch.undo()
    assert spec.dim == p
    check_off_f_oracles(spec)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eigenline_certificate_implies_full_word_span(data):
    """X = a + N with N strictly upper triangular (so nilpotent) and Y
    arbitrary: whenever the certificate holds, the words span all d x d
    matrices.  Half the draws make the superdiagonal of N units, so that
    rank N = d - 1 and the Krylov condition decides."""
    F = data.draw(st.sampled_from([GF(2), GF(3)]))
    d = data.draw(st.integers(1, 4))
    a = data.draw(st.integers(0, F.q - 1))
    unit_superdiagonal = data.draw(st.booleans())
    X = [[a if r == c else 0 for c in range(d)] for r in range(d)]
    for r in range(d):
        for c in range(r + 1, d):
            low = 1 if unit_superdiagonal and c == r + 1 else 0
            X[r][c] = data.draw(st.integers(low, F.q - 1))
    X = tuple(tuple(row) for row in X)
    Y = tuple(tuple(data.draw(st.integers(0, F.q - 1)) for _ in range(d)) for _ in range(d))
    if eigenline_certificate(F, X, Y, a):
        assert word_span_dim(F, X, Y) == d * d
        assert all_basis_vectors_cyclic(F, X, Y)


@pytest.mark.parametrize("F", [GF(5), GF(2, 2), GF(3, 2)], ids=["GF5", "GF2_2", "GF3_2"])
def test_eigenline_certificate_rejections(F):
    """A rank drop of X - a, Y = X (under which e_0 spans only itself), and
    the commuting pair X^T, X^T (rank p - 1 and e_0 cyclic, but the kernel of
    X^T - a is the line of e_{p-1}) each fail the certificate."""
    f = Poly.from_values(F, (1, 1, 1))
    xi = next(v for v in F.units() if f.eval_value(F.pth_root(v)) != 0)
    spec = simple_module_off_f(f, F.from_value(xi), F.one)
    X, Y, a, p = spec.X, spec.Y, F.pth_root(xi), spec.dim
    assert eigenline_certificate(F, X, Y, a)
    for j in range(p - 1):
        cut = [list(row) for row in X]
        cut[j][j + 1] = 0  # X - a keeps e_0 in its kernel at rank p - 2
        assert not eigenline_certificate(F, tuple(map(tuple, cut)), Y, a)
    assert not eigenline_certificate(F, X, X, a)
    Xt = tuple(zip(*X))
    assert cyclic_span_dim(F, Xt, Xt, mat_id(F, p)[0]) == p and word_span_dim(F, Xt, Xt) == p
    assert not eigenline_certificate(F, Xt, Xt, a)


def _off_f_module_via(line):
    """Run a logged reproducer through the CLI and return its X and Y."""
    argv = shlex.split(line.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "simple-module"]
    code, out = cli.run(argv[1:])
    assert code == 0, out
    payload = json.loads(out)
    return payload["X"], payload["Y"]


@pytest.mark.parametrize("F", [GF(3), GF(13), GF(3, 2)], ids=["GF3", "GF13", "GF3_2"])
def test_off_f_check_errors_name_stage_and_reproducer(F, monkeypatch):
    """A corrupted closed-form table fails the comparison with the table
    re-derived from the defining relation, and a failed certificate names its own stage; both
    messages end with a CLI line that rebuilds the module."""
    f = Poly.from_values(F, (2, 0, 1, 1))
    xi = next(v for v in F.units() if f.eval_value(F.pth_root(v)) != 0)
    xi, rho = F.from_value(xi), F.from_value(F.q - 1)  # packed values, not ints mod p
    good = simple_module_off_f(f, xi, rho).describe()

    eval_value = Poly.eval_value

    def corrupt(self, v):  # every phi_t with t >= 1 read one off
        return eval_value(self, v) if self == f else F.add(eval_value(self, v), 1)

    monkeypatch.setattr(Poly, "eval_value", corrupt)
    with pytest.raises(InternalCheckError, match=r"^stage=off_f\.x_table: ") as info:
        simple_module_off_f(f, xi, rho)
    monkeypatch.undo()
    assert info.value.stage == "off_f.x_table"
    assert "\n" not in str(info.value)
    assert _off_f_module_via(str(info.value)) == (good["X"], good["Y"])

    monkeypatch.setattr(modules_spectra, "eigenline_certificate", lambda *args: False)
    with pytest.raises(InternalCheckError, match=r"^stage=off_f\.simplicity: ") as info:
        simple_module_off_f(f, xi, rho)
    monkeypatch.undo()
    assert info.value.stage == "off_f.simplicity"
    assert _off_f_module_via(str(info.value)) == (good["X"], good["Y"])


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (13, 1)], ids=lambda v: str(v))
def test_c_at_a_root_of_f_is_a_power_of_f_prime(p, m):
    """c(xbar) = f'(xbar)^(p-1) at every root xbar of f, as simple_module_on_f
    takes it: delta^(p-1)(f) = c f, so at a simple root c(xbar) is f'(xbar)
    p - 1 times over, and at a multiple root both sides vanish.  Checked
    against OreAlgebra(f).c_poly over the splitting field, for seeded f
    with a repeated linear factor and a random cofactor."""
    K = GF(p, m)
    rng = random.Random(31 * p + m)
    x = Poly.x(K)
    multiple = 0
    for _ in range(10):
        a, b = rng.randrange(K.q), rng.randrange(K.q)
        g = Poly.from_values(K, [rng.randrange(K.q) for _ in range(rng.randrange(1, 4))] + [1])
        f = (x - K.from_value(a)) ** rng.randrange(1, 4) * (x - K.from_value(b)) * g
        rm = roots_with_multiplicity(f)
        L, fe = rm.tower.ext, rm.lifted
        c = lift_poly(OreAlgebra(f).c_poly, rm.tower)
        for r, mult in rm.pairs:
            assert c.eval_value(r) == L.pow(fe.derivative().eval_value(r), p - 1)
            multiple += mult > 1
    assert multiple


def _c_poly(f):
    """c = (delta^(p-2) f)' with delta(g) = f g' (c = f' when p = 2)."""
    c = f
    for _ in range(f.field.p - 2):
        c = f * c.derivative()
    return c.derivative()


@pytest.mark.parametrize(
    "p,m", [(3, 1), (5, 1), (11, 1), (13, 1), (2, 2), (3, 2), (5, 2)], ids=lambda v: str(v)
)
def test_off_f_taylor_c_of_x_matches_horner(p, m):
    """c(X) by Horner is the scalar c(a), as c lies in K[x^p], and the last
    column of Y is rho e_0 + c(a) e_1, at xi = 0 (a = 0), at a seeded xi and,
    over extension fields, at an xi outside F_p."""
    F = GF(p, m)
    rng = random.Random(100 * p + m)
    for d in (1, 2, 4):
        f = Poly.from_values(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(d - 1)] + [1])
        c = _c_poly(f)
        off = [v for v in F.elements() if f.eval_value(F.pth_root(v))]
        xis = {0, rng.choice(off)} | ({rng.choice([v for v in off if F.frob(v) != v])} if m > 1 else set())
        for xi in sorted(xis):
            rho = rng.randrange(F.q)
            spec = simple_module_off_f(f, F.from_value(xi), F.from_value(rho))
            c_a = c.eval_value(F.pth_root(xi))
            assert [row[-1] for row in spec.Y] == [rho, c_a] + [0] * (p - 2)
            assert is_scalar_mat(F, mat_poly(F, c, spec.X), c_a)


@pytest.mark.parametrize("F", [GF(3), GF(5), GF(3, 2)], ids=["GF3", "GF5", "GF3_2"])
def test_off_f_corrupted_taylor_c_of_x_is_caught(F, monkeypatch):
    """c(a) shifted by any nonzero offset, injected where simple_module_off_f
    evaluates c, fails a check inside it: y^p = rho + c(a) y enters YX - XY
    on the last column."""
    f = Poly.from_values(F, (1, 2, 0, 1))
    c = _c_poly(f)
    xi = next(v for v in F.units() if f.eval_value(F.pth_root(v)))
    xi, rho = F.from_value(xi), F.from_value(1)
    eval_value = Poly.eval_value
    for offset in F.units():

        def corrupt(self, v, offset=offset):
            return F.add(eval_value(self, v), offset) if self == c else eval_value(self, v)

        monkeypatch.setattr(Poly, "eval_value", corrupt)
        with pytest.raises(InternalCheckError):
            simple_module_off_f(f, xi, rho)
        monkeypatch.undo()
    simple_module_off_f(f, xi, rho)


@pytest.mark.parametrize(
    "F", [GF(3), GF(5), GF(13), GF(3, 2), GF(2, 2)], ids=["GF3", "GF5", "GF13", "GF3_2", "GF2_2"]
)
def test_off_f_mutated_binomial_is_caught_or_harmless(F, monkeypatch):
    """One binomial C(i, j) of the closed-form table shifted by one either
    fails the comparison with the relation re-derivation at
    stage=off_f.x_table or leaves X unchanged (it scales a zero value)."""
    f = Poly.from_values(F, (1, 2, 0, 1))
    xi = next(v for v in F.units() if f.eval_value(F.pth_root(v)))
    xi, rho = F.from_value(xi), F.from_value(1)
    good = simple_module_off_f(f, xi, rho).X
    raised = 0
    for i in range(F.p):
        for j in range(i):

            def shifted(n, k, at=(i, j)):
                return comb(n, k) + ((n, k) == at)

            monkeypatch.setattr(modules_spectra, "comb", shifted)
            try:
                X = simple_module_off_f(f, xi, rho).X
            except InternalCheckError as exc:
                assert str(exc).startswith("stage=off_f.x_table: ") and exc.stage == "off_f.x_table"
                raised += 1
            else:
                assert X == good
            monkeypatch.undo()
    assert raised


def test_relation_check_is_shared_by_both_families():
    """The one relation check passes both families at their own central
    characters and rejects a wrong z1, a wrong c and a wrong z2 target."""
    K = GF(5)
    off = simple_module_off_f(Poly(K, (1, 1, 1)), 2, 3)
    on = simple_module_on_f(Poly(K, (1, 1)) ** 2, Poly(K, (1, 1)), Poly(K, (2, 0, 1)))
    c_off = _c_poly(off.f).eval_value(K.pth_root(2))
    z2_on = mat_sub(K, mat_pow(K, on.Y, 5), mat_scale(K, on.Y, _c_poly(on.f).eval_value(4)))
    for spec, z1, c, z2 in (
        (off, 2, c_off, mat_scale(K, mat_id(K, 5), 3)),
        (on, K.pow(4, 5), _c_poly(on.f).eval_value(4), z2_on),
    ):
        modules_spectra._check_relations(K, spec.f, spec.X, spec.Y, z1, c, z2)
        for bad in ((K.add(z1, 1), c, z2), (z1, K.add(c, 1), z2), (z1, c, mat_add(K, z2, mat_id(K, spec.dim)))):
            with pytest.raises(InternalCheckError):
                modules_spectra._check_relations(K, spec.f, spec.X, spec.Y, *bad)


def test_off_f_distinct_characters_separate_modules():
    K = GF(3)
    f = Poly(K, (1, 1))  # x + 1
    a = simple_module_off_f(f, 1, 0)
    b = simple_module_off_f(f, 1, 1)
    assert a.central_character() != b.central_character()
    assert a.X == b.X and a.Y != b.Y
    on = simple_module_on_f(f, f, Poly(K, (0, 1)))
    assert on.central_character() is None


def test_off_f_describe_uses_digit_vectors():
    F4 = GF(2, 2)
    f = Poly.from_values(F4, (1, 1))  # x + 1, nonzero at xi^(1/2) = t
    spec = simple_module_off_f(f, F4.from_value(3), F4.from_value(1))
    d = spec.describe()
    assert d["kind"] == "off_f" and d["dim"] == 2
    assert d["xi"] == [1, 1] and d["rho"] == [1, 0]
    assert all(isinstance(v, list) for row in d["X"] for v in row)
    assert d["p_i"] is None and d["q"] is None


# ---------------------------------------------------------------------------
# Factorization and the spectrum
# ---------------------------------------------------------------------------


def naive_factor(f):
    """Trial division by monic polynomials of increasing degree."""
    factors = []
    rem = f
    while rem.degree > 0:
        found = None
        d = 1
        while found is None:
            for cand in monic_polys(rem.field, d):
                if (rem % cand).is_zero():
                    found = cand
                    break
            d += 1
        count = 0
        while (rem % found).is_zero():
            rem = rem // found
            count += 1
        factors.append((found, count))
    return sorted(factors, key=lambda t: (t[0].degree, t[0].c))


def test_factorization_examples():
    K = GF(3)
    x, x1 = Poly(K, (0, 1)), Poly(K, (1, 1))
    assert factor_into_irreducibles(x**2 * x1) == [(x, 2), (x1, 1)]
    irr = Poly(K, (1, 0, 1))
    assert factor_into_irreducibles(irr) == [(irr, 1)]
    assert factor_into_irreducibles(irr * Poly(K, (2, 1)) ** 3) == [
        (Poly(K, (2, 1)), 3),
        (irr, 1),
    ]
    K2 = GF(2)
    quartic = Poly(K2, (1, 1, 0, 0, 1))  # irreducible over F_2
    assert factor_into_irreducibles(quartic) == [(quartic, 1)]


@pytest.mark.parametrize("p", [2, 3])
def test_factorization_matches_trial_division(p):
    F = GF(p)
    for d in range(1, 5):
        for f in monic_polys(F, d):
            assert factor_into_irreducibles(f) == naive_factor(f)


def _factor_oracle_inputs(F):
    """Seeded monic inputs of degree <= 12 over F: even draws are random,
    odd ones products of random powers g^k with deg g <= 4 and k <= 3."""
    out = []
    for i in range(24):
        rng = random.Random(f"factor/{F.p}/{i}")
        if i % 2 == 0:
            d = rng.randint(1, 12)
            out.append(Poly.from_values(F, [rng.randrange(F.p) for _ in range(d)] + [1]))
            continue
        f = Poly.one(F)
        while True:
            g = Poly.from_values(F, [rng.randrange(F.p) for _ in range(rng.randint(1, 4))] + [1])
            k = rng.randint(1, 3)
            if f.degree + g.degree * k > 12:
                break
            f = f * g**k
        out.append(f)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_factorization_matches_sympy(p):
    """factor_into_irreducibles against sympy's factor_list over GF(p).  It
    answers exactly when the splitting field, p^lcm of the factor degrees,
    is within the tower cap, and refuses with a DomainError otherwise."""
    sympy = pytest.importorskip("sympy")
    F, x = GF(p), sympy.symbols("x")
    answered = 0
    for f in _factor_oracle_inputs(F):
        lc, factors = sympy.Poly(list(reversed(f.c)), x, modulus=p).factor_list()
        assert lc % p == 1
        want = sorted((tuple(c % p for c in reversed(g.all_coeffs())), n) for g, n in factors)
        assert all(c[-1] == 1 for c, _ in want)
        if p ** lcm(*(len(c) - 1 for c, _ in want)) > DEFAULT_Q_CAP:
            with pytest.raises(DomainError, match="exceeds the configured cap"):
                factor_into_irreducibles(f)
            continue
        assert sorted((g.c, n) for g, n in factor_into_irreducibles(f)) == want, f
        answered += 1
    assert answered >= 16


def test_factorization_extension_field():
    F4 = GF(2, 2)
    t = F4.gen.val
    f = Poly.from_values(F4, (t, 1)) ** 2 * Poly.from_values(F4, (1, 1, 1))
    got = factor_into_irreducibles(f)
    assert got == naive_factor(f)
    assert sum(q.degree * n for q, n in got) == f.degree
    rebuilt = Poly.one(F4)
    for q, n in got:
        assert is_irreducible(q)
        rebuilt = rebuilt * q**n
    assert rebuilt == f


def test_spectrum_example():
    K = GF(3)
    f = Poly(K, (0, 0, 1)) * Poly(K, (1, 1))  # x^2 (x + 1)
    sp = spectrum(f)
    assert [(tuple(q.c), n) for q, n in sp.min_primes] == [((0, 1), 2), ((1, 1), 1)]
    assert sp.ht1 == (Poly(K, (0, 1)), Poly(K, (1, 1)))
    assert sp.krull_dim == 2 and sp.global_dim == 2
    layers = sp.spec_c()
    assert layers[0] == "0" and len(layers) == 5
    d = sp.describe()
    assert d["min_primes"] == [
        {"poly": [0, 1], "mult": 2},
        {"poly": [1, 1], "mult": 1},
    ]
    assert d["krull_dim"] == 2 and len(d["spec_c"]) == 5


def test_spectrum_points_base_field():
    K = GF(3)
    sp = spectrum(Poly(K, (0, 0, 1)))  # f = x^2, f^p vanishes only at xi = 0
    assert len(sp.max_off_f) == 6
    assert all(j == 1 for j, _, _ in sp.max_off_f)
    assert {xi for _, xi, _ in sp.max_off_f} == {1, 2}
    assert {rho for _, _, rho in sp.max_off_f} == {0, 1, 2}


def test_spectrum_points_degree_two():
    K = GF(2)
    sp = spectrum(Poly(K, (0, 1)), degree_bound=2)
    by_degree = {}
    for j, xi, rho in sp.max_off_f:
        by_degree.setdefault(j, []).append((xi, rho))
    assert len(by_degree[1]) == 2  # xi = 1, rho in F_2
    assert len(by_degree[2]) == 5  # 10 non-rational points in Frobenius pairs
    F4 = tower_over(K, 2).ext
    seen = set()
    for xi, rho in by_degree[2]:
        orbit = {(xi, rho), (F4.frob(xi), F4.frob(rho))}
        assert len(orbit) == 2  # honest residue degree
        assert (xi, rho) == min(orbit)  # canonical representative
        assert not orbit & seen
        seen |= orbit
    d = sp.describe()
    deg2 = [e for e in d["max_off_f"] if e["degree"] == 2]
    assert all(isinstance(e["xi"], list) for e in deg2)
    # the Frobenius tables against the element-wise enumeration
    for K, f, bound in (
        (GF(2), Poly(GF(2), (1, 1, 1)), 4),
        (GF(3), Poly(GF(3), (1, 2, 0, 1)), 3),
        (GF(2, 2), Poly(GF(2, 2), (2, 1, 1)), 2),
    ):
        assert spectrum(f, bound).max_off_f == spectrum_points_oracle(f, bound)


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _random_irreducible(rng, F, e):
    while True:
        u = Poly.from_values(F, [rng.randrange(F.q) for _ in range(e)] + [1])
        if is_irreducible_oracle(u):
            return u


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)], ids=lambda v: str(v)
)
def test_spectrum_points_match_the_pair_walk_and_the_mobius_count(p, m):
    """spectrum against the walk over every pair, at each bound up to 3 with
    sum_j q^(2j) <= 10^5, for f with distinct irreducible factors of degree
    1-3 (so some levels hold roots of f^p and some do not); the degree-j
    points number (1/j) sum_{t | j} mu(j/t) (q^t - r_t) q^t, with r_t the
    roots of f in F_{q^t} (Lidl-Niederreiter, Thm 3.25)."""
    F = GF(p, m)
    q = F.q
    top = max(b for b in (1, 2, 3) if sum(q ** (2 * j) for j in range(1, b + 1)) <= 10**5)
    rng = random.Random(q)
    for degrees in ((1, 2), (3,), (1, 1, 3)):
        factors = []
        while len(factors) < len(degrees):
            u = _random_irreducible(rng, F, degrees[len(factors)])
            if u not in factors:
                factors.append(u)
        f = factors[0] ** 2
        for u in factors[1:]:
            f = f * u
        want = spectrum_points_oracle(f, top)
        for bound in range(1, top + 1):
            got = spectrum(f, bound).max_off_f
            assert got == tuple(pt for pt in want if pt[0] <= bound)
        for j in range(1, top + 1):
            n_t = {t: (q**t - sum(u.degree for u in factors if t % u.degree == 0)) * q**t for t in range(1, j + 1)}
            count = sum(_mobius(j // t) * n_t[t] for t in n_t if j % t == 0)
            assert count % j == 0 and sum(pt[0] == j for pt in want) == count // j


@pytest.mark.parametrize("F", [GF(3), GF(2, 2)], ids=["GF3", "GF2_2"])
def test_spectrum_normality_error_names_stage_and_reproducer(F, monkeypatch):
    """A factor list with a factor that is not normal fails with its stage
    and a one-line CLI call that repeats the spectrum."""
    f = Poly.from_values(F, (1, 1, 1))
    good = cli.run(["spectrum", "--field", repr(F), "--f", repr(f), "--degree-bound", "2"])
    assert good[0] == 0
    monkeypatch.setattr(modules_spectra, "factor_into_irreducibles", lambda g: [(Poly.x(F) + 1, 1)])
    with pytest.raises(InternalCheckError, match=r"^stage=spectrum\.normality: ") as info:
        spectrum(f, 2)
    monkeypatch.undo()
    assert info.value.stage == "spectrum.normality"
    assert "\n" not in str(info.value)
    argv = shlex.split(str(info.value).split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "spectrum"]
    assert cli.run(argv[1:]) == good


def test_spectrum_validation():
    K = GF(3)
    with pytest.raises(DomainError):
        spectrum(Poly(K, (1,)))
    with pytest.raises(DomainError):
        spectrum(Poly(K, (0, 1)), degree_bound=-1)


def test_spectrum_pair_bound():
    """spectrum refuses a bound whose levels hold more than SPECTRUM_PAIR_CAP
    pairs (xi, rho) in all, sum_j q^(2j); it lists about q^(2j)/j points per
    level.  GF(13) up to degree 3 (4,855,539 pairs) answers; one degree more, or
    GF(2^17) at degree 1 (2^34 pairs), is refused at once with exit 1
    instead of growing until the process is killed."""
    K = GF(13)
    f = Poly(K, (1, 1, 0, 1))  # x^3 + x + 1
    sp = spectrum(f, 3)
    assert sum(13 ** (2 * j) for j in (1, 2, 3)) <= SPECTRUM_PAIR_CAP
    assert {j for j, _, _ in sp.max_off_f} == {1, 2, 3}
    assert sum(j == 1 for j, _, _ in sp.max_off_f) == (13 - len(roots_in_field(f))) * 13
    with pytest.raises(DomainError, match="pairs"):
        spectrum(f, 4)
    args = ["spectrum", "--field", "GF(2^17)", "--f", "x^2+x", "--degree-bound", "1"]
    proc = subprocess.run([sys.executable, "-m", "orecalc", *args], capture_output=True, timeout=30)
    assert proc.returncode == 1 and proc.stderr.startswith(b"error: spectrum up to residue degree 1")
