"""Command-line front end.

One binary with subcommands, one computation per invocation:

    eigengroup     eigen-substitution group of f over the base field (and the
                   splitting-field group it descends from)
    eigenform      the structured form of f that the group action forces
    centre         generators z1, z2 of the centre of the Ore algebra
    aut-group      automorphism group of the Ore algebra
    isomorphic     decide whether two Ore algebras are isomorphic
    simple-module  matrix presentation of a simple module
    spectrum       prime and maximal spectrum data of the Ore algebra
    inverse-group  construct f realizing a prescribed subgroup
    oracle         diff the structured eigengroup against brute force

Output is JSON by default (keys sorted, one line, byte-identical for
identical invocations); --format text renders groups as generator
presentations.  Exit codes: 0 success, 1 domain error (bad input, violated
precondition, parse failure with column), 2 internal consistency failure.
"""

import argparse
import json
import random
import sys

from .eigengroup import (
    DEFAULT_BRUTE_CAP,
    AffineAut,
    EigengroupDesc,
    Eigenform,
    SubgroupSpec,
    _stage_error,
    eigengroup,
    eigengroup_bruteforce,
    eigengroup_over_base,
    inverse_eigengroup,
)
from .errors import DomainError, InternalCheckError
from .gf import FieldDesc, span_values, tower_over
from .lambda_aut import are_isomorphic, aut_group
from .modules_spectra import simple_module_off_f, simple_module_on_f, spectrum
from .ore import OreAlgebra
from .parsing import (
    format_field,
    format_ore,
    format_poly,
    parse_element,
    parse_field,
    parse_poly,
)
from .poly import Poly

# ---------------------------------------------------------------------------
# Text renderer: generator presentations
# ---------------------------------------------------------------------------


def _elt_str(field: FieldDesc, v: int) -> str:
    return repr(field.from_value(v))


def _sigma(field: FieldDesc, a: AffineAut) -> str:
    return f"σ_{{{_elt_str(field, a.lam)},{_elt_str(field, a.mu)}}}"


def present_eigengroup(desc: EigengroupDesc) -> str:
    """One-line generator presentation, e.g. "Sh_V ⋊ ⟨σ_{2,1}⟩, order 18"."""
    F = desc.level_field
    order = desc.order()
    tail = "infinite order" if order is None else f"order {order}"
    if desc.kind == "torus":
        nu = _elt_str(F, desc.nu)
        scope = "L^x" if desc.over_closure else f"{F!r}^x"
        return f"T_{nu} = ⟨σ_{{λ,(1-λ)·{nu}}} : λ in {scope}⟩, {tail}"
    if desc.kind == "full":
        if desc.over_closure:
            return f"all σ_{{λ,μ}} over the closure, {tail}"
        return f"AGL_1({F!r}) = Sh_V ⋊ ⟨σ_{{λ,0}} : λ in {F!r}^x⟩, V = {F!r}, {tail}"
    if desc.is_trivial():
        return "{id}, order 1"
    vb = ", ".join(_elt_str(F, v) for v in desc.v_basis)
    cyc = None
    if desc.n > 1:
        lam = desc.lambda_n
        mu = F.mul(F.sub(1, lam), desc.nu)
        cyc = f"⟨{_sigma(F, AffineAut(F, lam, mu))}⟩"
    if desc.v_basis and cyc:
        return f"Sh_V ⋊ {cyc}, V basis {{{vb}}}, {tail}"
    if desc.v_basis:
        return f"Sh_V, V basis {{{vb}}}, {tail}"
    return f"{cyc}, {tail}"


def present_eigenform(ef: Eigenform) -> str:
    L = ef.tower.ext
    if ef.case == "none":
        return "no eigenform: the eigengroup is trivial"
    if ef.case == "single_root":
        return f"f = (x - {_elt_str(L, ef.nu)})^{ef.i}"
    g = format_poly(ef.g) if ef.g is not None else "1"
    if ef.case == "A11":
        nu = _elt_str(L, ef.nu)
        return f"f = (x - {nu})^{ef.i} * g((x - {nu})^{ef.n}) with g = {g}"
    vb = "{" + ", ".join(_elt_str(L, v) for v in span_values(L, ef.v_basis)) + "}"
    if ef.case == "A10":
        nu = _elt_str(L, ef.nu)
        return (
            f"f = h^{ef.i} * g(h^{ef.n}) with h = f_V(x - {nu}), g = {g}, V = {vb}"
        )
    if ef.case == "B11":
        return f"f = g(f_V(x))^(p^{ef.s}) with g = {g}, V = {vb}"
    raise _stage_error("eigenform.present", ef.f, f"unknown eigenform case {ef.case!r}", "eigenform")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (json_payload, text)
# ---------------------------------------------------------------------------


def _cmd_eigengroup(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    res = eigengroup(f)
    base = res.descend()
    payload = base.describe()
    payload["closure"] = res.closure.describe()
    text = "\n".join(
        [
            f"G_f({format_field(field)}): {present_eigengroup(base)}",
            f"G_f(closure, level {res.closure.level}): {present_eigengroup(res.closure)}",
        ]
    )
    return payload, text


def _cmd_eigenform(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    res = eigengroup(f)
    ef = res.eigenform
    return ef.describe(), present_eigenform(ef)


def _cmd_centre(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    A = OreAlgebra(f)
    gens = A.centre_generators()
    payload = {
        "z1": format_ore(gens.z1),
        "z2": format_ore(gens.z2),
        "c": format_poly(gens.c),
        "rank": field.p * field.p,
    }
    text = "\n".join(
        [
            f"Z = {format_field(field)}[z1, z2]",
            f"z1 = {payload['z1']}",
            f"z2 = {payload['z2']}",
            f"c = {payload['c']}",
            f"the algebra is free of rank {payload['rank']} over Z",
        ]
    )
    return payload, text


def _cmd_aut_group(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    desc = aut_group(f)
    payload = desc.describe()
    text = "\n".join(
        [
            f"Aut = ({format_field(field)}[x], +) ⋊ G_f, infinite order",
            f"eigen part: {present_eigengroup(desc.eigen)}",
        ]
    )
    return payload, text


def _cmd_isomorphic(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    if args.g is None:
        raise DomainError("isomorphic requires --g")
    g = parse_poly(field, args.g)
    res = are_isomorphic(f, g)
    payload = res.describe()
    if res.isomorphic:
        text = (
            f"isomorphic: x -> {_elt_str(field, res.alpha)}*x + {_elt_str(field, res.beta)} "
            f"carries one algebra onto the other (scaling {_elt_str(field, res.scaling)})"
        )
    else:
        text = "not isomorphic: no affine substitution matches the forms"
    return payload, text


def _cmd_simple_module(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    has_point = args.xi is not None or args.rho is not None
    has_pair = args.pi is not None or args.q is not None
    if has_point and has_pair:
        raise DomainError("give either --xi/--rho or --pi/--q, not both")
    if has_point:
        if args.xi is None or args.rho is None:
            raise DomainError("simple-module needs both --xi and --rho")
        xi = parse_element(field, args.xi)
        rho = parse_element(field, args.rho)
        spec_obj = simple_module_off_f(f, xi, rho)
    elif has_pair:
        if args.pi is None or args.q is None:
            raise DomainError("simple-module needs both --pi and --q")
        p_i = parse_poly(field, args.pi)
        if p_i.degree < 1:
            raise DomainError("--pi must be a nonconstant polynomial")
        residue = field if p_i.degree == 1 else tower_over(field, field.m * p_i.degree).ext
        q = parse_poly(residue, args.q, var="y")
        spec_obj = simple_module_on_f(f, p_i, q)
    else:
        raise DomainError("simple-module needs --xi/--rho or --pi/--q")
    payload = spec_obj.describe()
    char = spec_obj.central_character()
    F = spec_obj.field
    lines = [f"{spec_obj.kind} simple module of dimension {spec_obj.dim}"]
    if char is not None:
        lines.append(
            f"central character: z1 -> {_elt_str(F, char[0])}, z2 -> {_elt_str(F, char[1])}"
        )
    else:
        xbar = spec_obj.X[0][0]
        lines.append(
            f"central character: z1 -> {_elt_str(F, F.pow(xbar, F.p))}; "
            "z2 acts through the residue field F_i[y]/(q)"
        )
    for name, mat in (("X", spec_obj.X), ("Y", spec_obj.Y)):
        lines.append(f"{name} =")
        for row in mat:
            lines.append("  [" + " ".join(_elt_str(F, v) for v in row) + "]")
    return payload, "\n".join(lines)


def _cmd_spectrum(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    bound = args.degree_bound if args.degree_bound is not None else 1
    desc = spectrum(f, bound)
    payload = desc.describe()
    lines = ["minimal primes over (f):"]
    for p_i, n in desc.min_primes:
        lines.append(f"  ({format_poly(p_i)})  multiplicity {n}")
    lines.append("height-1 primes containing f: the same ideals (p_i)")
    lines.append(f"maximal ideals off V(f^[p]) up to residue degree {desc.degree_bound}:")
    for j, xi, rho in desc.max_off_f:
        Fj = tower_over(field, field.m * j).ext
        lines.append(
            f"  degree {j}: x^p - {_elt_str(Fj, xi)}, z2 - {_elt_str(Fj, rho)}"
        )
    lines.append(f"Krull dimension {desc.krull_dim}, global dimension {desc.global_dim}")
    return payload, "\n".join(lines)


def _cmd_inverse_group(args):
    field = parse_field(args.field)
    if args.kind is None:
        raise DomainError("inverse-group requires --kind")
    nu = parse_element(field, args.nu).val if args.nu is not None else 0
    v_basis = ()
    if args.v_basis:
        v_basis = tuple(parse_element(field, s.strip()).val for s in args.v_basis.split(";"))
    spec_obj = SubgroupSpec(
        kind=args.kind,
        field=field,
        n=args.n if args.n is not None else 1,
        nu=nu,
        v_basis=v_basis,
        variant=args.variant,
    )
    f = inverse_eigengroup(spec_obj)
    try:
        realized = eigengroup(f).descend()
    except DomainError:
        # the splitting field of f is past the tower cap; the solve over K
        # needs none (the descent stays first: it is the faster on large G)
        realized = eigengroup_over_base(f)
    payload = {"f": format_poly(f), "group": realized.describe()}
    text = "\n".join(
        [
            f"f = {format_poly(f)}",
            f"realized group: {present_eigengroup(realized)}",
        ]
    )
    return payload, text


def _cmd_oracle(args):
    field = parse_field(args.field)
    f = _required_poly(field, args.f)
    res = eigengroup(f)
    base = res.descend()
    cap = args.cap if args.cap is not None else DEFAULT_BRUTE_CAP
    if field.q <= cap:
        structured = sorted(a.pair for a in base.elements())
        brute = sorted(a.pair for a in eigengroup_bruteforce(f, cap=cap))
        if brute != structured:
            msg = f"oracle mismatch: brute force found {len(brute)} substitutions, the closed form {len(structured)}"
            raise _stage_error("oracle.exhaustive", f, msg, "oracle", "--cap", str(cap))
        mode, checked = "exhaustive", field.q * (field.q - 1)
    else:
        rng = random.Random(args.seed)
        checked = 256
        for _ in range(checked):
            lam = rng.randrange(1, field.q)
            mu = rng.randrange(field.q)
            direct = AffineAut(field, lam, mu).eigenvalue_on(f) is not None
            if direct != base.contains(lam, mu):
                msg = f"oracle mismatch: sampled substitution ({lam}, {mu}) disagrees with the closed form"
                raise _stage_error("oracle.sampled", f, msg, "oracle", "--cap", str(cap), "--seed", str(args.seed))
        mode = "sampled"
    payload = {
        "match": True,
        "mode": mode,
        "checked": checked,
        "order": base.order(),
        "kind": base.kind,
    }
    text = "\n".join(
        [
            f"oracle agrees ({mode}, {checked} substitutions checked)",
            f"group: {present_eigengroup(base)}",
        ]
    )
    return payload, text


def _required_poly(field: FieldDesc, text: str | None) -> Poly:
    if text is None:
        raise DomainError("this command requires --f")
    return parse_poly(field, text)


_COMMANDS = {
    "eigengroup": _cmd_eigengroup,
    "eigenform": _cmd_eigenform,
    "centre": _cmd_centre,
    "aut-group": _cmd_aut_group,
    "isomorphic": _cmd_isomorphic,
    "simple-module": _cmd_simple_module,
    "spectrum": _cmd_spectrum,
    "inverse-group": _cmd_inverse_group,
    "oracle": _cmd_oracle,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap to the domain-error
    convention (exit 1), reserving 2 for internal consistency failures."""

    def error(self, message):
        raise DomainError(message)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv.  Every command is registered with its help, but
    argparse reads the options of the invoked command only, the first
    argument not starting with "-", so only it gets them (all do without argv)."""
    top = _ArgumentParser(prog="orecalc", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command", required=True)
    invoked = None if argv is None else next((a for a in argv if not a.startswith("-")), None)
    helps = {
        "eigengroup": "eigen-substitution group of f",
        "eigenform": "structured form of f under its eigengroup",
        "centre": "central generators z1, z2 of the Ore algebra",
        "aut-group": "automorphism group of the Ore algebra",
        "isomorphic": "decide isomorphism of two Ore algebras",
        "simple-module": "matrix presentation of a simple module",
        "spectrum": "prime and maximal spectrum data",
        "inverse-group": "construct f realizing a prescribed subgroup",
        "oracle": "diff the closed-form eigengroup against brute force",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=helps[name], description=helps[name])
        p.set_defaults(handler=fn)
        if argv is not None and name != invoked:
            continue
        p.add_argument("--field", required=True, help='base field, e.g. "GF(5)" or "GF(2^3)"')
        p.add_argument("--f", help='polynomial in x, e.g. "x^3 + 2*x + 1" or "[1,2,0,1]"')
        p.add_argument("--g", help="second polynomial (isomorphic)")
        p.add_argument("--nu", help="field element: shift point (inverse-group)")
        p.add_argument("--xi", help="field element: x^p coordinate of a maximal ideal")
        p.add_argument("--rho", help="field element: z2 coordinate of a maximal ideal")
        p.add_argument("--pi", help="irreducible factor of f (simple-module, on-curve family)")
        p.add_argument("--q", help="monic irreducible over the residue field of --pi")
        p.add_argument("--kind", choices=["trivial", "cyclic", "shift", "shift_cyclic", "torus", "full"],
                       help="subgroup shape (inverse-group)")
        p.add_argument("--n", type=int, help="cyclic order parameter (inverse-group)")
        p.add_argument("--v-basis", dest="v_basis",
                       help='semicolon-separated basis of V, e.g. "1;[0,1]" (inverse-group)')
        p.add_argument("--variant", choices=["a", "b"], default="a",
                       help="shift-kind flavor: V as full stabilizer (a) or proper (b)")
        p.add_argument("--degree-bound", dest="degree_bound", type=int,
                       help="max residue degree for maximal-ideal enumeration (spectrum)")
        p.add_argument("--format", choices=["json", "text"], default="json",
                       help="output format (default json)")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--cap", type=int, help="field-size cap for exhaustive brute force")
    return top


def run(argv) -> tuple[int, str]:
    """Executes one invocation; returns (exit code, output text)."""
    try:
        args = build_parser(argv).parse_args(argv)
        payload, text = args.handler(args)
    except DomainError as exc:
        return 1, f"error: {exc}"
    except InternalCheckError as exc:
        return 2, f"internal error: {exc}"
    except Exception as exc:
        # never the caller's fault; the type names an exception without a message
        return 2, f"internal error: unexpected {type(exc).__name__}: {exc}"
    if args.format == "json":
        return 0, json.dumps(payload, sort_keys=True)
    return 0, text


def main(argv=None) -> int:
    code, out = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(out + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
