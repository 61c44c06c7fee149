"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

import orecalc.cli as cli
from orecalc import gf
from orecalc import poly as poly_mod
from orecalc.cli import main, run
from orecalc.eigengroup import EigengroupDesc, eigengroup
from orecalc.errors import InternalCheckError
from orecalc.gf import GF, FieldDesc, FieldTower, primitive_root_of_unity
from orecalc.lambda_aut import LambdaAut
from orecalc.ore import OreAlgebra
from orecalc.parsing import parse_poly
from orecalc.poly import Poly


def run_json(argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out)


def test_eigengroup_example():
    data = run_json(["eigengroup", "--field", "GF(5)", "--f", "x*(x+1)^2"])
    assert data["kind"] == "finite"
    assert data["order"] == 1
    assert data["closure"]["order"] == 1


def test_centre_example():
    data = run_json(["centre", "--field", "GF(3)", "--f", "x"])
    assert data["z2"] == "y^3 + 2*y"
    assert data["z1"] == "x^3"
    assert data["c"] == "1"
    assert data["rank"] == 9


def test_isomorphic_example():
    data = run_json(["isomorphic", "--field", "GF(3)", "--f", "x^2", "--g", "x^2+1"])
    assert data["isomorphic"] is False
    assert data["alpha"] is None and data["beta"] is None and data["lambda"] is None


def test_isomorphic_positive():
    data = run_json(["isomorphic", "--field", "GF(3)", "--f", "x^2", "--g", "x^2+2*x+1"])
    assert data["isomorphic"] is True
    assert data["alpha"] == 1 and data["beta"] == 1 and data["lambda"] == 1
    code, out = run(
        ["isomorphic", "--field", "GF(3)", "--f", "x^2", "--g", "x^2+2*x+1", "--format", "text"]
    )
    assert code == 0 and "isomorphic" in out


def test_eigengroup_full_kind():
    data = run_json(["eigengroup", "--field", "GF(3)", "--f", "x^3 - x"])
    assert data["kind"] == "full"
    assert data["order"] == 6


def test_eigenform_single_root():
    data = run_json(["eigenform", "--field", "GF(3)", "--f", "(x-1)^4"])
    assert data["case"] == "single_root"
    assert data["i"] == 4 and data["nu"] == 1


def test_aut_group():
    data = run_json(["aut-group", "--field", "GF(3)", "--f", "x^2"])
    assert data["order"] == "infinite"
    assert data["eigen_part"]["kind"] == "torus"
    assert "polynomial_part" in data


def test_simple_module_off_curve():
    data = run_json(
        ["simple-module", "--field", "GF(3)", "--f", "x^2", "--xi", "1", "--rho", "2"]
    )
    assert data["kind"] == "off_f" and data["dim"] == 3
    assert data["xi"] == 1 and data["rho"] == 2
    assert len(data["X"]) == 3 and len(data["Y"]) == 3


def test_simple_module_on_curve_example():
    data = run_json(["simple-module", "--field", "GF(3)", "--f", "x^2", "--pi", "x", "--q", "y"])
    assert data["kind"] == "on_f" and data["dim"] == 1
    assert data["X"] == [[0]] and data["Y"] == [[0]]
    code, out = run(
        ["simple-module", "--field", "GF(3)", "--f", "x^2", "--pi", "x", "--q", "y",
         "--format", "text"]
    )
    assert code == 0 and "residue field" in out


def test_spectrum_example():
    data = run_json(["spectrum", "--field", "GF(3)", "--f", "x^2*(x+1)"])
    got = {(tuple(e["poly"]), e["mult"]) for e in data["min_primes"]}
    assert got == {((0, 1), 2), ((1, 1), 1)}
    assert data["krull_dim"] == 2
    code, out = run(["spectrum", "--field", "GF(3)", "--f", "x^2*(x+1)", "--format", "text"])
    assert code == 0 and "minimal primes" in out


def test_inverse_group_kinds():
    data = run_json(["inverse-group", "--field", "GF(5)", "--kind", "trivial"])
    assert data["f"] == "x^3 + 2*x^2 + x"
    assert data["group"]["order"] == 1
    data = run_json(["inverse-group", "--field", "GF(3)", "--kind", "full"])
    assert data["group"]["kind"] == "full" and data["group"]["order"] == 6
    data = run_json(["inverse-group", "--field", "GF(3)", "--kind", "torus", "--nu", "1"])
    assert data["f"] == "x + 2"
    assert data["group"]["kind"] == "torus"
    data = run_json(
        ["inverse-group", "--field", "GF(3)", "--kind", "cyclic", "--n", "2", "--nu", "0"]
    )
    assert data["group"]["order"] == 2
    data = run_json(
        ["inverse-group", "--field", "GF(2)", "--kind", "shift", "--v-basis", "1"]
    )
    assert data["group"]["order"] == 2 and data["group"]["V_basis"] == [1]
    data = run_json(
        ["inverse-group", "--field", "GF(3)", "--kind", "shift", "--v-basis", "1"]
    )
    assert data["group"]["kind"] == "finite"
    assert data["group"]["order"] == 3 and data["group"]["n"] == 1


def test_inverse_group_answers_past_the_tower_cap():
    """f = x^2 + x + c over GF(2^12) splits only over GF(2^24), past the
    tower cap, so eigengroup refuses it; inverse-group reads its group from
    the solve over K.  f(lam x + mu) = lam^2 f asks lam = lam^2 and
    mu^2 + mu = 0, so the group is {x, x + 1}."""
    data = run_json(["inverse-group", "--field", "GF(2^12)", "--kind", "shift", "--v-basis", "1"])
    assert data["f"] == "x^2 + x + [0,0,0,0,0,0,0,0,0,1,0,0]"
    unit = [1] + [0] * 11
    assert data["group"] == {"kind": "finite", "V_basis": [unit], "n": 1, "lambda_n": unit,
                             "nu": [0] * 12, "order": 2}
    code, out = run(["inverse-group", "--field", "GF(2^12)", "--kind", "shift", "--v-basis", "1",
                     "--format", "text"])
    assert code == 0 and out.splitlines()[1] == (
        "realized group: Sh_V, V basis {[1,0,0,0,0,0,0,0,0,0,0,0]}, order 2")
    code, out = run(["eigengroup", "--field", "GF(2^12)", "--f", data["f"]])
    assert code == 1 and "exceeds the configured cap" in out


def test_oracle_exhaustive():
    data = run_json(["oracle", "--field", "GF(3)", "--f", "x^2"])
    assert data["match"] is True and data["mode"] == "exhaustive"
    data = run_json(["oracle", "--field", "GF(9)", "--f", "x^2+1", "--cap", "4", "--seed", "3"])
    assert data["match"] is True and data["mode"] == "sampled" and data["checked"] == 256


SAMPLED_ORACLE = [  # (field, f, format, the stdout the listing of the group gave)
    ("GF(2^20)", "x+1", "json", '{"checked": 256, "kind": "torus", "match": true, "mode": "sampled", "order": 1048575}'),
    ("GF(2^20)", "x+1", "text", "oracle agrees (sampled, 256 substitutions checked)\n"
     "group: T_ONE = ⟨σ_{λ,(1-λ)·ONE} : λ in GF(2^20)^x⟩, order 1048575".replace("ONE", "[1" + ",0" * 19 + "]")),
    ("GF(2^12)", "x^4+x+1", "json", '{"checked": 256, "kind": "finite", "match": true, "mode": "sampled", "order": 12}'),
    ("GF(3^12)", "x^3-x+1", "json", '{"checked": 256, "kind": "finite", "match": true, "mode": "sampled", "order": 6}'),
    ("GF(2^11)", "x^2+x", "json", '{"checked": 256, "kind": "finite", "match": true, "mode": "sampled", "order": 2}'),
]


@pytest.mark.parametrize("field,f,fmt,want", SAMPLED_ORACLE)
def test_sampled_oracle_lists_no_group(field, f, fmt, want, monkeypatch):
    """Sampled mode tests membership from the descriptor and reads the order
    from order(): with elements() made to raise it prints the bytes that
    listing the group gave (2^20 - 1 torus pairs for x + 1)."""
    eg_mod = sys.modules["orecalc.eigengroup"]  # the package re-exports a function by that name

    def refuse(self):
        raise AssertionError("elements() was called")

    monkeypatch.setattr(eg_mod.EigengroupDesc, "elements", refuse)
    assert run(["oracle", "--field", field, "--f", f, "--format", fmt]) == (0, want)


def test_oracle_ignores_environment_cap(monkeypatch):
    # the cap reaches the brute force only through --cap
    monkeypatch.setenv("ORECALC_BRUTE_CAP", "4")
    data = run_json(["oracle", "--field", "GF(9)", "--f", "x^2+1"])
    assert data["match"] is True and data["mode"] == "exhaustive"
    saved = dict(os.environ)
    run_json(["oracle", "--field", "GF(9)", "--f", "x^2+1", "--cap", "4"])
    assert dict(os.environ) == saved


def test_text_format():
    code, out = run(["eigengroup", "--field", "GF(5)", "--f", "x*(x+1)^2", "--format", "text"])
    assert code == 0 and "{id}, order 1" in out
    code, out = run(["centre", "--field", "GF(3)", "--f", "x", "--format", "text"])
    assert code == 0 and "z2 = y^3 + 2*y" in out
    code, out = run(["eigengroup", "--field", "GF(3)", "--f", "x^3-x", "--format", "text"])
    assert code == 0 and "AGL_1" in out


def test_json_output_is_sorted_single_line():
    code, out = run(["centre", "--field", "GF(3)", "--f", "x"])
    assert code == 0
    assert "\n" not in out
    assert out == json.dumps(json.loads(out), sort_keys=True)


def test_domain_errors_exit_1():
    cases = [
        ["eigengroup", "--field", "GF(6)", "--f", "x"],
        ["eigengroup", "--field", "GF(3)"],  # missing --f
        ["eigengroup", "--f", "x"],  # missing --field
        ["isomorphic", "--field", "GF(3)", "--f", "x^2"],  # missing --g
        ["eigengroup", "--field", "GF(3)", "--f", "x", "--bogus"],
        ["bogus-command"],
        [],
        ["simple-module", "--field", "GF(3)", "--f", "x^2"],  # neither family chosen
        ["simple-module", "--field", "GF(3)", "--f", "x^2",
         "--xi", "1", "--rho", "1", "--pi", "x", "--q", "y"],
        ["inverse-group", "--field", "GF(3)"],  # missing --kind
    ]
    for argv in cases:
        code, out = run(argv)
        assert code == 1, argv
        assert out.startswith("error:"), argv


def test_shift_cyclic_of_order_one_takes_the_shift_variant_rule():
    """shift_cyclic with n = 1 is built as shift, so variant b needs V proper
    there too: V = GF(2) is refused with a DomainError, not an internal error."""
    code, out = run(["inverse-group", "--field", "GF(2)", "--kind", "shift_cyclic", "--n", "1",
                     "--v-basis", "1", "--variant", "b"])
    assert code == 1 and out == "error: variant 'b' needs V proper in the field"
    data = run_json(["inverse-group", "--field", "GF(4)", "--kind", "shift_cyclic", "--n", "1",
                     "--v-basis", "1", "--variant", "b"])
    assert data["group"]["order"] == 2 and data["group"]["n"] == 1


def test_parse_errors_carry_column():
    code, out = run(["eigengroup", "--field", "GF(3)", "--f", "x + $"])
    assert code == 1 and "column 5" in out
    code, out = run(["eigengroup", "--field", "GF(3", "--f", "x"])
    assert code == 1 and "column" in out


def test_internal_check_exit_2(monkeypatch):
    monkeypatch.setattr(cli, "eigengroup_bruteforce", lambda f, cap: [])
    code, out = run(["oracle", "--field", "GF(3)", "--f", "x^2"])
    assert code == 2
    assert out.startswith("internal error:")


def test_unexpected_exception_names_its_type(monkeypatch):
    def boom(args):
        raise Exception()

    monkeypatch.setitem(cli._COMMANDS, "centre", boom)
    code, out = run(["centre", "--field", "GF(3)", "--f", "x"])
    assert code == 2
    assert out == "internal error: unexpected Exception: "


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["--help"])
    assert ei.value.code == 0
    assert "eigengroup" in capsys.readouterr().out


# (argv, exit code, sha256 of stdout + "\0" + stderr) at an 80-column width:
# the help pages and argparse errors, which the per-call parser must keep.
HELP_AND_ERRORS = [
    (["--help"], 0, "53de6ca44fb02018e1f275500b836dfc13805ad0fb9cf8bc7e31d110f334d78b"),
    (["eigengroup", "--help"], 0, "b3a7eaf710d316d7c87125b8b927c84e327bcc95e8de5d9ac8004276abd9df8d"),
    (["eigenform", "--help"], 0, "886ab30761567a5b9685a0ce221c3c04545c4224e025a16762bbd9aedbe08ca8"),
    (["centre", "--help"], 0, "0aa8873ba64b1254e609bbed9cf6bd4ddaea6bbddc49eea1407b9d2cf3ec33ee"),
    (["aut-group", "--help"], 0, "880430de4582453eae7baca32ff6cc51c59e5322b4016075f0daf8a012b6f64d"),
    (["isomorphic", "--help"], 0, "d032af7ed96d7b2e0cf26950210517dd10afa9854a87ed822d19e8d53f90b9f6"),
    (["simple-module", "--help"], 0, "f224c3f245db9c0fdb44bafd825de52ca67d61577e2dde12534f0f16457a5901"),
    (["spectrum", "--help"], 0, "2162e04a1d5c6974bf63005eb7e814186872d106d470fdd93811fe846805d5c9"),
    (["inverse-group", "--help"], 0, "e165c0e958214a0173a89732a31b9351dc8598e23553b92d0cf9163d6f72cccb"),
    (["oracle", "--help"], 0, "8dcbe9e119281596de520463645f63a02e403cfd8e36015188f1f05b08d36020"),
    ([], 1, "dd9d12e69f049b4a9d48fe09798144d18ee21ee9fd53664fc5da95022d02c726"),
    (["bogus-command"], 1, "124e0ac63d62893cde1c2b8da0a7c8007396be5d8c5f9f7001936ad1a62b446b"),
    (["centre", "--f", "x"], 1, "0ae039459043c69f6a2c27a6a04ef22ed12f7599e3047d7ef3b41ab47aeb63b7"),
    (["inverse-group", "--field", "GF(3)", "--kind", "ring"], 1,
     "aaaed6717edfec85de2169371af976cf25390f458a247a82e32c422aa47d253f"),
    (["centre", "--field", "GF(3)", "--f", "x", "--bogus"], 1,
     "e868243a1a087d47b0026c77bc3a0d22570c30fb140d3d8e6edf0ac5b706f3b0"),
    (["--field", "GF(5)", "centre"], 1, "b7765a4973f1d222289221d31f2007cf7a5354e8deca7d484f4b0552b5fadd6f"),
    (["-x", "centre", "--field", "GF(3)", "--f", "x"], 1,
     "573ef931bb79b375a5d96c97e642bc0b75f92e4b4b13532c55347f464a340fdd"),
]


@pytest.mark.parametrize("argv,code,digest", HELP_AND_ERRORS, ids=[" ".join(a) or "no-args" for a, _, _ in HELP_AND_ERRORS])
def test_help_and_argparse_errors_are_byte_identical(argv, code, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    cap = capsys.readouterr()
    assert got == code, cap
    assert hashlib.sha256(f"{cap.out}\0{cap.err}".encode()).hexdigest() == digest, cap


def test_parser_adds_options_to_the_invoked_command_only():
    def option_counts(parser):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {name: len(p._actions) for name, p in sub.choices.items()}

    full = option_counts(cli.build_parser())
    assert len(full) == 9 and set(full.values()) == {17}  # -h and the 16 options
    one = option_counts(cli.build_parser(["centre", "--field", "GF(3)", "--format", "text"]))
    assert one["centre"] == 17 and all(v == 1 for k, v in one.items() if k != "centre")


def test_main_streams(capsys):
    assert main(["centre", "--field", "GF(3)", "--f", "x"]) == 0
    cap = capsys.readouterr()
    assert "z2" in cap.out and cap.err == ""
    assert main(["centre", "--field", "GF(6)", "--f", "x"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err.startswith("error:")


def _module_cli(args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "orecalc", *args], capture_output=True, timeout=timeout
    )


def test_module_invocation_deterministic():
    args = ["oracle", "--field", "GF(9)", "--f", "x^2+1", "--cap", "4", "--seed", "7"]
    first = _module_cli(args)
    second = _module_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.strip()
    args = ["eigengroup", "--field", "GF(5)", "--f", "x*(x+1)^2"]
    a, b = _module_cli(args), _module_cli(args)
    assert a.returncode == 0 and a.stdout == b.stdout
    code, out = run(args)
    assert a.stdout.decode().strip() == out


REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def installed_checkout(tmp_path):
    """Install this checkout into a fresh prefix under `tmp_path`.

    Uses the declared build backend (setuptools) directly, so it works offline
    with no `wheel` package, and sends every build output into `tmp_path`, so
    the checkout is left untouched. Returns `(bindir, purelib)`.
    """
    pytest.importorskip("setuptools")
    prefix = tmp_path / "prefix"
    bindir = prefix / "bin"
    purelib = sysconfig.get_path("purelib", vars={"base": str(prefix)})
    proc = subprocess.run(
        [
            sys.executable, "-c", "import setuptools; setuptools.setup()", "-q",
            "egg_info", "--egg-base", str(tmp_path),
            "build", "--build-base", str(tmp_path / "build"),
            "install", "--prefix", str(prefix),
            "--install-lib", purelib, "--install-scripts", str(bindir),
            "--single-version-externally-managed", "--record", str(tmp_path / "record.txt"),
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (
        f"installing the checkout failed (exit {proc.returncode})\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )
    return bindir, purelib


def test_console_script_installed(installed_checkout, tmp_path):
    bindir, purelib = installed_checkout
    exe = shutil.which("orecalc", path=str(bindir))
    assert exe, "the orecalc console script should be on PATH after installation"
    # Run the installed copy only: its bin first on PATH, its purelib as the
    # whole PYTHONPATH (dropping the inherited `src`), from outside the checkout.
    env = dict(os.environ, PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
               PYTHONPATH=purelib)
    proc = subprocess.run(
        [exe, "centre", "--field", "GF(3)", "--f", "x"],
        capture_output=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["z2"] == "y^3 + 2*y"


def test_traced_cli_prints_the_untraced_answer():
    """The benchmark's traced CLI patches orecalc's functions by name; a
    rename in the package must not change or break its answer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for args in (
        ["eigengroup", "--field", "GF(9)", "--f", "x^9-x"],
        ["simple-module", "--field", "GF(5)", "--f", "x^2+1", "--xi", "1", "--rho", "3"],
        ["isomorphic", "--field", "GF(3)", "--f", "x^3-x+1", "--g", "x^3-x+2"],
        ["spectrum", "--field", "GF(7)", "--f", "x^3+x+1", "--degree-bound", "2"],
        ["simple-module", "--field", "GF(13)", "--f", "x^3+x+1", "--xi", "2", "--rho", "5"],
    ):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "perfbench" / "spans.py"), *args],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == run(args)[1]


# The records that stay dataclasses, each with the perfbench/selftest.py
# corruption that rebuilds it through dataclasses.replace.
SELFTEST_DATACLASSES = {
    "orecalc.lambda_aut.IsoResult": "iso_classify .partner and .non_partner",
    "orecalc.modules_spectra.SimpleModuleSpec": "simple_modules .off_f and .on_f",
    "orecalc.modules_spectra.SpectrumDesc": "simple_modules .spectrum",
    "orecalc.ore.CentreGens": "simple_modules .centre",
}


def test_import_contract_of_the_benchmark_tracer():
    """Right after `import orecalc; import orecalc.cli` every module that
    perfbench/spans.py wraps is loaded (the tracer reads them from
    sys.modules), every function, class and method it wraps or counts
    resolves by getattr there, and exactly the records that the self-test
    corrupts with dataclasses.replace are dataclasses."""
    code = (
        "import json, sys\n"
        "import orecalc, orecalc.cli\n"
        "loaded = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import spans\n"
        "wrapped = {e[1] for e in spans.SPANS + spans.METHOD_SPANS + spans.COUNTED}\n"
        "unresolved = []\n"
        "for e in spans.SPANS + spans.METHOD_SPANS + spans.COUNTED:\n"
        "    obj = sys.modules.get('orecalc.' + e[1])\n"
        "    for name in e[2:]:\n"
        "        obj = getattr(obj, name, None)\n"
        "    if obj is None:\n"
        "        unresolved.append('.'.join(e[1:]))\n"
        "dcs = [f'{n}.{k}' for n, m in sorted(sys.modules.items()) if n.startswith('orecalc')\n"
        "       for k, v in vars(m).items()\n"
        "       if isinstance(v, type) and v.__module__ == n and '__dataclass_fields__' in vars(v)]\n"
        "print(json.dumps([sorted(m for m in wrapped if 'orecalc.' + m not in loaded), unresolved, sorted(dcs)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, str(REPO_ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    missing, unresolved, dataclasses = json.loads(proc.stdout)
    assert missing == [] and unresolved == []
    assert dataclasses == sorted(SELFTEST_DATACLASSES)


def _vector(F, f):
    """f as a CLI coefficient vector: ints over GF(p), digit vectors above."""
    if F.m > 1:
        return "[" + ",".join("[" + ",".join(map(str, F.unpack(v))) + "]" for v in f.c) + "]"
    return "[" + ",".join(map(str, f.c)) + "]"


def test_isomorphic_reach_over_gf_2_20():
    """The query the per-mu scan could not answer in minutes: the witness
    comes back within the timeout and carries f to g by substitution."""
    F = GF(2, 20)
    f, g = parse_poly(F, "x^3+x+1"), parse_poly(F, "x^3+x^2+1")
    args = ["isomorphic", "--field", "GF(2^20)", "--f", "x^3+x+1", "--g", "x^3+x^2+1"]
    proc = _module_cli(args, timeout=30)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["isomorphic"] is True
    alpha, beta, lam = (F.pack(data[key]) for key in ("alpha", "beta", "lambda"))
    assert f.compose(Poly.from_values(F, (beta, alpha))) == g.scale_value(F.pow(alpha, 3))
    assert lam == F.inv(F.pow(alpha, 3))


def test_isomorphic_powers_stay_below_the_field_size(monkeypatch):
    """isomorphic over GF(13) of x^169 - 9x + 4 with itself: its one
    lambda-elimination equation raises b_0(mu) = f(mu), of degree 169, to
    the 168th power.  Reduced modulo x^13 - x, which vanishes on K, no
    residue ring the answer takes has degree above 13; the dense power has
    degree 28,392 and took seconds."""
    rings = []
    real_init = poly_mod._Residues.__init__

    def init(self, g):
        rings.append(g.degree)
        real_init(self, g)

    monkeypatch.setattr(poly_mod._Residues, "__init__", init)
    f = "x^169 - 9*x + 4"
    assert run_json(["isomorphic", "--field", "GF(13)", "--f", f, "--g", f"({f}) + 0*x"]) == {
        "alpha": 1, "beta": 0, "isomorphic": True, "lambda": 1}
    assert rings and max(rings) <= 13


def _fuzz_queries(rng, F, spec, degrees):
    """Seeded queries for every subcommand but inverse-group.  Six
    isomorphic/aut-group queries: partners, random pairs, torus pairs
    f = (x - a)^d, g = (x - b)^d, and inputs the CLI must refuse (unequal
    degrees, non-monic).  Then one query each for eigengroup, eigenform,
    oracle, centre and spectrum, and two for simple-module, on f (p_i = x - a
    a factor of f, q of degree 1 or 2 in y, which may be reducible) and off
    f (a random point, which may lie on f); either format, and refusals
    included.  inverse-group is left out: its witness for --kind cyclic
    --n 69905 over GF(2^20) has degree 69905, and no bound stops the work
    on it (ROADMAP item 1)."""
    for _ in range(6):
        d = rng.choice(degrees)
        f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])
        kind = rng.choice(["partner", "random", "torus", "degree", "non_monic", "aut"])
        if kind == "partner":
            lam, mu = rng.randrange(1, F.q), rng.randrange(F.q)
            g = f.compose_affine(lam, mu).scale_value(F.inv(F.pow(lam, d)))
        elif kind == "torus":
            f, g = (Poly.from_values(F, (rng.randrange(F.q), 1)) ** d for _ in range(2))
        elif kind == "degree":
            g = f * Poly.x(F)
        elif kind == "non_monic":
            g = f.scale_value(rng.randrange(2, F.q)) if F.q > 2 else Poly.one(F)
        else:
            g = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])
        if kind == "aut":
            yield ["aut-group", "--field", spec, "--f", _vector(F, f)]
        else:
            yield ["isomorphic", "--field", spec, "--f", _vector(F, f), "--g", _vector(F, g)]
    elt = lambda: repr(F.from_value(rng.randrange(F.q)))  # noqa: E731
    rand = lambda d: Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])  # noqa: E731
    for command in ("eigengroup", "eigenform", "oracle", "centre", "spectrum", "on_f", "off_f"):
        f, a = rand(rng.choice(degrees)), Poly.from_values(F, (rng.randrange(F.q), 1))
        if command == "on_f":
            f = f * a
        args = ["--field", spec, "--f", _vector(F, f), "--format", rng.choice(["json", "text"])]
        if command == "oracle":
            args += ["--seed", str(rng.randrange(100))]
        elif command == "spectrum":
            args += ["--degree-bound", str(rng.randrange(3))]
        elif command == "on_f":
            command = "simple-module"
            args += ["--pi", _vector(F, a), "--q", _vector(F, rand(rng.choice([1, 2])))]
        elif command == "off_f":
            command = "simple-module"
            args += ["--xi", elt(), "--rho", elt()]
        yield [command, *args]


# field specs and literals past every bound: trial division of a 19-digit
# prime, a power 3^(10^8) built before the cap check, and int() past 4,300
# digits each kept one process running or made it exit 2
OVERSIZED = [
    ("GF(1000000000000000003)", "characteristic 1000000000000000003 exceeds the configured cap"),
    ("GF(1000000000000000003^2)", "characteristic 1000000000000000003 exceeds the configured cap"),
    ("GF(3^100000000)", "field size 3^100000000 exceeds the configured cap"),
    ("GF(" + "9" * 5000 + ")", "integer literal exceeds the supported 100 digits at column 4"),
]
OVERSIZED_QUERIES = [["centre", "--field", spec, "--f", "x"] for spec, _ in OVERSIZED]
OVERSIZED_QUERIES.append(["centre", "--field", "GF(2)", "--f", "x^" + "9" * 5000])


@pytest.mark.parametrize("args", OVERSIZED_QUERIES, ids=["prime", "prime_power", "power", "digits", "exponent"])
def test_oversized_specs_are_refused_at_once(args):
    """Each oversized field spec or literal exits 1 within a second of CPU
    time, with the message the unbounded run would have printed."""
    message = dict(OVERSIZED).get(args[2], "integer literal exceeds the supported 100 digits at column 3")
    start = time.process_time()
    code, out = run(args)
    assert time.process_time() - start < 1
    assert code == 1 and out.startswith(f"error: {message}"), out


# torus pairs over GF(2^20) that listed all 2^20 - 1 matches (13.5 s and 130 s)
TORUS_2_20 = [["isomorphic", "--field", "GF(2^20)", "--f", f, "--g", g]
              for f, g in (("x", "x+1"), ("x^2", "x^2+1"))]


@pytest.mark.parametrize("p,m,degrees,fixed", [
    (2, 1, (1, 2, 3, 4), OVERSIZED_QUERIES), (7, 1, (1, 2, 3, 7), []), (3, 2, (1, 2, 3, 6), []),
    (2, 3, (2, 3, 4), []), (2, 20, (1, 2, 3, 4), TORUS_2_20),
], ids=["GF2", "GF7", "GF9", "GF8", "GF2_20"])
def test_isomorphism_queries_exit_cleanly(p, m, degrees, fixed):
    """Every seeded query, of eight of the nine subcommands, answers (exit
    0, JSON or text on stdout) or is refused (exit 1, one error line) within the
    subprocess timeout; no traceback."""
    F = GF(p, m)
    spec = f"GF({p})" if m == 1 else f"GF({p}^{m})"
    for args in fixed + list(_fuzz_queries(random.Random(f"fuzz/{p}/{m}"), F, spec, degrees)):
        proc = _module_cli(args, timeout=30)
        assert proc.returncode in (0, 1), (args, proc.stderr)
        assert b"Traceback" not in proc.stderr, (args, proc.stderr)
        if proc.returncode == 0 and "text" in args:
            assert proc.stdout.strip()
        elif proc.returncode == 0:
            json.loads(proc.stdout)
        else:
            assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, proc.stderr


def test_torus_pairs_over_gf_2_20_take_the_first_match():
    """(x - a)^d and (x - b)^d have the least match (1, a - b); it is read
    off without listing the q - 1 matches, so each process is quick."""
    one = [1] + [0] * 19
    for args in TORUS_2_20:
        proc = _module_cli(args, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"alpha": one, "beta": one, "isomorphic": True, "lambda": one}


@pytest.mark.parametrize("f", ["x^12 + x^8", "x^12 + 4*x^8"])
def test_eigengroup_and_aut_group_print_the_canonical_lambda_n(f):
    """Both inputs have G_f(GF(5)) = {x -> lam x : lam^4 = 1}.  Their
    splitting fields differ, and the printed generator does not depend on
    them: lambda_n is GF(5)'s own primitive_root_of_unity(4)."""
    lam = primitive_root_of_unity(4, GF(5)).val
    eig = run_json(["eigengroup", "--field", "GF(5)", "--f", f])
    aut = run_json(["aut-group", "--field", "GF(5)", "--f", f])["eigen_part"]
    assert eig["lambda_n"] == aut["lambda_n"] == lam
    assert {k: v for k, v in eig.items() if k != "closure"} == aut
    gen = f"⟨σ_{{{lam},0}}⟩, order 4"
    assert run(["eigengroup", "--field", "GF(5)", "--f", f, "--format", "text"])[1].startswith(f"G_f(GF(5)): {gen}\n")
    assert run(["aut-group", "--field", "GF(5)", "--f", f, "--format", "text"])[1].endswith(f"eigen part: {gen}")


def _handler(argv):
    """The subcommand call that run(argv) makes, without its error mapping."""
    args = cli.build_parser(argv).parse_args(argv)
    return lambda: args.handler(args)


def _check_site(site, monkeypatch):
    """Install a fault at one check site.  Returns the call that trips it,
    its stage, the subcommand its reproducer runs (None where no CLI call
    builds the failing object, and the message names it instead), and
    whether that CLI call meets the fault too."""
    f = Poly(GF(3), (1, 1, 0, 1))  # x^3 + x + 1
    if site == "modulus":
        monkeypatch.setattr(gf, "_is_irreducible", lambda p, coeffs: False)
        monkeypatch.setattr(gf, "_MODULUS_CACHE", {})
        return lambda: gf.canonical_modulus(3, 2), "gf.modulus", "centre", True
    if site == "generator":
        mod = gf.canonical_modulus(3, 2)
        monkeypatch.setattr(FieldDesc, "_pow_slow", lambda self, a, e: 1)
        monkeypatch.setattr(gf, "_FIELD_CACHE", {})  # so that the CLI call builds its fields again
        return lambda: FieldDesc(3, 2, mod), "gf.generator", "centre", True
    if site == "tower_roots":
        monkeypatch.setattr(poly_mod, "split_equal_degree", lambda g, d: [])
        return lambda: FieldTower(GF(2), 4).level(2), "gf.tower", None, False
    if site == "tower_basis":
        monkeypatch.setattr(gf, "Span", type("Flat", (gf.Span,), {"rank": 0}))
        return lambda: FieldTower(GF(2), 4).level(2), "gf.tower", None, False
    if site == "eigenform":
        ef = eigengroup(f).eigenform._replace(case="bogus")  # eigengroup's own expand check refuses it
        return lambda: cli.present_eigenform(ef), "eigenform.present", "eigenform", False
    if site == "oracle_exhaustive":
        monkeypatch.setattr(cli, "eigengroup_bruteforce", lambda f, cap: [])
        return _handler(["oracle", "--field", "GF(3)", "--f", "x^2"]), "oracle.exhaustive", "oracle", True
    if site == "oracle_sampled":
        contains = EigengroupDesc.contains
        monkeypatch.setattr(EigengroupDesc, "contains", lambda self, lam, mu: not contains(self, lam, mu))
        argv = ["oracle", "--field", "GF(9)", "--f", "x^2+1", "--cap", "4", "--seed", "3"]
        return _handler(argv), "oracle.sampled", "oracle", True
    assert site == "hom_verify"
    return lambda: LambdaAut(OreAlgebra(f), 1, 1).verify(), "hom.verify", None, False  # x -> x + 1 moves f


@pytest.mark.parametrize("site", [
    "modulus", "generator", "tower_roots", "tower_basis", "eigenform", "oracle_exhaustive", "oracle_sampled",
    "hom_verify",
])
def test_check_sites_name_stage_and_reproducer(site, monkeypatch):
    """Each check in the field build, the CLI and the map check raises at
    its stage, on one line.  Where a CLI call repeats the computation the
    line ends with it: that call meets the same stage while the fault is in
    place, where it can reach the site, and answers once it is gone.
    Elsewhere the line names the failing object and its field."""
    trip, stage, command, replays = _check_site(site, monkeypatch)
    with pytest.raises(InternalCheckError, match=rf"^stage={re.escape(stage)}: ") as info:
        trip()
    msg = str(info.value)
    assert info.value.stage == stage and "\n" not in msg
    if command is None:
        monkeypatch.undo()
        assert "reproduce: " not in msg
        assert re.search(r"tower_over\(GF\(2\), 4\)$|: f = x\^3 \+ x \+ 1 over GF\(3\)$", msg)
        return
    argv = shlex.split(msg.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", command]
    if replays:
        code, out = run(argv[1:])
        assert code == 2 and out.startswith(f"internal error: stage={stage}: ")
    monkeypatch.undo()
    assert run(argv[1:])[0] == 0
