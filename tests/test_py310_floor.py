"""Python 3.10 is the oldest version the CI matrix runs: every source file
under src/, tests/ and perfbench/ must parse with the 3.10 grammar and use
nothing from the 3.11 standard library (tomllib, typing.Self)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def floor_violations(source: str, filename: str = "<snippet>") -> list[str]:
    """What in the source needs Python 3.11 or later (SyntaxError when the
    3.10 grammar refuses it)."""
    tree = ast.parse(source, filename=filename, feature_version=(3, 10))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "tomllib"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tomllib":
                found.append("from tomllib import")
            if node.module == "typing":
                found += ["from typing import Self" for a in node.names if a.name == "Self"]
        elif isinstance(node, ast.Attribute) and node.attr == "Self":
            if isinstance(node.value, ast.Name) and node.value.id == "typing":
                found.append("typing.Self")
    return found


def test_the_files_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in FILES}
    assert {"src/orecalc/eigengroup.py", "tests/test_py310_floor.py", "perfbench/run.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_keeps_the_python_3_10_floor(path):
    assert floor_violations(path.read_text(encoding="utf-8"), str(path)) == []


def test_the_floor_check_catches_3_11_code():
    with pytest.raises(SyntaxError):
        floor_violations("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert floor_violations("import tomllib") == ["import tomllib"]
    assert floor_violations("from tomllib import loads") == ["from tomllib import"]
    assert floor_violations("from typing import Self") == ["from typing import Self"]
    assert floor_violations("import typing\nx: typing.Self") == ["typing.Self"]
    assert floor_violations("from typing import Optional\nimport json") == []
