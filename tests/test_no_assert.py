"""Internal certificates must raise CertificationError, not assert: `python -O`
strips assert statements, and a certificate that vanishes certifies nothing."""

import ast
from pathlib import Path

import shellbound

SOURCES = sorted(Path(shellbound.__file__).parent.glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "design.py", "exactpoly.py", "filter.py", "verify.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
