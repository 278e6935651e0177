"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdisk"


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so no guard may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")), SRC
    assert found == []
