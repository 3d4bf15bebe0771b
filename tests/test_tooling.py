"""Source-level checks on the etfkit package."""

import ast
from pathlib import Path

import etfkit

SRC = Path(etfkit.__file__).resolve().parent


def test_no_assert_statements():
    # a check that guards a certificate must not vanish under `python -O`
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in etfkit: {found}"
