"""No module of the library verifies by an assert statement: python -O
compiles asserts out, and an AssertionError is not a library error, so
run_check would let it abort the report instead of recording a fail.
The library raises its own errors (g2kit.errors) instead."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src").rglob("*.py"))


def assert_lines(source: str):
    """The line of each assert statement in the source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_the_scan_sees_the_library():
    assert any(path.name == "octonions.py" for path in SCANNED)


def test_the_scan_finds_an_assert():
    source = ("def f(x):\n"
              "    assert x, 'message'\n"
              "    if x:\n"
              "        assert (x, 1)\n"
              "    return 'assert x'\n")
    assert assert_lines(source) == [2, 4]


def test_no_assert_statement_in_src():
    found = {str(path.relative_to(ROOT)): lines for path in SCANNED
             if (lines := assert_lines(path.read_text()))}
    assert found == {}
