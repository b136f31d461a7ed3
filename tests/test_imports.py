"""Every module of the library, its tests and its demos reads each name it
imports.  An __init__.py imports to re-export and is left out, as are
from __future__ imports; perfbench is not scanned."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if path.name != "__init__.py")


def unread_imports(source: str):
    """(line, name) for each name an import binds and no expression of the
    module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_sees_the_three_folders():
    assert {path.relative_to(ROOT).parts[0] for path in SCANNED} == {
        "src", "tests", "demos"}


def test_the_scan_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from json import dumps, loads as parse\n"
              "print(os.sep, parse('1'))\n")
    assert unread_imports(source) == [(2, "osp"), (3, "dumps")]


def test_every_imported_name_is_read():
    unread = {str(path.relative_to(ROOT)): names for path in SCANNED
              if (names := unread_imports(path.read_text()))}
    assert unread == {}
