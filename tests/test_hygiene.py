"""Static checks on the package sources, made with the standard library's ast.

Every module in src/gspmax, tests/ and bench/ must use each of its top-level
imports. Every module in src/gspmax must also refer to each of its top-level
private names, and each of its top-level public names must be read somewhere
in src/, tests/ or bench/, so that a removal leaves no orphaned import,
helper or API behind. Inside src/ alone, every public name must be read too,
except the few listed in TEST_REFERENCES, so that code only the tests reach
stays visible.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gspmax"
MODULES = sorted(SRC.glob("*.py"), key=lambda path: path.name)
READERS = [path for part in ("src", "tests", "bench") for path in (ROOT / part).rglob("*.py")]
# Public names that nothing in src/ reads: references kept for the tests
# only. A name leaves the set when the program reads it or when it is deleted.
TEST_REFERENCES = {"hensel_lift_factorization", "conjecture_holds"}
# src modules are named by file name, the test and bench modules from the root
IMPORTERS = {path.name: path for path in MODULES} | {
    str(path.relative_to(ROOT)): path
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
}


def _read_names(tree: ast.Module) -> set[str]:
    """Every bare name the module reads, including the roots of dotted names."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports (other than __future__) that are never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = _read_names(tree)
    return [name for name in bound if name not in read]


def _defined_names(tree: ast.Module) -> list[str]:
    """Names bound by top-level functions, classes and assignments."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    return defined


def unreferenced_private_names(source: str) -> list[str]:
    """Top-level _private functions, classes and assignments never read in the module."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [
        name
        for name in _defined_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def names_read(sources: list[str]) -> set[str]:
    """Every name the sources read: Name loads, attributes and string constants.

    String constants count, so a name looked up with getattr from a table of
    strings is read.
    """
    read = set()
    for tree in map(ast.parse, sources):
        read |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread_public_names(source: str, read: set[str]) -> list[str]:
    """Top-level public names of a module that are not in the read set."""
    return [
        name
        for name in _defined_names(ast.parse(source))
        if not name.startswith("_") and name not in read
    ]


def test_the_checks_find_planted_leftovers():
    assert {"cli.py", "construct.py", "verify.py"} <= {path.name for path in MODULES}
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from dataclasses import dataclass, field\n"
        "_LIMIT = 3\n"
        "_USED = 4\n"
        "def _helper():\n"
        "    return sys.argv, _USED\n"
        "@dataclass\n"
        "class _Record:\n"
        "    x: int\n"
    )
    assert unused_imports(source) == ["os", "field"]
    assert unreferenced_private_names(source) == ["_LIMIT", "_helper", "_Record"]


def test_the_public_name_check_finds_a_planted_unread_name():
    module = (
        "LIMIT = 3\n"
        "def helper():\n"
        "    return LIMIT\n"
        "def orphan():\n"
        "    pass\n"
        "class Record:\n"
        "    pass\n"
        "TABLE = {}\n"
    )
    user = "import mod\nmod.helper()\nNAMES = ('Record',)\n"
    assert unread_public_names(module, names_read([module, user])) == ["orphan", "TABLE"]


@pytest.mark.parametrize("name", IMPORTERS)
def test_no_unused_top_level_import(name):
    assert unused_imports(IMPORTERS[name].read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_is_referenced(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8")) == []


def test_every_public_name_is_read():
    read = names_read([path.read_text(encoding="utf-8") for path in READERS])
    unread = {
        path.name: names
        for path in MODULES
        if (names := unread_public_names(path.read_text(encoding="utf-8"), read))
    }
    assert unread == {}


def test_only_the_test_references_are_unread_by_the_program():
    read = names_read([path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")])
    unread = {
        name
        for path in MODULES
        for name in unread_public_names(path.read_text(encoding="utf-8"), read)
    }
    assert unread == TEST_REFERENCES
