"""Every name a module imports is read somewhere in that module, and
every public name the package defines is read somewhere it is reached.

A deletion that leaves an import behind fails here, in the package and
in the tests alike.  `from __future__` imports bind no name and are
skipped.  A public top-level function or class, or a public method of a
top-level class, must be read by name in the package, in the README's
python blocks or in the acceptance criteria; code that only its own unit
tests reach fails here.  No package module but `ordinals` reads a
notation's order key.
"""

import ast
from pathlib import Path

import pytest

from test_readme import README, _BLOCK

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "truestages").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in read]


def test_the_guard_names_an_unused_import():
    source = "import os\nfrom json import dumps, loads as load\nprint(dumps)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: load"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_defs(source: str) -> list[str]:
    """The public top-level functions and classes, and the public
    methods of those classes as `Class.method`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, kinds[:2]) and not m.name.startswith("_")]
    return out


def read_names(source: str) -> set[str]:
    """Names read as variables or attributes, and identifier strings
    such as the name given to getattr."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unreached(defining: list[str], reaching: list[str]) -> list[str]:
    read = set().union(*map(read_names, reaching))
    return [name for source in defining for name in public_defs(source)
            if name.rsplit(".", 1)[-1] not in read]


def test_the_guard_names_unreached_code():
    defining = ("def used(): pass\ndef spare(): pass\n"
                "class Box:\n    def get(self): pass\n    def put(self): pass\n"
                "    def _own(self): pass\n")
    reaching = "Box().get(getattr(Box, 'used'))\n"
    assert unreached([defining], [reaching]) == ["spare", "Box.put"]


def test_every_public_definition_is_reached():
    package = [p.read_text(encoding="utf-8") for p in PACKAGE]
    readme = _BLOCK.findall(README.read_text(encoding="utf-8"))
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert unreached(package, package + readme + [acceptance]) == []


def key_reads(source: str) -> list[int]:
    """The lines that read a notation's private order key, `._key`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_key"]


def test_the_guard_names_key_reads():
    assert key_reads("a = nu._key\nb = min(xs, key=k)\nc = s._key < t._key\n") == [1, 3, 3]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "ordinals.py"],
                         ids=lambda p: p.name)
def test_only_ordinals_reads_the_order_key(path):
    # Notation order is `<` and its kin; the key behind it stays in ordinals.
    assert key_reads(path.read_text(encoding="utf-8")) == []
