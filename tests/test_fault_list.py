"""The planted-fault list stays current: each fault's text occurs
exactly once in its file, and each catcher names a test function that
exists.  No suite runs here; tests/planted_faults.py runs them."""

import ast

import pytest

from planted_faults import FAULTS, ROOT, stale


@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault.name)
def test_fault_text_occurs_once(fault):
    assert not stale(fault)


@pytest.mark.parametrize("fault", [f for f in FAULTS if f.catcher],
                         ids=lambda fault: fault.name)
def test_catcher_names_a_test_function(fault):
    path, name = fault.catcher.split("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert name.split("[")[0] in functions
