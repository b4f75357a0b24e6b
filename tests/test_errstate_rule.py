"""linalg.silent is the package's one spelling of its overflow policy: no
function of src/socave names np.errstate (or np.seterr) but silent itself,
so the rule cannot fork into a second policy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "socave"
POLICY_NAMES = {"errstate", "seterr"}


def policy_sites(source: str) -> list[str]:
    """Each name of a floating-point error policy in source outside a
    function named silent, as "line: name"."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "silent":
            return
        if isinstance(node, ast.Attribute) and node.attr in POLICY_NAMES:
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id in POLICY_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in POLICY_NAMES:
            found.append(f"import {node.name}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_errstate_outside_silent(path):
    assert policy_sites(path.read_text()) == []


def test_silent_is_in_linalg_and_spells_the_policy():
    tree = ast.parse((SRC / "linalg.py").read_text())
    [silent] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "silent"]
    assert any(isinstance(node, ast.Attribute) and node.attr == "errstate"
               for node in ast.walk(silent))


@pytest.mark.parametrize("source", [
    "@np.errstate(over='ignore')\ndef f(x):\n    return x",
    "def f(x):\n    with np.errstate(invalid='ignore'):\n        return x",
    "def f(x):\n    with numpy.errstate(all='ignore'):\n        return x",
    "def f(x):\n    np.seterr(all='ignore')",
    "from numpy import errstate",
])
def test_each_spelling_is_found(source):
    assert len(policy_sites(source)) == 1
