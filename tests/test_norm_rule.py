"""linalg.vector_norm is the one Euclidean norm of the package, of one
vector or of a stack of them: no other function of src/socave takes ||v||
by a formula of its own (np.linalg.norm, math.hypot, or a square root of a
dot product, np.matmul included), so every norm takes math.hypot where the
sum of squares is not a normal float, as it overflows or is below
sys.float_info.min, 0 included."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "socave"
NORM_FUNCTIONS = {"np.linalg.norm", "numpy.linalg.norm", "math.hypot"}
NORM_IMPORTS = {("numpy.linalg", "norm"), ("math", "hypot")}
SQRTS = {"math.sqrt", "np.sqrt", "numpy.sqrt"}


def _dotted(node):
    """"a.b.c" of a chain of names and attributes, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _is_dot_product(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "vdot", "inner", "matmul")
            or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))


def norm_formulas(source: str) -> list[str]:
    """Each norm formula in source outside a function named vector_norm, as
    "line: formula"."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "vector_norm":
            return
        if isinstance(node, ast.Attribute) and _dotted(node) in NORM_FUNCTIONS:
            found.append(f"{node.lineno}: {_dotted(node)}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{node.lineno}: from {node.module} import {alias.name}"
                         for alias in node.names if (node.module, alias.name) in NORM_IMPORTS)
        elif (isinstance(node, ast.Call) and _dotted(node.func) in SQRTS
              and any(_is_dot_product(n) for arg in node.args for n in ast.walk(arg))):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_norm_formula_outside_vector_norm(path):
    assert norm_formulas(path.read_text()) == []


def test_vector_norm_is_in_linalg():
    tree = ast.parse((SRC / "linalg.py").read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == "vector_norm"
               for node in tree.body)


@pytest.mark.parametrize("formula", [
    "np.linalg.norm(v)", "numpy.linalg.norm(v)", "math.hypot(*v)",
    "math.sqrt(a.dot(a))", "math.sqrt(np.vdot(v, v))", "np.sqrt(np.inner(v, v))",
    "math.sqrt(d @ d)", "float(math.sqrt(v.dot(v)))",
    "np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])",
])
def test_each_formula_is_found(formula):
    assert len(norm_formulas(f"def f(a, d, v):\n    return {formula}\n")) == 1
    assert norm_formulas(f"def vector_norm(a, d, v):\n    return {formula}\n") == []


@pytest.mark.parametrize("source", ["from math import hypot", "from numpy.linalg import norm"])
def test_an_imported_norm_is_found(source):
    assert len(norm_formulas(source)) == 1


def test_a_square_root_of_a_matmul_stack_is_a_formula():
    assert len(norm_formulas("s = np.sqrt(np.matmul(t[..., None, :], t[..., :, None]))")) == 1
