"""Every name that src/socave defines is reached by a run, the benchmark or
the public API: each module-level function, class and constant, and each
method whose name is not a dunder, is

- exported by socave/__init__.py, or
- named by some file of src/ or bench/ outside its own definition, as a
  name, an attribute or an identifier string (bench/layers.py traces
  functions by their names as strings), or
- named by pyproject.toml (the console script's cli.run), or
- a method that overrides one of a base class, which the base's own code
  calls (argparse calls _Parser.error).

A name that only the tests reach is not part of what the package does: it
goes, and the tests keep their own copy of it if they need one.

Each default of a parameter of a function or method of src/socave is
reached in the same sense: some call in src/ or bench/ leaves that
parameter out, or socave/__init__.py exports the function, or the method's
class, as public API. Calls are matched by name (a name or an attribute),
and a call through *args or **kwargs passes every parameter. A default that
only the tests leave out goes, and the tests pass the value."""

import ast
import importlib
import re
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "socave"
BENCH = ROOT / "bench"
PYPROJECT = ROOT / "pyproject.toml"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualified name, name, node, class or None) of each module-level
    function, class and constant of tree and each non-dunder method of its
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item, node


def references(tree: ast.AST) -> Counter:
    """How often tree names each identifier: as a name read or bound in an
    expression, an attribute, or a string constant that is an identifier.
    A def, a class statement and an import are not references."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


def _exports(tree: ast.Module) -> set[str]:
    """The names a package's __init__.py imports at its top level."""
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _overrides(module: str, cls: ast.ClassDef, name: str) -> bool:
    """True if a base class of cls, a class of socave.module, has name."""
    if not cls.bases:
        return False
    klass = getattr(importlib.import_module(f"socave.{module}"), cls.name)
    return any(name in vars(base) for base in klass.__mro__[1:])


def _parse(src: Path, bench: Path) -> dict:
    return {path: ast.parse(path.read_text()) for path in [*src.glob("*.py"), *bench.glob("*.py")]}


def unreached(src: Path = SRC, bench: Path = BENCH):
    """"module.qualified name" of each definition of src that nothing above
    reaches, sorted."""
    trees = _parse(src, bench)
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    exported = _exports(trees[src / "__init__.py"])
    # entry points, "socave.<module>:<name>"
    configured = {".".join(m) for m in re.findall(r"\bsocave\.(\w+):(\w+)", PYPROJECT.read_text())}
    found = []
    for path in sorted(src.glob("*.py")):
        for qualname, name, node, cls in definitions(trees[path]):
            outside = everywhere[name] - references(node)[name]
            if (_is_dunder(name) or name in exported or outside > 0
                    or f"{path.stem}.{name}" in configured
                    or cls is not None and _overrides(path.stem, cls, name)):
                continue
            found.append(f"{path.stem}.{qualname}")
    return sorted(found)


def _defaults(func: ast.FunctionDef) -> list[str]:
    """The parameters of func that have a default."""
    positional = func.args.posonlyargs + func.args.args
    keyword = [arg for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
               if default is not None]
    return [arg.arg for arg in positional[len(positional) - len(func.args.defaults):] + keyword]


def _leaves_out(call: ast.Call, func: ast.FunctionDef, method: bool, param: str) -> bool:
    """True if call, a call of func, passes no value for param. A call
    through *args or **kwargs passes every parameter, and a method's first
    parameter is bound, not passed."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(keyword.arg is None for keyword in call.keywords)):
        return False
    positional = [arg.arg for arg in func.args.posonlyargs + func.args.args][method:]
    return param not in {*positional[:len(call.args)], *(k.arg for k in call.keywords)}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unreached_defaults(src: Path = SRC, bench: Path = BENCH):
    """"module.qualified name(parameter)" of each default of src that nothing
    above reaches, sorted."""
    trees = _parse(src, bench)
    exported = _exports(trees[src / "__init__.py"])
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[_callee(node)].append(node)
    found = []
    for path in sorted(src.glob("*.py")):
        for qualname, name, node, cls in definitions(trees[path]):
            if not isinstance(node, ast.FunctionDef) or (cls or node).name in exported:
                continue
            for param in _defaults(node):
                if not any(_leaves_out(call, node, cls is not None, param)
                           for call in calls[name]):
                    found.append(f"{path.stem}.{qualname}({param})")
    return sorted(found)


def test_every_name_in_src_is_reached():
    assert unreached() == []


def test_every_default_in_src_is_reached():
    assert unreached_defaults() == []


@pytest.fixture
def tree_with(tmp_path):
    """A copy of src/ and bench/ with extra source appended to one module."""
    def make(module: str, extra: str) -> Path:
        src, bench = tmp_path / "src", tmp_path / "bench"
        for source, copy in ((SRC, src), (BENCH, bench)):
            copy.mkdir()
            for path in source.glob("*.py"):
                (copy / path.name).write_text(path.read_text())
        (src / f"{module}.py").write_text((src / f"{module}.py").read_text() + extra)
        return tmp_path
    return make


@pytest.mark.parametrize("module, extra, names", [
    ("experiments", "\ndef orphan(x):\n    return orphan(x - 1)\n", ["experiments.orphan"]),
    ("soc", "\nORPHAN_LIMIT = 3\n", ["soc.ORPHAN_LIMIT"]),
    ("linalg", "\nclass Orphan:\n    def make(self):\n        return Orphan()\n",
     ["linalg.Orphan", "linalg.Orphan.make"]),
    ("soc", "\ndef _orphan_slices(cone):\n    return cone.blocks\n", ["soc._orphan_slices"]),
], ids=["recursive function", "constant", "class and method", "private function"])
def test_an_unreached_definition_is_found(tree_with, module, extra, names):
    root = tree_with(module, extra)
    assert unreached(root / "src", root / "bench") == sorted(unreached() + names)


def test_a_name_reached_only_as_an_identifier_string_is_reached(tree_with):
    root = tree_with("reporting", "\ndef traced():\n    pass\n")
    (root / "bench" / "probe.py").write_text('PROBES = [("reporting", "traced")]\n')
    assert unreached(root / "src", root / "bench") == unreached()


def test_a_method_reached_only_through_its_base_class_is_reached():
    # argparse calls error on a usage error; no file of src/ names it
    tree = ast.parse((SRC / "cli.py").read_text())
    [parser] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Parser"]
    assert references(tree)["error"] == 0
    assert _overrides("cli", parser, "error")


@pytest.mark.parametrize("module, extra, names", [
    ("experiments", "\ndef _scaled(x, scale=2.0):\n    return x * scale\n\n\n"
     "SCALED = _scaled(1.0, 3.0)\n", ["experiments._scaled(scale)"]),
    ("experiments", "\ndef _shifted(x, *, by=1.0):\n    return x + by\n\n\n"
     "SHIFTED = _shifted(1.0, by=2.0)\n", ["experiments._shifted(by)"]),
    ("linalg", "\nclass _Walk:\n    def step(self, size=1.0):\n        return size\n\n\n"
     "STEP = _Walk().step(2.0)\n", ["linalg._Walk.step(size)"]),
], ids=["positional", "keyword-only", "method"])
def test_an_unreached_default_is_found(tree_with, module, extra, names):
    root = tree_with(module, extra)
    assert unreached_defaults(root / "src", root / "bench") == sorted(unreached_defaults() + names)


def test_a_default_left_out_only_by_a_bench_call_is_reached(tree_with):
    root = tree_with("experiments", "\ndef _scaled(x, scale=2.0):\n    return x * scale\n\n\n"
                                    "SCALED = _scaled(1.0, 3.0)\n")
    (root / "bench" / "probe.py").write_text(
        "from socave.experiments import _scaled\n\nprint(_scaled(1.0))\n")
    assert unreached_defaults(root / "src", root / "bench") == unreached_defaults()


@pytest.mark.parametrize("call", ["_scaled(*[1.0])", "_scaled(**{'x': 1.0})"])
def test_a_call_through_args_or_kwargs_reaches_no_default(tree_with, call):
    root = tree_with("experiments", "\ndef _scaled(x, scale=2.0):\n    return x * scale\n\n\n"
                                    f"SCALED = {call}\n")
    assert unreached_defaults(root / "src", root / "bench") == sorted(
        unreached_defaults() + ["experiments._scaled(scale)"])
