"""README.md shows the code's call signatures: each backticked
`name(a, b, ...)` whose name is a module-level function of socave and whose
arguments are all identifiers lists that function's parameters, in order."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import socave

README = Path(__file__).resolve().parent.parent / "README.md"


def _functions() -> dict:
    """Each function defined at module level in a module of socave, by name."""
    found = {}
    for info in pkgutil.iter_modules(socave.__path__):
        module = importlib.import_module(f"socave.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[name] = obj
    return found


def readme_calls(text: str, functions: dict) -> list[tuple[str, list[str]]]:
    """(name, arguments) of each backticked call in text of a function in
    functions whose arguments are all identifiers."""
    calls = []
    for name, args in re.findall(r"`([A-Za-z_]\w*)\(([^`()]*)\)`", text):
        args = [a.strip() for a in args.split(",")] if args.strip() else []
        if name in functions and all(a.isidentifier() for a in args):
            calls.append((name, args))
    return calls


FUNCTIONS = _functions()
CALLS = readme_calls(README.read_text(), FUNCTIONS)


def test_the_readme_shows_the_public_signatures():
    assert {name for name, _ in CALLS} >= {"rk23_step", "integrate_many", "read_json",
                                           "write_json", "run_paper_suite"}


@pytest.mark.parametrize("name, args", CALLS, ids=[name for name, _ in CALLS])
def test_a_readme_signature_is_the_code_s(name, args):
    assert args == list(inspect.signature(FUNCTIONS[name]).parameters)

