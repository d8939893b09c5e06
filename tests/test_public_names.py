"""Every public name of the package is used by the package itself, and
every exception class it defines is caught by name in it."""

import ast
import builtins
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "anomtax"


def _names(node) -> set:
    """Every name and attribute name in the expression ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _scan():
    used, exported, caught, bases = set(), {}, set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported[path.stem] = ast.literal_eval(node.value)
            elif isinstance(node, ast.ExceptHandler) and node.type:
                caught |= _names(node.type)
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = set().union(*map(_names, node.bases))
    return used, exported, caught, bases


USED, EXPORTED, CAUGHT, BASES = _scan()


def _exception_classes() -> set:
    """The classes defined in the package that derive from an exception,
    a builtin one or one of its own."""
    exceptions = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    while True:
        more = {name for name, names in BASES.items()
                if names & exceptions} - exceptions
        if not more:
            return exceptions & BASES.keys()
        exceptions |= more


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_public_name_is_used_in_src(module):
    unused = [name for name in EXPORTED[module] if name not in USED]
    assert unused == []


def test_every_exception_class_is_caught_by_name_in_src():
    # a class that no handler names is told apart only by tests; the CLI
    # reports every other error through the handler for Exception
    defined = _exception_classes()
    assert defined  # the rule has classes to check
    assert sorted(defined - CAUGHT) == []
