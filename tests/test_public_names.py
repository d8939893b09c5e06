"""Every public name of the package is used by the package itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "anomtax"


def _scan():
    used, exported = set(), {}
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
    return used, exported


USED, EXPORTED = _scan()


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_public_name_is_used_in_src(module):
    unused = [name for name in EXPORTED[module] if name not in USED]
    assert unused == []

