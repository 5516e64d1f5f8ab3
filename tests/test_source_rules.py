"""Engine-wide source rules: no runtime `assert` (python -O strips it) and no
`while` loop (each loop is bounded, so it converges or raises a typed error)."""
import ast
from pathlib import Path

import pytest

import sekit

MODULES = sorted(Path(sekit.__file__).parent.glob("*.py"))


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert"
        elif isinstance(node, ast.While):
            yield f"{path.name}:{node.lineno}: while"


def test_modules_found():
    assert {"core.py", "mdp.py", "solver.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_unbounded_loop(path):
    assert list(_violations(path)) == []
