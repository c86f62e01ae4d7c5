"""Every name a module imports is read in that module.

An import that nothing reads hides which modules depend on which, and a
test module that imports a name it never calls looks as if it tested
it.  The scan is by ``ast``: each name an ``import`` or ``from ...
import`` binds must occur as a loaded name somewhere in the module.
Re-exports in ``__init__.py`` are exempt, as are ``__future__`` flags.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in (ROOT / "src" / "lcplab", ROOT / "tests") for p in d.rglob("*.py") if p.name != "__init__.py"
)


def unread_imports(source: str) -> list:
    """The names bound by imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import():
    source = "import os\nfrom math import gcd, lcm\nimport numpy as np\nprint(gcd, np.zeros)\n"
    assert unread_imports(source) == [(1, "os"), (2, "lcm")]
