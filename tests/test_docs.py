"""README references resolve: every backticked ``module.name`` in
README.md whose module is an lcplab module (with or without the
``lcplab.`` prefix) names an attribute of that module.  Wildcard
mentions such as ``exact.int_*`` name a family and are skipped."""

import importlib
import pkgutil
import re
from pathlib import Path

import lcplab

README = Path(__file__).parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(lcplab.__path__)}
REFERENCE = re.compile(r"`(?:lcplab\.)?([a-z_]+)\.([A-Za-z_][A-Za-z0-9_]*\*?)`")


def readme_references() -> list:
    found = set(REFERENCE.findall(README.read_text(encoding="utf-8")))
    return sorted((mod, name) for mod, name in found if mod in MODULES)


def test_readme_references_resolve():
    refs = readme_references()
    missing = [
        f"{mod}.{name}"
        for mod, name in refs
        if not name.endswith("*") and not hasattr(importlib.import_module(f"lcplab.{mod}"), name)
    ]
    assert refs and missing == []
