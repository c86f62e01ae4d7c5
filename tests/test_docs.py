"""README holds: every backticked ``module.name`` in README.md whose
module is an lcplab module (with or without the ``lcplab.`` prefix)
names an attribute of that module, and the quick tour runs and gives the
results its comments state.  Wildcard mentions such as ``exact.int_*``
name a family and are skipped.  Its table of lattice rules names the
entries of ``lattice.RULES``, in order."""

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


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("A quick tour:")
    return text[text.index("```python\n", start) + len("```python\n") : text.index("```\n", start + 1)]


def test_readme_quick_tour_gives_its_commented_results():
    # each commented line states the value of its expression, or of the
    # name it assigns; arrays are compared as nested lists
    space, checked = {}, 0
    for line in quick_tour().splitlines():
        code, _, want = line.partition("  # ")
        exec(code, space)
        if want:
            target = code.split(" = ")[0] if " = " in code else code
            got = eval(target, space)
            assert str(got.tolist() if hasattr(got, "tolist") else got) == want.strip(), code
            checked += 1
    assert checked == 4


def readme_rule_table() -> list:
    """The rule names of the README's table of lattice rules, in order: the
    first backticked word of each row after its ``| rule |`` header."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| rule | answers | rests on |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([a-z0-9_]+)` \|", line).group(1))
    return rows


def test_readme_lists_the_lattice_rules_in_order():
    from lcplab.lattice import RULES

    assert readme_rule_table() == [name for name, _ in RULES]
