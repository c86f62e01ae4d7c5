"""Witness fixture corpus: the catalog's witness data, one definition
document per sampled catalog row and witness, shipped with the package.
The ``LCPLAB_FIXTURES`` environment variable names a directory that
replaces it, for the library and the command line alike.

A row's witnesses are the files ``<slug>_w0.lcp``, ``<slug>_w1.lcp``, ...
up to the first one missing.  Each serialises (algebra, metric, theta,
maximal flat space); its label line ``name | params | dim N`` names the
row and the flat dimension N the witness realises.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from . import exact as ex
from .algebra import Metric, OneForm
from .docfmt import parse_file
from .errors import DocumentError


class FixtureWitness(NamedTuple):
    metric: Metric
    theta: OneForm
    expected_dim: int


def _params_str(params: dict) -> str:
    if not params:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def _slug(name: str, params: dict) -> str:
    s = name + ("_" + _params_str(params) if params else "")
    for a, b in (
        ("_{", ""), ("}", ""), ("^", ""), ("{", ""), ("(", ""), (")", ""),
        (",", "_"), ("=", ""), ("/", "o"), ("+", "p"), ("-", "m"), (" ", ""),
    ):
        s = s.replace(a, b)
    return s


def fixture_dir() -> Path:
    env = os.environ.get("LCPLAB_FIXTURES", "").strip()
    if env:
        return Path(env)
    return Path(resources.files("lcplab") / "fixtures")


def fixture_name(sample, windex: int) -> str:
    return f"{_slug(sample.name, sample.params)}_w{windex}.lcp"


def parse_label(label) -> tuple:
    """(name, params string, expected flat dimension) of a fixture label;
    N is read by ``exact.natural``, the one grammar of integers in text."""
    parts = [p.strip() for p in (label or "").split("|")]
    key, _, dim = parts[-1].partition(" ")
    if len(parts) != 3 or key != "dim":
        raise DocumentError(f"fixture label {label!r} is not 'name | params | dim N'")
    try:
        return parts[0], parts[1], ex.natural(dim, "dimension")
    except ValueError as e:
        raise DocumentError(f"fixture label: {e}") from None


def witness_specs_from_fixtures(sample) -> list:
    """The witnesses of one sampled row (anything with ``name`` and
    ``params``), read from the corpus in ``fixture_dir()``."""
    base = fixture_dir()
    out = []
    while (path := base / fixture_name(sample, len(out))).exists():
        doc = parse_file(path)
        name, params, expected = parse_label(doc.label)
        if (name, params) != (sample.name, _params_str(sample.params)):
            raise DocumentError(f"{path} is labelled for {name} at {params}")
        theta = doc.one_form()
        if theta is None:
            raise DocumentError(f"{path} has no theta directive")
        out.append(FixtureWitness(doc.metric(), theta, expected))
    if not out:
        raise DocumentError(f"no witness fixture {base / fixture_name(sample, 0)}")
    return out
