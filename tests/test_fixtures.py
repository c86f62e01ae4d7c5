"""The fixture corpus is the catalog's witness data: every file belongs to
a sampled row, serialises that row's algebra with its maximal flat
space, and realises the flat dimension its label names."""

import shutil
from pathlib import Path

import pytest

from lcplab.detect import classify, maximal_flat_parallel
from lcplab.docfmt import parse_file
from lcplab.errors import DocumentError
from lcplab.fixtures import (
    _params_str,
    fixture_dir,
    fixture_name,
    parse_label,
    witness_specs_from_fixtures,
)
from lcplab.lowdim import SAMPLES, table_algebra
from support import FIXTURES


def test_every_fixture_matches_its_row():
    rows = {(s.name, _params_str(s.params)): s for s in SAMPLES}
    seen = set()
    for path in sorted(FIXTURES.glob("*.lcp")):
        doc = parse_file(path)
        name, params, expected = parse_label(doc.label)
        assert (name, params) in rows, path.name
        sample = rows[(name, params)]
        k = int(path.stem.rsplit("_w", 1)[1])
        assert path.name == fixture_name(sample, k)
        L = table_algebra(sample.name, sample.params)
        G, theta = doc.metric(), doc.one_form()
        assert doc.algebra() == L, path.name
        assert doc.flat() == maximal_flat_parallel(L, G, theta), path.name
        assert classify(L, G, theta).flat_dim == expected, path.name
        seen.add((name, params))
    assert seen == set(rows)


def test_committed_corpus_is_complete(monkeypatch):
    monkeypatch.setenv("LCPLAB_FIXTURES", str(FIXTURES))
    loaded = sum(len(witness_specs_from_fixtures(s)) for s in SAMPLES)
    assert loaded == len(list(FIXTURES.glob("*.lcp")))


def test_loaded_witnesses_classify_as_labelled(monkeypatch):
    # spot-check a couple of rows through the loader end to end
    monkeypatch.setenv("LCPLAB_FIXTURES", str(FIXTURES))
    for sample in SAMPLES[:3]:
        L = table_algebra(sample.name, sample.params)
        for w in witness_specs_from_fixtures(sample):
            assert classify(L, w.metric, w.theta).flat_dim == w.expected_dim


def test_loader_rejects_missing_and_mislabelled(tmp_path, monkeypatch):
    monkeypatch.setenv("LCPLAB_FIXTURES", str(tmp_path))
    with pytest.raises(DocumentError):
        witness_specs_from_fixtures(SAMPLES[0])
    # the first row's witness stored under the second row's name
    shutil.copy(FIXTURES / fixture_name(SAMPLES[0], 0), tmp_path / fixture_name(SAMPLES[1], 0))
    with pytest.raises(DocumentError):
        witness_specs_from_fixtures(SAMPLES[1])


def test_fixture_dir_default_is_packaged():
    assert fixture_dir().name == "fixtures"
    assert (fixture_dir() / fixture_name(SAMPLES[0], 0)).exists()


def test_every_package_data_glob_matches_a_file():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).parent.parent
    config = tomllib.loads((root / "pyproject.toml").read_text())
    for package, globs in config["tool"]["setuptools"]["package-data"].items():
        for pattern in globs:
            assert list((root / "src" / package).glob(pattern)), f"{package}: {pattern}"
