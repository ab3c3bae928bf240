"""Public names: every ``__all__`` entry exists, and the package re-exports
only names its source modules list in ``__all__``. The package version is
the one ``pyproject.toml`` declares."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import symclone

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(symclone.__path__) if not info.name.startswith("_")
)


def test_the_package_has_modules():
    assert {"bosonic", "cli", "cloning", "experiment", "hilbert"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"symclone.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _reexports():
    """(source module, name) for each ``from .module import name`` in the
    package ``__init__``."""
    tree = ast.parse(Path(symclone.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_reexports_only_names_in_the_source_all():
    reexports = _reexports()
    assert reexports  # the parse found the import block
    stale = [
        (source, name)
        for source, name in reexports
        if name not in importlib.import_module(f"symclone.{source}").__all__
    ]
    assert stale == []


def test_version_agrees_in_pyproject_and_the_package():
    # the version is written by hand in both places; the JSON summary
    # records the package's
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == symclone.__version__
