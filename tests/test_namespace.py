"""The package namespace: ``tschirn.__all__`` and the names that
``tschirn/__init__.py`` imports are the same list."""

import ast
from pathlib import Path

import tschirn


def _imported_public_names() -> list:
    tree = ast.parse(Path(tschirn.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_all_names_resolve():
    assert len(set(tschirn.__all__)) == len(tschirn.__all__)
    for name in tschirn.__all__:
        assert getattr(tschirn, name) is not None, name


def test_star_import_runs():
    namespace = {}
    exec("from tschirn import *", namespace)
    assert set(tschirn.__all__) <= set(namespace)


def test_every_imported_public_name_is_listed():
    imported = _imported_public_names()
    assert imported
    assert sorted(imported) == sorted(tschirn.__all__)
