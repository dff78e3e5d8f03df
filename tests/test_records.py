"""The package's records are plain NamedTuples: importing `cellcall` runs no
`dataclasses` machinery, which would build and exec each record's methods."""

import dataclasses
import importlib
import inspect
import pkgutil

import cellcall


def test_no_class_in_the_package_is_a_dataclass():
    names = [f"cellcall.{info.name}" for info in pkgutil.iter_modules(cellcall.__path__)]
    assert "cellcall.cli" in names and "cellcall.online" in names
    for name in names:
        module = importlib.import_module(name)
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == name]
        assert classes, name
        assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == [], name
