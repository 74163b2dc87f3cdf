import doctest
import importlib
import pkgutil

import cfk


def test_module_doctests():
    # every module of the package except the entry point, which runs the CLI on import
    names = ["cfk"] + [
        f"cfk.{m.name}" for m in pkgutil.iter_modules(cfk.__path__) if m.name != "__main__"
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert {"cfk.builders", "cfk.regions"} <= set(names)
    assert attempted >= 5
