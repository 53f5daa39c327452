"""Each public name of etac has one owner: the module whose ``__all__`` lists it.

``perfbench/tracing.py`` wraps only the functions whose ``__module__`` is the
module that lists them, so a re-export would run untraced, and a second
module listing a name is a second place to look for its definition.
"""

import importlib
import pkgutil

import etac

MODULES = [
    importlib.import_module(f"etac.{info.name}")
    for info in pkgutil.iter_modules(etac.__path__)
    if info.name != "__main__"  # importing it runs the command line
]


def test_every_module_lists_its_public_names():
    assert {m.__name__ for m in MODULES} >= {
        "etac.analysis", "etac.cli", "etac.domain", "etac.oracle", "etac.runtime",
    }
    for module in MODULES:
        assert module.__all__, module.__name__


def test_listed_names_exist_and_are_defined_where_listed():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} does not exist"
            value = getattr(module, name)
            if callable(value):
                assert value.__module__ == module.__name__, (
                    f"{module.__name__} lists {name}, defined in {value.__module__}"
                )


def test_no_name_is_listed_twice():
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in owners, f"{name} is listed by {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
