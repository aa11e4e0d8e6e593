"""A ratchet on the package's settable values, and a check of the same
modules' exported names.

A settable value is a parameter with a default, or a dataclass field, of a
function, method or dataclass defined in one of the modules below; the
``__init__`` a dataclass generates is not counted again.  A change that adds
or removes a knob changes the number pinned here, so it shows in its diff.
"""

import dataclasses
import importlib
import inspect

import pytest

MODULES = ("stable", "wavelet", "process", "coeffs", "estimators", "bounds", "harness", "cli")


def _defaults(fn) -> int:
    params = inspect.signature(fn).parameters.values()
    return sum(p.default is not inspect.Parameter.empty for p in params)


def settable_values() -> int:
    total = 0
    for name in MODULES:
        mod = importlib.import_module("lmsmlab." + name)
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                total += _defaults(obj)
            elif inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                if is_dc:
                    total += len(dataclasses.fields(obj))
                for key, attr in vars(obj).items():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    elif isinstance(attr, property):
                        attr = attr.fget
                    if inspect.isfunction(attr) and not (is_dc and key == "__init__"):
                        total += _defaults(attr)
    return total


def test_settable_value_count():
    assert settable_values() == 68


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a removed name left in __all__ would break only `from module import *`
    mod = importlib.import_module("lmsmlab." + name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [key for key in exported if not hasattr(mod, key)] == []
