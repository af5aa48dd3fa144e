"""Each module's ``__all__`` names exactly the public functions and classes
that the module defines, so ``from twosfgl.<module> import *`` and the API
the docs describe do not drift from the code."""

import importlib
import inspect
import pkgutil

import twosfgl


def test_all_lists_exactly_the_public_functions_and_classes():
    mismatches = {}
    for info in pkgutil.iter_modules(twosfgl.__path__):
        module = importlib.import_module(f"twosfgl.{info.name}")
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        listed = {name for name in module.__all__
                  if inspect.isfunction(getattr(module, name))
                  or inspect.isclass(getattr(module, name))}
        if listed != defined:
            mismatches[info.name] = (sorted(defined - listed), sorted(listed - defined))
    assert mismatches == {}
