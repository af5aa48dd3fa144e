"""Each module's ``__all__`` names exactly the public functions and classes
that the module defines, so ``from twosfgl.<module> import *`` and the API
the docs describe do not drift from the code, and every private function or
class is used by the package itself, not only by a test."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def test_every_private_function_and_class_is_used_by_the_package():
    defined, used = {}, set()
    for path in sorted(Path(twosfgl.__file__).parent.glob("*.py")):
        # module statements, and the statements of every class body, each
        # on its own with the names of the classes around it, so a private
        # method is checked like a function
        statements = [(statement, {None})
                      for statement in ast.parse(path.read_text(encoding="utf-8")).body]
        while statements:
            statement, owners = statements.pop()
            if (isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                    and statement.name.startswith("_")
                    and not statement.name.startswith("__")):
                owners = owners | {statement.name}
                defined[statement.name] = path.name
            read = [statement]
            if isinstance(statement, ast.ClassDef):
                statements.extend((part, owners) for part in statement.body)
                read = statement.decorator_list + statement.bases + statement.keywords
            # a name counts where code reads it, outside its own definition
            # and outside the classes that hold it
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for part in read for node in ast.walk(part)
                     if isinstance(node, (ast.Name, ast.Attribute))} - owners
    assert {name: module for name, module in defined.items()
            if name not in used} == {}
