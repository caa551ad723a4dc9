"""The package's import surface: what ``from beliefopt import *`` binds, and
no module importing a name it never uses."""

import ast
import pathlib
import types

import pytest

import beliefopt

SRC = pathlib.Path(beliefopt.__file__).resolve().parent

#: (module, name) -> why the module imports a name it does not use
KEPT_IMPORTS = {
    ("cli.py", "run_online"): "bench/layers.py wraps cli.run_online",
    ("regret.py", "step"): "bench/layers.py wraps regret.step",
}


def unused_imports(path):
    """The names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_star_import_binds_exactly_the_names_the_package_imports_from_its_modules():
    namespace = {}
    exec("from beliefopt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == beliefopt.__all__
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    # Every name imported from a submodule, and no helper of __init__ itself.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    reexported = [alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names]
    assert beliefopt.__all__ == sorted(reexported)


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")
                                          if path.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    kept = {name for (where, name) in KEPT_IMPORTS if where == module}
    assert unused_imports(SRC / module) == kept
