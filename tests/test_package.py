"""The package namespace: the public names of the library modules, each
once, and no module-level import left unused."""

import ast
from pathlib import Path

import langmove
from langmove import covariates, inference, langevin, raster, rsf, seeding

LIBRARY_MODULES = (covariates, inference, langevin, raster, rsf, seeding)


def test_exports_every_public_name_of_the_library_modules_once():
    assert len(langmove.__all__) == len(set(langmove.__all__))
    assert set(langmove.__all__) == set().union(*(module.__all__ for module in LIBRARY_MODULES))
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(langmove, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from langmove import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(langmove.__all__)


def test_every_module_level_import_is_used():
    # a deletion can leave its import behind; a name read anywhere in the
    # module (an annotation included) or listed in its __all__ is used
    for path in sorted(Path(langmove.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        assert imported <= used, f"{path.name}: unused imports {sorted(imported - used)}"
