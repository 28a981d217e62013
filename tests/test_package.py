"""The package namespace: the public names of the library modules, each once."""

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
