"""The lazy ``_API`` re-export tables of the package ``__init__``\\ s.

Importing a package loads none of the modules its table names, so a
typo in a table no longer fails at import time; these tests resolve
every entry instead.
"""

import importlib

import pytest

PACKAGES = ("repro", "repro.runner", "repro.obs", "repro.profiling")


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_entry_resolves_to_its_modules_object(package):
    for name, module_name in package._API.items():
        module = importlib.import_module(module_name)
        assert getattr(package, name) is getattr(module, name), name


def test_all_and_dir_list_the_table(package):
    # ``repro`` also exports the few names it imports eagerly.
    eager = ({"GB", "GIB", "PAGE_SIZE", "ReproError", "__version__"}
             if package.__name__ == "repro" else set())
    assert sorted(package.__all__) == sorted(set(package._API) | eager)
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_attribute_error_naming_the_package(package):
    with pytest.raises(AttributeError, match=repr(package.__name__)):
        package.no_such_export
    assert not hasattr(package, "no_such_export")
