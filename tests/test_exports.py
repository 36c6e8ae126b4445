"""Guard on the public names: every name in an `__all__` resolves, and the
package re-exports the very objects its modules export."""

import importlib
import os
import subprocess
import sys

import pytest

import canadaday

SUBMODULES = ["cli", "exact_linalg", "lemmas", "lgv", "matchings", "minor_sums", "peakon"]


@pytest.mark.parametrize("name", ["canadaday", *(f"canadaday.{m}" for m in SUBMODULES)])
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
    if mod is not canadaday:
        return
    homes = [importlib.import_module(f"canadaday.{m}") for m in SUBMODULES]
    for attr in mod.__all__:
        exporters = [home for home in homes if attr in home.__all__]
        assert len(exporters) == 1, (attr, exporters)
        assert getattr(exporters[0], attr) is getattr(mod, attr), attr


def test_star_import_binds_each_name_to_its_home_modules_object():
    namespace = {}
    exec("from canadaday import *", namespace)
    for attr in canadaday.__all__:
        (home,) = [m for m in SUBMODULES if attr in importlib.import_module(f"canadaday.{m}").__all__]
        assert namespace[attr] is getattr(importlib.import_module(f"canadaday.{home}"), attr), attr


def test_dir_lists_every_public_name_and_submodule():
    assert set(canadaday.__all__) | set(SUBMODULES) <= set(dir(canadaday))


def test_unknown_attribute_is_named_in_the_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        canadaday.no_such_name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    assert getattr(canadaday, name) is importlib.import_module(f"canadaday.{name}")


def test_a_fresh_package_loads_its_modules_on_first_use():
    # In this process every module is loaded already; a child starts empty.
    child = (
        "import sys, canadaday\n"
        "print(sorted(m for m in sys.modules if m.startswith('canadaday')))\n"
        "from canadaday import *\n"
        f"print(all(getattr(canadaday, m).__name__ == 'canadaday.' + m for m in {SUBMODULES!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["['canadaday']", "True"]
