"""Guard on the public names: every name in an `__all__` resolves, and the
package re-exports the very objects its modules export."""

import importlib

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
