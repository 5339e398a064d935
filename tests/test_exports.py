import importlib

import pytest


@pytest.mark.parametrize("module", ["qsymp", "qsymp.anticodes", "qsymp.invariants", "qsymp.enumerators"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
