import importlib

import pytest


@pytest.mark.parametrize("module", ["autoduct", "autoduct.hpo", "autoduct.agents"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_retired_per_row_names_are_not_exported():
    import autoduct
    import autoduct.hpo

    assert "aggregate" not in autoduct.__all__
    assert not hasattr(autoduct, "aggregate")
    assert "expected_improvement" not in autoduct.hpo.__all__
    assert not hasattr(autoduct.hpo, "expected_improvement")
