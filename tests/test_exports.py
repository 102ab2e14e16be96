"""Every module's `__all__` names only what the module defines."""
import pytest


@pytest.mark.parametrize("module", ["distributions", "stats", "evt", "exitsim", "residual"])
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from exitgumbel.{module} import *", namespace)
