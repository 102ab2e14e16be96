"""Every module's `__all__` names only what the module defines, the
package exports exactly those lists, and the README's library example runs."""
import importlib
import re
from pathlib import Path

import pytest

import exitgumbel

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["distributions", "errors", "evt", "exitsim", "residual", "stats"]  # the package's import order


@pytest.mark.parametrize("module", ["distributions", "stats", "evt", "exitsim", "residual"])
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from exitgumbel.{module} import *", namespace)


def test_package_all_is_the_modules_lists():
    lists = [importlib.import_module(f"exitgumbel.{m}").__all__ for m in MODULES]
    assert exitgumbel.__all__ == [name for names in lists for name in names]
    assert len(set(exitgumbel.__all__)) == len(exitgumbel.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from exitgumbel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(exitgumbel.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_exports_are_the_home_modules_objects(module):
    home = importlib.import_module(f"exitgumbel.{module}")
    for name in home.__all__:
        assert getattr(exitgumbel, name) is getattr(home, name), name


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
