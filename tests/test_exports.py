"""Every module's `__all__` names only what the module defines, and the
README's library example runs."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", ["distributions", "stats", "evt", "exitsim", "residual"])
def test_star_import_resolves(module):
    namespace = {}
    exec(f"from exitgumbel.{module} import *", namespace)


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
