"""The package's top level is the library API that README documents: no more,
no less, so re-exports cannot creep back and README cannot drift."""

import ast
import inspect
import re
from pathlib import Path

import patchsim

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_library_names() -> set[str]:
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "patchsim"
        for alias in node.names
    }


def test_package_exports_exactly_the_readme_library_names():
    documented = _readme_library_names()
    exported = {name for name, value in vars(patchsim).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert documented
    assert exported == documented
    for name in documented:
        assert getattr(patchsim, name).__module__.startswith("patchsim."), name
