"""The package's top level is the library API that README documents: no more,
no less, so re-exports cannot creep back and README cannot drift."""

import ast
import builtins
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


def test_src_modules_use_every_name_they_import():
    # deleting a caller must delete the import it needed; annotations count,
    # since they stay in the syntax tree under `from __future__ import annotations`
    for path in sorted(Path(patchsim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_src_defines_only_two_exception_types():
    # one type per exit code: DataError (1) for data, UsageError (2) for misuse;
    # a subclass that no code catches apart from its base is dead taxonomy
    bases: dict[str, list[str]] = {}  # class name -> base names, over every module
    where: dict[str, set[str]] = {}
    for path in sorted(Path(patchsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, []).extend(ast.unparse(b).split(".")[-1] for b in node.bases)
                where.setdefault(node.name, set()).add(f"{path.stem}.{node.name}")
    builtin_errors = {name for name, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}

    def is_error(name: str, seen: frozenset = frozenset()) -> bool:
        if name in builtin_errors:
            return True
        return name not in seen and any(is_error(b, seen | {name}) for b in bases.get(name, ()))

    errors = {qualified for name in bases if is_error(name) for qualified in where[name]}
    assert errors == {"months.DataError", "cli.UsageError"}


def test_src_keeps_no_cache_across_calls():
    # every cache lives on one object, such as a Catalog's cached properties or one load's
    # parse memo: the benchmark runs cli.run over and over in one process, so a cache that
    # outlived a call would time a different program and could carry one call's data into the next
    for path in sorted(Path(patchsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        from_functools = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
        }
        attributes = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools"
        }
        assert not (from_functools | attributes) & {"cache", "lru_cache"}, path.name
        assert not any(isinstance(node, ast.Global) for node in ast.walk(tree)), path.name
