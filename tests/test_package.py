"""The package's top level is the library API that README documents: no more,
no less, so re-exports cannot creep back and README cannot drift."""

import ast
import builtins
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import patchsim
from conftest import campaign, make_catalog, vuln
from patchsim.campaigns import build_campaign_matrix
from patchsim.catalog import Violation
from patchsim.evaluator import evaluate
from patchsim.stats import ExploitAgeSample, agresti_coull
from patchsim.strategies import Scenario, StrategyConfig, StrategyKind, build_matrix

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
        assert _module_state_writes(tree) == [], path.name


_MUTATORS = {"append", "add", "update", "setdefault", "pop", "clear"}


def _module_state_writes(tree: ast.Module) -> list[str]:
    """Writes from inside a function to a name the module assigns at its top level:
    a subscript store, or a call of a mutating method. Neither needs `global`."""
    module_names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    writes = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        local = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in ast.walk(function) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_names - local:
                writes.append(f"line {node.lineno}: {ast.unparse(node)}")
    return writes


def test_module_state_gate_sees_writes_without_global():
    source = (
        "_memo = {}\n_seen = []\nCHOICES = ('a', 'b')\n"
        "def cached(key):\n    _memo[key] = 1\n    _seen.append(key)\n    return CHOICES[0]\n"
        "def shadowed(_memo):\n    _memo[0] = 1\n"
        "def also():\n    del _memo['x']\n    _memo.setdefault('y', 2)\n"
    )
    assert _module_state_writes(ast.parse(source)) == [
        "line 5: _memo[key]",
        "line 6: _seen.append(key)",
        "line 11: _memo['x']",
        "line 12: _memo.setdefault('y', 2)",
    ]


def _span_callers(tree: ast.AST, scope: str) -> set[str]:
    """The dotted names of the functions and classes under `scope` that call `.span(`."""
    callers = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "span":
            callers.add(scope)
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        callers |= _span_callers(node, f"{scope}.{node.name}" if named else scope)
    return callers


def test_one_place_asks_span():
    # one place decides "does CVE X affect release R": every affects question reads
    # Catalog.slices, and affected_releases is kept as the matching primitive of the
    # benchmark's probe and of the test oracles
    callers = set()
    for path in sorted(Path(patchsim.__file__).parent.glob("*.py")):
        callers |= _span_callers(ast.parse(path.read_text()), path.stem)
    assert callers == {"catalog.Catalog.slices", "versions.affected_releases"}


def test_src_imports_neither_dataclasses_nor_logging():
    # starting the CLI is part of every run: dataclasses pulls in inspect and execs
    # generated methods per class, and logging would only report what Catalog.notes holds
    for path in sorted(Path(patchsim.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:  # module is None for "from . import x"
                imported.add(node.module.split(".")[0])
        assert not imported & {"dataclasses", "logging"}, path.name


def test_cli_starts_without_dataclasses_inspect_or_logging():
    code = (
        "import sys\n"
        "import patchsim.cli\n"
        "patchsim.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(patchsim.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _frozen_records() -> dict:
    """Record type name -> (one record of it, a field to assign), for each type whose fields are fixed."""
    cat = make_catalog({("acme", "app"): [("1.0", 0), ("2.0", 3)]},
                       [vuln("CVE-2010-0001", 1, 2, ("acme", "app", {"endIncluding": "1.0"}))],
                       [campaign("Alpha", 4, ["CVE-2010-0001"])], horizon_end=23)
    timeline = cat.timelines["acme", "app"]
    pc = cat.vulns["CVE-2010-0001"].affected[0]
    config = StrategyConfig(StrategyKind.IMMEDIATE)
    matrix = build_matrix(cat, config)
    [report] = evaluate(cat, [config], [Scenario.UPDATE_FIRST])
    records = [
        (timeline.releases[0], "version"), (matrix.transitions[0], "month"), (timeline, "releases"),
        (pc, "vendor"), (cat.vulns["CVE-2010-0001"], "cve_id"), (cat.campaigns[0], "start_month"),
        (Violation("x", "rule"), "detail"), (cat.horizon, "end_index"), (pc.constraint.end, "version"),
        (pc.constraint, "kind"), (config, "delay_months"), (matrix, "transitions"),
        (report.outcomes[0], "success_months"), (report, "overall"),
        (build_campaign_matrix(cat.campaigns[0], cat), "spans"), (agresti_coull(1, 2), "low"),
        (ExploitAgeSample("x", 1), "age"), (cat, "campaigns"),
    ]
    return {type(record).__name__: (record, field) for record, field in records}


@pytest.mark.parametrize("name", [
    "VersionRelease", "Transition", "ReleaseTimeline", "ProductConstraint", "VulnRecord", "CampaignRecord",
    "Violation", "Horizon", "Bound", "VersionConstraint", "StrategyConfig", "DeploymentMatrix",
    "CampaignOutcome", "EvaluationReport", "ExposureMatrix", "BinomialCI", "ExploitAgeSample",
    "Catalog",  # its cached indexes would go stale if a field changed
])
def test_records_refuse_field_assignment(name):
    record, field = _frozen_records()[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


# names that only tests and the benchmark reach; this list may only shrink
UNREFERENCED_IN_SRC = {"evaluator.probability_at", "campaigns.ExposureMatrix.cells", "versions.affected_releases"}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of each top-level function, class, method and module constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, node


def _references(tree: ast.AST) -> list[str]:
    """Every name a tree loads, reads as an attribute or imports by name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def test_every_src_definition_is_used_documented_or_the_entry_point():
    # a helper that nothing calls is dead code: a definition must be referenced somewhere in
    # src outside its own body, be a README Library name, or be the console entry point
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(patchsim.__file__).parent.glob("*.py"))}
    everywhere = Counter(name for tree in trees.values() for name in _references(tree))
    scripts = re.findall(r'^\w+ = "patchsim\.(\w+):(\w+)"$', (README.parent / "pyproject.toml").read_text(), re.M)
    entry_points = {f"{module}.{name}" for module, name in scripts}
    assert entry_points == {"cli.main"}
    unused = set()
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree, module):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = everywhere[name] - _references(node).count(name)
            if not outside and name not in _readme_library_names() and qualified not in entry_points:
                unused.add(qualified)
    assert unused == UNREFERENCED_IN_SRC
