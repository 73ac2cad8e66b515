"""Every import in the package is used, and names a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qccnn"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, skipping lines marked ``# noqa: F401``.

    A name counts as read when it appears as a name in the code or as a
    string in ``__all__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {alias.name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import itertools\nimport math  # noqa: F401\nfrom os import path, sep\nsep\n"
    assert _unused_imports(source) == ["line 1: itertools", "line 3: path"]


def _imported_modules(source: str) -> set[str]:
    """The top-level module of each absolute import in `source`."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


def _declared_dependencies() -> set[str]:
    """The distribution names in pyproject.toml's ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"\s*([\w.-]+)", req)[1] for req in requirements}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_declared(path):
    # An installed but undeclared package (scipy, say) would pass here and fail for users.
    allowed = set(sys.stdlib_module_names) | {"qccnn"} | _declared_dependencies()
    assert _imported_modules(path.read_text(encoding="utf-8")) - allowed == set()


def test_an_undeclared_import_is_found():
    source = "import os.path\nimport scipy.linalg\nfrom numpy import linalg\nfrom . import sim\n"
    assert _imported_modules(source) - set(sys.stdlib_module_names) == {"scipy", "numpy"}
    assert _declared_dependencies() == {"numpy"}


def _noqa_imports(source: str) -> list[str]:
    """The names a module imports on lines marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "# noqa: F401" in lines[alias.lineno - 1]]


def _span_targets() -> set[tuple[str, str]]:
    """(module, attribute) of every wrap target in perfbench/spans.py's ``TARGETS``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return {(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_unread_import_is_a_benchmark_span_target(path):
    # An import no code reads is kept only so that the benchmark can wrap it
    # in that module's namespace; any other one is dead code.
    names = _noqa_imports(path.read_text(encoding="utf-8"))
    assert {(f"qccnn.{path.stem}", name) for name in names} - _span_targets() == set()


def test_the_benchmark_only_imports_are_these():
    # Each leaves when the benchmark stops wrapping it; then this list shrinks.
    found = sorted(f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
                   for name in _noqa_imports(path.read_text(encoding="utf-8")))
    assert found == ["autodiff.run_deferred_batch", "capacity.run_deferred_batch",
                     "cli.effective_dimension_from_fims", "nn.run_deferred_batch"]


def test_a_noqa_import_and_the_span_targets_are_found():
    source = "import math  # noqa: F401\nfrom os import path, sep  # noqa: F401\nimport re\n"
    assert _noqa_imports(source) == ["math", "path", "sep"]
    assert ("qccnn.capacity", "run_deferred_batch") in _span_targets()
    assert ("qccnn.nn", "QuantumConvLayer.forward") in _span_targets()
