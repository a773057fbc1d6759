"""Lazily loaded packages are imported through the package, never a submodule.

``repro.net`` and ``repro.distributed`` load only when a run has the
hosts axis, so campaign threads can import them for the first time at
once.  Importing ``pkg.sub`` takes ``pkg.sub``'s module lock before the
package's, while the package's ``__init__`` takes them the other way
round; two threads that start from different ends deadlock (Python's
detector then hands one of them a half-initialized module).  Importing
through the package everywhere outside it (a name, or a submodule taken
from it: ``from repro.distributed import planner``) keeps one lock order.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: packages first imported from inside running work, not at start-up
LAZY_PACKAGES = ("repro.net", "repro.distributed")


def imported_modules(path):
    """``(line, module)`` for every absolute import in the file at ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name


def submodule_imports(package):
    """Sites outside ``package`` that import one of its submodules."""
    inside = SRC.joinpath(*package.split("."))
    for path in sorted(SRC.rglob("*.py")):
        if inside in path.parents:
            continue
        for line, module in imported_modules(path):
            if module.startswith(package + "."):
                yield f"{path.relative_to(SRC)}:{line} imports {module}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_is_imported_through_the_package(package):
    assert list(submodule_imports(package)) == []


def test_scan_sees_a_submodule_import(tmp_path, monkeypatch):
    bad = tmp_path / "repro" / "pipeline" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f():\n    from repro.net.fabric import ALLREDUCE\n")
    (tmp_path / "repro" / "net").mkdir()
    (tmp_path / "repro" / "net" / "ok.py").write_text(
        "from repro.net.fabric import ALLREDUCE\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert list(submodule_imports("repro.net")) == [
        "repro/pipeline/bad.py:2 imports repro.net.fabric"
    ]
