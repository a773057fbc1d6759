"""Production code never imports the scalar reference module.

``repro.perf.reference`` holds the pure references the fast paths
replaced (the one-entry-per-hop event loop, per-event resource grants,
the FTL remap and fault-around loops).  Only the parity tests and
``repro/perf/benchmarks.py`` may import it, so that every production
class has exactly one path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REFERENCE = "repro.perf.reference"

#: the reference module itself and the benchmarks that time it
ALLOWED = {Path("repro/perf/reference.py"), Path("repro/perf/benchmarks.py")}


def imported_names(rel, tree):
    """``(line, dotted names)`` per import statement in module ``rel``.

    ``from pkg import name`` yields both ``pkg`` and ``pkg.name`` (the
    name may be a submodule); relative imports are resolved against
    the module's package.
    """
    package = list(rel.with_suffix("").parts[:-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = []
            if node.level:  # relative: drop level - 1 trailing packages
                parts = package[: len(package) + 1 - node.level]
            module = ".".join(parts + ([node.module] if node.module else []))
            yield node.lineno, [module] + [
                f"{module}.{alias.name}" for alias in node.names
            ]


def reference_imports(src):
    """Sites outside :data:`ALLOWED` that import the reference module."""
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        if rel in ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, names in imported_names(rel, tree):
            for name in names:
                if name == REFERENCE or name.startswith(REFERENCE + "."):
                    yield f"{rel}:{line} imports {REFERENCE}"
                    break


def test_only_benchmarks_import_the_reference_module():
    assert list(reference_imports(SRC)) == []


def test_scan_sees_every_import_form(tmp_path):
    files = {
        "repro/perf/benchmarks.py": "from repro.perf import reference\n",
        "repro/pipeline/a.py": "from repro.perf.reference import X\n",
        "repro/pipeline/b.py": "def f():\n    import repro.perf.reference\n",
        "repro/pipeline/c.py": "from repro.perf import harness, reference\n",
        "repro/perf/d.py": "from .reference import ReferenceSimulator\n",
        "repro/sim/e.py": "from ..perf import reference\n",
        "repro/sim/ok.py": "from repro.perf import harness\nfrom . import a\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert list(reference_imports(tmp_path)) == [
        f"repro/perf/d.py:1 imports {REFERENCE}",
        f"repro/pipeline/a.py:1 imports {REFERENCE}",
        f"repro/pipeline/b.py:2 imports {REFERENCE}",
        f"repro/pipeline/c.py:1 imports {REFERENCE}",
        f"repro/sim/e.py:1 imports {REFERENCE}",
    ]
