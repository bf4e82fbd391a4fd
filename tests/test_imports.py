"""Every name a module imports is read somewhere in that module, every
private module-level name of the library is read somewhere in the
library, no library module but the command line imports the test oracle,
and the command line starts without the process pool.

A stand-in for pyflakes' unused-import check, and for a dead-code check
on private names, on the standard library's ast alone.  Package __init__
files are skipped by the import check: their imports are the package's
re-exports.  A private name read only by tests is dead code.  The dense
oracle (qdeco.oracle) checks the library from outside; a library module
that imports it no longer can be checked against it independently.  Only
a scan with --jobs > 1 uses the process pool, so no other command should
pay for importing it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/qdeco", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_checker_finds_an_unused_import():
    source = "import csv\nimport os.path\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["csv (line 1)", "pi (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level _names that source defines (functions, classes and
    assigned constants; not dunders), with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """Names that source reads, as a variable or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of the sources (name -> text) that no
    source reads."""
    read = set().union(*(read_names(text) for text in sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, text in sorted(sources.items())
        for name, line in private_definitions(text).items()
        if name not in read
    ]


def test_checker_finds_an_unread_private_name():
    sources = {
        "a": (
            "_USED, _DEAD = 1, 2\n_ALSO: int = 3\n"
            "def _helper():\n    return _USED\nclass _Gone:\n    pass\n"
        ),
        "b": "from .a import _ALSO\nimport a\nprint(a._helper, _ALSO)\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a: _DEAD (line 1)", "a: _Gone (line 5)"]


def test_library_reads_every_private_name_it_defines():
    sources = {path.name: path.read_text() for path in (ROOT / "src/qdeco").glob("*.py")}
    assert unread_private_names(sources) == []


def imported_modules(source: str) -> set[str]:
    """Every module an import statement of source names, relative ones with
    their leading dots."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out.add(base)
            if node.module is None:  # from . import oracle
                out.update(base + alias.name for alias in node.names)
    return out


def imports_oracle(source: str) -> bool:
    return bool({".oracle", "qdeco.oracle"} & imported_modules(source))


def test_oracle_checker_finds_every_form_of_import():
    for source in (
        "from .oracle import lift_operator\n",
        "from . import oracle\n",
        "import qdeco.oracle\n",
        "from qdeco.oracle import dense_graph_state\n",
    ):
        assert imports_oracle(source), source
    assert not imports_oracle("from .channels import SIGMA\nfrom . import numeric\n")


@pytest.mark.parametrize(
    "path",
    [p for p in (ROOT / "src/qdeco").glob("*.py") if p.name not in ("cli.py", "oracle.py")],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_library_module_does_not_import_the_oracle(path):
    assert not imports_oracle(path.read_text())


def test_cli_import_leaves_the_process_pool_unloaded():
    probe = "import sys, qdeco.cli; print('concurrent.futures.process' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.stdout == "False\n"
