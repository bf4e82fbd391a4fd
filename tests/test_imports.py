"""Every name a module imports is read somewhere in that module, no
library module but the command line imports the test oracle, and the
command line starts without the process pool.

A stand-in for pyflakes' unused-import check, on the standard library's
ast alone.  Package __init__ files are skipped: their imports are the
package's re-exports.  The dense oracle (qdeco.oracle) checks the library
from outside; a library module that imports it no longer can be checked
against it independently.  Only a scan with --jobs > 1 uses the process
pool, so no other command should pay for importing it.
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
