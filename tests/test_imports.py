"""Every name a module imports is read somewhere in that module, every
private module-level name of the library is read somewhere in the
library, no library module but the command line imports the test oracle,
and each command line path imports only the modules it runs.

A stand-in for pyflakes' unused-import check, and for a dead-code check
on private names, on the standard library's ast alone.  Package __init__
files are skipped by the import check.  A private name read only by tests
is dead code.  The dense oracle (qdeco.oracle) checks the library from
outside; a library module that imports it no longer can be checked
against it independently.

`import qdeco` and `import qdeco.cli` load no numpy and no library module
but qdeco.errors; each subcommand imports what it calls, in a fresh
process (the console script's case), so `--help` and usage errors cost no
numpy, and only oracle-check loads the oracle and only a scan of 9 or
more vertices with --jobs > 1 the process pool.  numpy is imported where arrays are built,
so the closed-form commands (ghz, encode, weighted, lower on an
unweighted graph, upper --method ising and the analytic upper --method
eb) load none.  The package resolves its public names, and channels and
isingsep their module-level arrays, on first use (PEP 562); those names
must be the modules' own objects.

No library module imports dataclasses, and in a fresh interpreter that
has imported numpy, importing every qdeco module does not load it.
A dataclass generates and compiles its methods when its module is
imported, which every command and pooled worker would pay again; the
records are named tuples and plain classes instead.
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


def run_fresh(code: str) -> str:
    """Standard output of code in a fresh interpreter on this checkout."""
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return run.stdout


def fresh_modules(code: str) -> set[str]:
    """numpy and the qdeco modules a fresh interpreter holds after code.

    The command's own output goes to a buffer; the last stdout line is the
    module list.
    """
    probe = (
        "import contextlib, io, sys\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {code}\n"
        "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('qdeco')))"
    )
    return set(run_fresh(probe).splitlines()[-1].split())


LIBRARY = {path.stem for path in (ROOT / "src/qdeco").glob("*.py")} - {"__init__"}


def test_cli_import_loads_no_numpy_and_no_library_module():
    assert fresh_modules("import qdeco.cli") == {"qdeco", "qdeco.cli", "qdeco.errors"}
    assert fresh_modules("import qdeco") == {"qdeco"}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["ghz", "--help"], ["ghz", "--no-such-flag"], ["upper"], ["scan", "--jobs", "x"]],
    ids=" ".join,
)
def test_help_and_usage_errors_load_no_numpy(argv):
    code = f"from qdeco.cli import main; assert main({argv!r}) in (0, 2)"
    assert fresh_modules(code) == {"qdeco", "qdeco.cli", "qdeco.errors"}


# The library modules each command must leave unloaded.
NOT_LOADED = {
    "ghz --n 4": {"graphs", "graphdiag", "isingsep", "pairdistill", "encode", "oracle"},
    "ghz --blockwise --sweep 0.1:0.3:0.1": {
        "graphs", "graphdiag", "isingsep", "pairdistill", "encode", "oracle",
    },
    "lower --graph ring:4": {"graphdiag", "ghz", "encode", "oracle"},
    "upper --method eb": {
        "graphs", "graphdiag", "isingsep", "pairdistill", "ghz", "encode", "oracle",
    },
    "upper --method ising --graph ring:4": {"graphdiag", "pairdistill", "ghz", "encode", "oracle"},
    "scan --graph ring:4": {"isingsep", "pairdistill", "ghz", "encode", "oracle"},
    "weighted --sweep-phi 1:2:0.5": {"graphdiag", "pairdistill", "ghz", "encode", "oracle"},
    "encode --kt 0.1 --levels 1": {"graphs", "graphdiag", "isingsep", "pairdistill", "oracle"},
    "oracle-check --cases 1 --max-n 3": {"isingsep", "pairdistill", "ghz", "encode"},
    "upper --method eb --via jamiolkowski": {
        "graphs", "graphdiag", "isingsep", "pairdistill", "ghz", "encode", "oracle",
    },
    'lower --graph {"n":3,"edges":[[0,1,1.0],[1,2]]}': {"graphdiag", "ghz", "encode", "oracle"},
}
# The commands that build arrays, and so load numpy; the others run in math.
LOADS_NUMPY = {
    "scan --graph ring:4",
    "oracle-check --cases 1 --max-n 3",
    "upper --method eb --via jamiolkowski",
    'lower --graph {"n":3,"edges":[[0,1,1.0],[1,2]]}',
}


def test_only_oracle_check_loads_the_oracle():
    assert {cmd for cmd, unloaded in NOT_LOADED.items() if "oracle" not in unloaded} == {
        "oracle-check --cases 1 --max-n 3"
    }
    assert {cmd.split()[0] for cmd in NOT_LOADED} == {
        "ghz", "lower", "upper", "scan", "weighted", "encode", "oracle-check",
    }


@pytest.mark.parametrize("cmd", NOT_LOADED)
def test_subcommand_imports_only_what_it_runs(cmd):
    loaded = fresh_modules(f"from qdeco.cli import main; assert main({cmd.split()!r}) == 0")
    assert NOT_LOADED[cmd] <= LIBRARY
    assert {f"qdeco.{m}" for m in NOT_LOADED[cmd]} & loaded == set()
    assert ("numpy" in loaded) == (cmd in LOADS_NUMPY)


def test_lazy_names_are_the_modules_own_objects():
    import qdeco

    for name in qdeco.__all__:
        if name == "__version__":
            continue
        obj = getattr(qdeco, name)
        assert obj.__module__.startswith("qdeco.")
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(qdeco.__all__) <= set(dir(qdeco))
    with pytest.raises(AttributeError):
        qdeco.no_such_name


def test_module_arrays_are_built_on_first_use_and_kept():
    code = (
        "import sys, qdeco.channels as c, qdeco.isingsep as i; print('numpy' in sys.modules)\n"
        "from qdeco.channels import SIGMA; from qdeco.isingsep import D_K, D_L\n"
        "print('numpy' in sys.modules, SIGMA is c.SIGMA, D_K is i.D_K, D_L is i.D_L)"
    )
    assert run_fresh(code) == "False\nTrue True True True\n"
    from qdeco import channels, isingsep

    assert isingsep.D_K.tolist() == [[0, -1, 0, -1], [1, 0, 1, 0], [0, -1, 0, -1], [1, 0, 1, 0]]
    assert isingsep.D_L.tolist() == [[0, 0, -1, -1], [0, 0, -1, -1], [1, 1, 0, 0], [1, 1, 0, 0]]
    for module in (channels, isingsep):
        with pytest.raises(AttributeError):
            module.no_such_name


def test_from_import_reaches_names_and_submodules():
    code = "from qdeco import ghz, scan_partitions; print(ghz.__name__, scan_partitions.__module__)"
    assert run_fresh(code) == "qdeco.ghz qdeco.graphdiag\n"


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src/qdeco").glob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_library_module_does_not_import_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())


def test_importing_every_module_after_numpy_loads_no_dataclasses():
    modules = ", ".join(sorted(f"qdeco.{m}" for m in LIBRARY))
    probe = (
        f"import sys, numpy\nbefore = set(sys.modules)\nimport {modules}\n"
        "print('dataclasses' in set(sys.modules) - before)"
    )
    assert run_fresh(probe) == "False\n"


def test_cli_import_leaves_the_process_pool_unloaded():
    probe = "import sys, qdeco.cli; print('concurrent.futures.process' in sys.modules)"
    assert run_fresh(probe) == "False\n"


def test_small_pooled_scan_leaves_the_process_pool_unloaded():
    # Below graphdiag._POOL_MIN_N vertices --jobs starts no worker, so the
    # pool's module, which a worker needs, is never imported.
    probe = (
        "import io, sys, contextlib\nfrom qdeco.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['scan', '--graph', 'ring:6', '--jobs', '2'])\n"
        "print(code, 'concurrent.futures.process' in sys.modules)"
    )
    assert run_fresh(probe) == "0 False\n"
