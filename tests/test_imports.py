"""No module of the package imports a name it never reads, or another's private name.

A stdlib ast check: every name bound by an import statement in
src/fedtrace/*.py must be read somewhere in the same module, as a
name, the root of an attribute chain, or inside a quoted annotation.
A leftover import of a deleted helper fails here. No module imports a
name starting with "_" from another fedtrace module: what modules
share is public.

An import kept only so that the benchmark harness (bench/spans.py) can
wrap the module's own binding goes into BENCH_HOOK_IMPORTS, with the
hook it serves.

No module imports scipy at module level: only training and accounting
at q < 1 use it (scipy.special), and they import it where they use it.
So importing the package, and the generate, partition, evaluate and
account commands at q = 1, load no scipy module; fresh interpreters
check that.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedtrace.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedtrace"

# (module file, imported name) -> the bench hook that the binding serves
BENCH_HOOK_IMPORTS: dict[tuple[str, str], str] = {}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "LogisticModel" or "list[NormStats]"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in read and (path.name, name) not in BENCH_HOOK_IMPORTS)
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"


def _private_imports(tree: ast.Module) -> list[str]:
    """Each "_"-prefixed name imported from a fedtrace module, with its line."""
    return [f"{alias.name} from {'.' * node.level}{node.module or ''} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "fedtrace")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = _private_imports(tree)
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


def test_the_check_catches_a_private_import():
    tree = ast.parse("from .traces import _DIGEST, LongString\n"
                     "from fedtrace.model import _wolfe\n"
                     "from __future__ import annotations\nimport numpy._core\n")
    assert [name.split()[0] for name in _private_imports(tree)] == ["_DIGEST", "_wolfe"]


def test_bench_hook_imports_name_real_imports():
    for (module, name), hook in BENCH_HOOK_IMPORTS.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        assert name in _imported(tree), f"{module} no longer imports {name} (hook {hook})"


def test_the_check_catches_an_unread_import():
    tree = ast.parse("from .model import LogisticModel, row_blocks\n"
                     "def f(x) -> 'LogisticModel':\n    return x\n")
    assert set(_imported(tree)) - _read(tree) == {"row_blocks"}


def _module_level_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(module, line) of each import that runs when the module is imported.

    Function bodies run later, so their imports are not counted; class
    bodies and module-level if/try blocks run at import, so theirs are.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((alias.name, child.lineno) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module or "", child.lineno))
            visit(child)

    visit(tree)
    return found


def _scipy_at_import(tree: ast.Module) -> list[str]:
    return [f"{module} (line {line})" for module, line in _module_level_imports(tree)
            if module == "scipy" or module.startswith("scipy.")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_at_import_time(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _scipy_at_import(tree)
    assert not found, f"{path.name} imports scipy at module level: {', '.join(found)}"


def test_the_check_catches_a_module_level_scipy_import():
    tree = ast.parse("import numpy\nfrom scipy.special import expit\n"
                     "try:\n    import scipy.sparse as sp\nexcept ImportError:\n    pass\n"
                     "class A:\n    from scipy import stats\n"
                     "def f():\n    from scipy import special\n    return special\n")
    assert _scipy_at_import(tree) == ["scipy.special (line 2)", "scipy.sparse (line 4)",
                                      "scipy (line 8)"]


# Runs its argv through fedtrace.cli.main (none: imports only) and prints
# the exit code and every scipy module then loaded, as its last line.
_PROBE = """
import json, sys
import fedtrace.cli, fedtrace.experiment, fedtrace.sweeps
argv = json.loads(sys.argv[1])
code = fedtrace.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh(argv: list[str]) -> tuple[int, list[str]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    return code, loaded


def test_importing_the_package_loads_no_scipy():
    assert _fresh([]) == (0, [])


def test_generate_partition_evaluate_and_account_at_q1_load_no_scipy(tmp_path):
    out = ["--out", str(tmp_path / "run")]
    flags = ["--set", "generator.n_scripts=2000", "--set", "generator.fp_prevalence=0.02",
             "--set", "n_participants=20", "--set", "q=1", "--set", "rounds=2",
             "--set", "local_iterations=5", "--seed", "1", *out]
    assert _fresh(["generate", *flags]) == (0, [])
    assert _fresh(["partition", *flags]) == (0, [])
    assert main(["train", *flags]) == 0  # training needs scipy.special's expit
    assert _fresh(["evaluate", *out]) == (0, [])
    assert _fresh(["account", *out]) == (0, [])
