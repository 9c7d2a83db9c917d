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
"""

import ast
from pathlib import Path

import pytest

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
