"""Module structure of the package: imports live at module level and the
modules import one another without cycles."""

import ast
from pathlib import Path

import pytest

import pathgauge

PACKAGE = Path(pathgauge.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _function_imports(tree: ast.Module) -> list[int]:
    lines = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
    return lines


def _relative_imports(tree: ast.Module) -> set[str]:
    """Sibling modules named by the module-level `from .x import ...` statements."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out & set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_import_inside_functions(module):
    assert _function_imports(MODULES[module]) == []


def test_module_imports_are_acyclic():
    graph = {name: _relative_imports(tree) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name: str, stack: list[str]) -> None:
        if name in stack:
            cycle = stack[stack.index(name):] + [name]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, stack + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_only_the_cli_imports_instances():
    importers = {name for name, tree in MODULES.items() if "instances" in _relative_imports(tree)}
    assert importers <= {"cli"}


def _memo_caches(tree: ast.Module) -> list[int]:
    """Lines that import functools' caches or decorate with one."""
    caches = {"lru_cache", "cache"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name in caches]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in caches:
                    lines.append(dec.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_memo_caches(module):
    assert _memo_caches(MODULES[module]) == []
