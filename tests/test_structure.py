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


def _elements_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing definition, line) of every `.elements()` call outside a
    `GroupCtx` class; the definition is a function or class name, "" at
    module level."""
    calls = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            bases = {getattr(b, "id", None) for b in node.bases}
            if node.name == "GroupCtx" or "GroupCtx" in bases:
                return
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "elements"
        ):
            calls.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return calls


def test_group_is_listed_only_where_exhaustive_by_design():
    """Listing a group is |G| work.  Only the group contexts themselves,
    `verify_reconstruction`'s exhaustive points and `random_element` do it."""
    allowed = {("reconstruct", "verify_reconstruction"), ("instances", "random_element")}
    found = [
        (module, owner, line)
        for module, tree in MODULES.items()
        for owner, line in _elements_calls(tree)
        if (module, owner) not in allowed
    ]
    assert found == []


@pytest.mark.parametrize(
    "module, name",
    [("gauge", "horizontal_lift"), ("pathspace", "universal_lift"), ("pathspace", "associated_lift")],
)
def test_lifts_are_one_outward_walk(module, name):
    """Every horizontal lift takes its values from a single `walk_out` call
    and has no check or loop of its own."""
    fn = next(n for n in MODULES[module].body if isinstance(n, ast.FunctionDef) and n.name == name)
    called = [n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert called.count("walk_out") == 1
    own = [type(n).__name__ for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While, ast.If, ast.IfExp, ast.Raise))]
    assert own == []


def _definition(module: str, qualname: str) -> ast.FunctionDef:
    node: ast.AST = MODULES[module]
    for name in qualname.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name)
    return node


def _is_mul(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "mul"


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.mark.parametrize(
    "module, qualname",
    [
        ("gauge", "transport"),
        ("gauge", "holonomy_rep"),
        ("gauge", "chord_holonomies"),
        ("groups", "HoloSpec.eval"),
        ("reconstruct", "ReconstructionIso.forward"),
    ],
)
def test_chained_products_use_product(module, qualname):
    """Chained products go through `GroupCtx.product`: no `mul` inside a
    loop or a comprehension, and no `mul` nested in another `mul`."""
    fn = _definition(module, qualname)
    chained = [
        inner.lineno
        for outer in ast.walk(fn)
        if isinstance(outer, LOOPS) or _is_mul(outer)
        for inner in ast.walk(outer)
        if inner is not outer and _is_mul(inner)
    ]
    assert chained == []
