"""Module structure: relative imports sit at module level and form no cycle."""

import ast
import pathlib

import skeindepth

PACKAGE = pathlib.Path(skeindepth.__file__).parent


def _relative_imports():
    """{module: [(imported module, enclosing function or None)]}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = []

        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.ImportFrom) and child.level:
                    if child.module:
                        found.append((child.module.split(".")[0], func))
                    else:  # from . import name
                        found.extend((alias.name, func) for alias in child.names)
                visit(child, func)

        visit(tree, None)
        out[path.stem] = found
    return out


def test_no_relative_import_inside_a_function():
    local = {
        mod: [f"{target} in {func}" for target, func in found if func is not None]
        for mod, found in _relative_imports().items()
    }
    assert {mod: found for mod, found in local.items() if found} == {}


def test_relative_imports_form_no_cycle():
    graph = {mod: {target for target, _ in found} for mod, found in _relative_imports().items()}
    state = {}  # 1 on the current path, 2 finished

    def walk(mod, path):
        state[mod] = 1
        for nxt in sorted(graph.get(mod, ())):
            assert state.get(nxt) != 1, " -> ".join(path + [nxt])
            if nxt not in state:
                walk(nxt, path + [nxt])
        state[mod] = 2

    for mod in sorted(graph):
        if mod not in state:
            walk(mod, [mod])
