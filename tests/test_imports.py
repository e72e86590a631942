"""Module structure: relative imports sit at module level and form no
cycle, only diagram lends out underscore names, every exported name
exists, and the names the benchmark's tracer patches and its worker read
exist."""

import ast
import importlib.util
import pathlib
import re

import skeindepth
import skeindepth.cli  # binds skeindepth.cli, which the worker reads

PACKAGE = pathlib.Path(skeindepth.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _relative_imports():
    """{module: [(imported module, enclosing function or None, imported names)]}."""
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
                        names = tuple(alias.name for alias in child.names)
                        found.append((child.module.split(".")[0], func, names))
                    else:  # from . import name
                        found.extend((alias.name, func, ()) for alias in child.names)
                visit(child, func)

        visit(tree, None)
        out[path.stem] = found
    return out


def test_no_relative_import_inside_a_function():
    local = {
        mod: [f"{target} in {func}" for target, func, _ in found if func is not None]
        for mod, found in _relative_imports().items()
    }
    assert {mod: found for mod, found in local.items() if found} == {}


def test_relative_imports_form_no_cycle():
    graph = {mod: {target for target, _, _ in found} for mod, found in _relative_imports().items()}
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


def test_private_names_cross_modules_only_from_diagram():
    """diagram shares its arc-incidence helpers; every other module keeps
    its underscore names to itself."""
    crossing = sorted(
        f"{mod} imports {target}.{name}"
        for mod, found in _relative_imports().items()
        for target, _, names in found
        for name in names
        if name.startswith("_") and target != "diagram"
    )
    assert crossing == []


def test_tracer_patched_names_exist():
    """perfbench/tracer.py wraps module attributes by name; moving a
    function must not silently leave a name for it to patch missing."""
    path = PERFBENCH / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, attr) for mod, attr, _ in tracer.SETUP_PATCHES + tracer.PATCHES]
    names.append(("moves", "triangle_moves"))
    missing = [
        f"{mod}.{attr}"
        for mod, attr in names
        if not callable(getattr(getattr(skeindepth, mod, None), attr, None))
    ]
    assert len(names) > 10 and missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from skeindepth import *", namespace)
    assert [name for name in skeindepth.__all__ if name not in namespace] == []


def test_worker_read_names_exist():
    """perfbench/worker.py reads package attributes such as
    ``sd.solver._shared_context`` and ``sd.cli.ResultCache``; deleting
    one must not silently break the benchmark."""
    text = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    chains = sorted(set(re.findall(r"\bsd((?:\.\w+)+)", text)))
    missing = []
    for chain in chains:
        obj = skeindepth
        for attr in chain.split(".")[1:]:
            if not hasattr(obj, attr):
                missing.append("sd" + chain)
                break
            obj = getattr(obj, attr)
    assert any(c.startswith((".solver.", ".cli.")) for c in chains) and missing == []
