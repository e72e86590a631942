"""Module structure: relative imports sit at module level and form no
cycle, only diagram lends out underscore names, only its slot numbers
and only to moves, every private module-level name in the package has a
caller, every module-level import is read, every exported name exists,
the names the benchmark's tracer patches and its worker read exist, and
no module keeps a mutable container or a functools cache at module
level."""

import ast
import importlib.util
import pathlib
import re
from collections import Counter

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


# the slot numbers diagram may lend to moves: moves reads each arc's
# ends from its walk-order label, so it borrows no incidence helper
MOVES_FROM_DIAGRAM = {"_OVER_B", "_OVER_D", "_UNDER_IN", "_UNDER_OUT"}


def test_private_names_cross_modules_only_from_diagram():
    """diagram lends moves its four slot numbers and nothing else, so its
    unchecked diagram builder and its helpers stay inside it; every other
    module keeps its underscore names to itself."""
    crossing = sorted(
        f"{mod} imports {target}.{name}"
        for mod, found in _relative_imports().items()
        for target, _, names in found
        for name in names
        if name.startswith("_")
        and not ((target, mod) == ("diagram", "moves") and name in MOVES_FROM_DIAGRAM)
    )
    assert crossing == []


def _named(node):
    """The identifiers named within node: names, attributes and imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_helper_has_a_caller():
    """Each module-level function or class of the package whose name
    starts with an underscore is named somewhere in the package outside
    its own definition; a reference kept only for tests lives in tests."""
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PACKAGE.glob("*.py"))]
    named = Counter(name for _, tree in trees for name in _named(tree))
    defined = [
        (mod, node)
        for mod, tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    unused = sorted(
        f"{mod}.{node.name}" for mod, node in defined if named[node.name] == Counter(_named(node))[node.name]
    )
    assert unused == []
    assert len(defined) > 20


def test_every_module_level_import_is_read():
    """Each name a module of the package imports at module level is read
    in that module; __init__'s re-exports and __future__ imports are
    left out."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem} imports {name}")
    assert unread == []


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


def test_worker_read_context_attributes_exist():
    """The traced pass of perfbench/worker.py reads ``ctx.`` attributes of
    a SolveContext and ``cache.`` attributes of its polynomial cache;
    renaming one must not silently break ``run.py --trace 1``."""
    text = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    ctx = skeindepth.SolveContext()
    missing = [
        f"{name}.{attr}"
        for name, obj in (("ctx", ctx), ("cache", ctx.homfly_cache))
        for attr in sorted(set(re.findall(rf"\b{name}\.(\w+)", text)))
        if not hasattr(obj, attr)
    ]
    read = set(re.findall(r"\b(?:ctx|cache)\.(\w+)", text))
    assert {"memo", "verdicts", "homfly_cache", "nodes", "computed", "hits"} <= read and missing == []


# module-level mutable state allowed in the package besides dunder names
# such as __all__: the cached reachability tables, which ROADMAP.md plans
# to delete with the term-wise polynomial bounds
ALLOWED_GLOBAL_STATE = {"bounds.skein_reachable"}
_CONTAINER_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_TYPES = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
_CACHE_DECORATORS = {"cache", "lru_cache"}


def _called_name(node):
    """The last name of node, a name or attribute, or of what it calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _module_statements(node):
    """The statements of a module that run at import: those outside any
    function or class body, within if, try or with blocks included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.stmt):
            yield child
        yield from _module_statements(child)


def _global_state():
    """module.name of each module-level dict, list or set (a display, a
    comprehension or a constructor call) and each function decorated
    with functools.cache or lru_cache, in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _module_statements(tree):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and (
                isinstance(value, _CONTAINER_DISPLAYS)
                or (isinstance(value, ast.Call) and _called_name(value) in _CONTAINER_TYPES)
            ):
                found += [f"{path.stem}.{ast.unparse(target)}" for target in targets]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _called_name(dec) in _CACHE_DECORATORS for dec in node.decorator_list
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_no_module_global_mutable_caches():
    """No module of the package keeps mutable state at module level,
    where every caller shares it: per-run state lives in a SolveContext.
    Dunder names and ALLOWED_GLOBAL_STATE are left out."""
    found = _global_state()
    assert "__init__.__all__" in found  # the scan sees a module-level list
    flagged = [
        name for name in found if not re.fullmatch(r"\w+\.__\w+__", name) and name not in ALLOWED_GLOBAL_STATE
    ]
    assert flagged == []
