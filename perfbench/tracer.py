"""Span tracer that times skeindepth's layers from outside.

``Tracer.install()`` replaces the names one module imports from another
(``solver.canonical_code``, ``poly.switch``, ...) with wrappers that
record a span: name, parent span, start and end.  Spans stay in memory;
``summary()`` turns them into call counts and self times, where a span's
self time is its duration minus that of its direct children.

Only calls that cross a module boundary through a patched name are
seen.  A call a module makes to its own functions (``_homfly``
recursing, ``simplify`` inside ``recognize_unlink``) is attributed to
the caller's span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ATTRIBUTION_NOTE = (
    "calls inside a module are attributed to their caller; only names "
    "imported across modules are timed"
)

# (module, attribute, layer span name); SETUP_PATCHES cover input loading,
# PATCHES the solve
SETUP_PATCHES = [("braid", "braid_closure", "braid.braid_closure")]
PATCHES = [
    ("solver", "canonical_code", "diagram.canonical_code"),
    ("poly", "canonical_code", "diagram.canonical_code"),
    ("moves", "canonical_code", "diagram.canonical_code"),
    ("solver", "homfly", "poly.homfly"),
    ("bounds", "homfly", "poly.homfly"),
    ("poly", "homfly", "poly.homfly"),
    ("solver", "simplify", "moves.simplify"),
    ("bounds", "simplify", "moves.simplify"),
    ("solver", "switch", "moves.resolve"),
    ("solver", "smooth", "moves.resolve"),
    ("poly", "switch", "moves.resolve"),
    ("poly", "smooth", "moves.resolve"),
    ("solver", "recognize_unlink", "moves.recognize_unlink"),
    ("solver", "aggregate_bounds", "bounds.aggregate_bounds"),
    ("solver", "depth_at_most", "solver.depth_at_most"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.codes: set = set()
        self.probe_results: list = []
        self.bfs_runs = 0
        self._bfs_pending: list[bool] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        observe = {
            "diagram.canonical_code": self.codes.add,
            "solver.depth_at_most": self.probe_results.append,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(out)
            return out

        if name != "moves.recognize_unlink":
            return wrapper

        @functools.wraps(fn)
        def recognizer(*args, **kwargs):
            self._bfs_pending.append(False)
            try:
                return wrapper(*args, **kwargs)
            finally:
                self.bfs_runs += self._bfs_pending.pop()

        return recognizer

    # -- patching --------------------------------------------------------------

    def install(self, package, patches=PATCHES) -> None:
        """Patch every name in ``patches``; with PATCHES, also count BFS entries."""
        for mod_name, attr, span in patches:
            mod = getattr(package, mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(span, original))
        if patches is not PATCHES:
            return
        # recognize_unlink reaches its BFS exactly when it first asks for
        # triangle moves; count that once per recognizer call
        moves = package.moves
        triangle = moves.triangle_moves
        self._saved.append((moves, "triangle_moves", triangle))

        def counted(d):
            if self._bfs_pending:
                self._bfs_pending[-1] = True
            return triangle(d)

        moves.triangle_moves = counted

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls": n, "self_s": seconds}}."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child[i]
        return dict(out)
