"""Iterative-deepening search for the resolution depth of a link.

``depth_at_most(d, k)`` asks whether some tree of switch/smooth
resolutions of height <= k ends in certified unlinks at every leaf; the
answer is three-valued (True / False / None for "budget ran out").
``compute_td`` sweeps k upward from the best lower bound and reports
either an exact depth with a witness tree or a certified interval.

Soundness rules the search lives by:

* every node diagram is simplified before anything else happens to it;
* a node counts as a leaf only when the unlink recognizer certifies it;
* the polynomial lower bound (:func:`.bounds.polynomial_lower_bound`,
  the same one the bound report uses) prunes a subtree only because
  every valid tree under a diagram is at least that tall;
* a failed search at depth k refutes depth k for that diagram, but a
  budget exhaustion, or an unknown verdict once the deadline has
  passed, refutes nothing — it surfaces as None and widens the
  reported interval.

The search knows the polynomial of every node it branches on, so each
switch child's polynomial comes from the skein identity, from the
node's and the smoothing's (:func:`.poly.switch_value`), not from a
skein expansion; the smoothing's is looked up or expanded.  The
smoothing is built before the switch child is searched only when that
identity needs it: the switch child has crossings and no stored
polynomial.  Otherwise it is built only once the switch child has
succeeded, since a switch child that fails or runs out of budget ends
that branch.  Each child
is simplified, which on a switch child looks only for a poke pair
through the switched crossing (see :func:`.diagram.simplify`).

Per-diagram results (depth intervals, witnesses, recognizer verdicts,
polynomials) are memoized on the canonical code inside a SolveContext,
so the k-sweep and sibling subtrees share work.  :class:`ResultCache`
persists the polynomials and depth intervals of a context to a file and
loads them into another.
"""

from __future__ import annotations

import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Optional, Union

from .bounds import BoundsReport, aggregate_bounds, polynomial_lower_bound
from .diagram import OrientedDiagram, canonical_code, component_count, simplify, smooth, switch
from .moves import Verdict, recognize_unlink
from .poly import HomflyCache, LaurentPoly2, homfly, parse_poly, render_poly, switch_value

DEFAULT_BUDGET = 5_000_000
_INF = 10**9


@dataclass(frozen=True)
class SkeinLeaf:
    """A certified unlink with the given component count."""

    diagram: OrientedDiagram
    components: int


@dataclass(frozen=True)
class SkeinBranch:
    """Resolution at one crossing: both children are simplified."""

    diagram: OrientedDiagram
    crossing: int
    switched: "SkeinTree"
    smoothed: "SkeinTree"


SkeinTree = Union[SkeinLeaf, SkeinBranch]


def tree_depth(tree: SkeinTree) -> int:
    if isinstance(tree, SkeinLeaf):
        return 0
    return 1 + max(tree_depth(tree.switched), tree_depth(tree.smoothed))


class SolveContext:
    """Shared state for one or many solves: caches, memo tables, the
    search-node count and the deadline.

    memo maps canonical codes to certified depth intervals [lo, hi],
    found by this context's searches or loaded from a cache file;
    witness keeps, per code, the shallowest recorded resolution step so
    a tree can be rebuilt without re-searching.  An interval loaded from
    a file has no witness, and neither has a success that rests on one.
    """

    def __init__(self, cache: HomflyCache | None = None, deadline: float | None = None):
        self.homfly_cache = cache if cache is not None else HomflyCache()
        self.memo: dict[str, tuple[int, int]] = {}
        self.witness: dict[str, tuple[int, tuple]] = {}
        self.verdicts: dict[str, Verdict] = {}
        self.deadline = deadline
        self.nodes = 0

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def poly_of(self, d: OrientedDiagram) -> LaurentPoly2:
        return homfly(d, self.homfly_cache)

    def derive_switch_poly(
        self, d: OrientedDiagram, i: int, p: LaurentPoly2, sw: OrientedDiagram
    ) -> OrientedDiagram | None:
        """Store P(sw) from the skein identity unless it is already known.

        sw is the switch, simplified, of d at crossing i, and p is P(d).
        A crossingless sw needs no stored value.  The identity needs the
        smoothing's polynomial, so the smoothing is built, simplified and
        returned only when a value is stored; otherwise None.
        """
        if sw.is_crossingless():
            return None
        key = canonical_code(sw)
        if key in self.homfly_cache.table:
            return None
        sm = simplify(smooth(d, i))
        value = switch_value(d.crossings[i].sign, p, self.poly_of(sm))
        self.homfly_cache.put(key, value, derived=True)
        return sm

    def verdict_of(self, code: str, d: OrientedDiagram) -> Verdict:
        v = self.verdicts.get(code)
        if v is None:
            v = recognize_unlink(d, homfly_value=self.poly_of(d), deadline=self.deadline)
            # an unknown cut short by the deadline may yet be certified
            # by a later solve with more time
            if not (v.is_unknown and self.out_of_time()):
                self.verdicts[code] = v
        return v


_shared_context: SolveContext | None = None


def _default_context() -> SolveContext:
    global _shared_context
    if _shared_context is None:
        _shared_context = SolveContext()
    return _shared_context


def _record_leaf(ctx: SolveContext, code: str, components: int) -> None:
    if code not in ctx.witness or ctx.witness[code][0] > 0:
        ctx.witness[code] = (0, ("leaf", components))


def _record_branch(ctx, code, i, d, sw, sm) -> None:
    w_sw = ctx.witness.get(canonical_code(sw))
    w_sm = ctx.witness.get(canonical_code(sm))
    if w_sw is None or w_sm is None:
        return  # a child proven only by a cache-loaded interval
    h = 1 + max(w_sw[0], w_sm[0])
    if code not in ctx.witness or h < ctx.witness[code][0]:
        ctx.witness[code] = (h, ("branch", i, d, sw, sm))


def _branch_order(d: OrientedDiagram) -> list[int]:
    """Try minority-sign crossings first, then by index.  Pure heuristic —
    any order is sound — but it finds descending resolutions early on
    mixed diagrams."""
    pos = sum(1 for cr in d.crossings if cr.sign > 0)
    neg = d.crossing_count - pos
    minority = 1 if pos < neg else (-1 if neg < pos else 0)
    return sorted(range(d.crossing_count), key=lambda i: (d.crossings[i].sign != minority, i))


def _search(d: OrientedDiagram, k: int, ctx: SolveContext, limit: int):
    """True / False / None for: some certified tree of height <= k exists.

    d must be simplified; the children searched are simplified in turn.
    """
    code = canonical_code(d)
    if d.is_crossingless():
        _record_leaf(ctx, code, component_count(d))
        return True
    v = ctx.verdict_of(code, d)
    if v.is_unlink:
        _record_leaf(ctx, code, v.components)
        return True
    if v.is_unknown and ctx.out_of_time():
        # the deadline may have cut the recognizer short: refute nothing
        return None

    lo, hi = ctx.memo.get(code, (1, _INF))
    if hi <= k:
        return True
    if k < lo:
        return False
    p = ctx.poly_of(d)
    self_lb = polynomial_lower_bound(p, component_count(d))
    if self_lb > k:
        ctx.memo[code] = (max(lo, self_lb), hi)
        return False

    if ctx.nodes >= limit or ctx.out_of_time():
        return None
    ctx.nodes += 1

    saw_unknown = False
    for i in _branch_order(d):
        sw = simplify(switch(d, i))
        sm = ctx.derive_switch_poly(d, i, p, sw)
        r_sw = _search(sw, k - 1, ctx, limit)
        if r_sw is None:
            saw_unknown = True
            continue
        if r_sw is False:
            continue
        if sm is None:
            sm = simplify(smooth(d, i))
        r_sm = _search(sm, k - 1, ctx, limit)
        if r_sm is None:
            saw_unknown = True
            continue
        if r_sm is False:
            continue
        _record_branch(ctx, code, i, d, sw, sm)
        ctx.memo[code] = (lo, min(hi, k))
        return True
    if saw_unknown:
        return None
    ctx.memo[code] = (max(lo, k + 1), hi)
    return False


def depth_at_most(
    d: OrientedDiagram,
    k: int,
    budget: int = DEFAULT_BUDGET,
    ctx: SolveContext | None = None,
):
    """Does the link of d admit a resolution tree of height <= k?

    Returns True (a witness is then available via extract_tree with the
    same context), False (certified impossible), or None when the node
    budget or deadline ran out before an answer.
    """
    if k < 0:
        return False
    ctx = ctx or _default_context()
    return _search(simplify(d), k, ctx, ctx.nodes + budget)


def _build_tree(ctx: SolveContext, d: OrientedDiagram) -> SkeinTree:
    """The recorded witness for d, which must be simplified (as every
    diagram the search records is)."""
    code = canonical_code(d)
    entry = ctx.witness.get(code)
    if entry is None:
        raise LookupError(f"no witness recorded for {d!r}")
    payload = entry[1]
    if payload[0] == "leaf":
        return SkeinLeaf(d, payload[1])
    _, i, node, sw, sm = payload
    # rebuild on the recorded node diagram: equal link, same canonical code
    return SkeinBranch(node, i, _build_tree(ctx, sw), _build_tree(ctx, sm))


def extract_tree(
    d: OrientedDiagram,
    k: int,
    budget: int = DEFAULT_BUDGET,
    ctx: SolveContext | None = None,
) -> SkeinTree:
    """Witness tree of height <= k, searching first if needed.

    Raises LookupError when no witness is available (the search answered
    False or ran out of budget).  A True that rests on a cache-loaded
    interval has no witness; the tree is then searched for as in a cold
    run, in a fresh context that shares only the polynomial cache and
    the deadline.
    """
    ctx = ctx or _default_context()
    d = simplify(d)
    res = depth_at_most(d, k, budget, ctx)
    if res is not True:
        raise LookupError(f"no depth-{k} witness available (search said {res})")
    try:
        return _build_tree(ctx, d)
    except LookupError:
        cold = SolveContext(ctx.homfly_cache, ctx.deadline)
        res = depth_at_most(d, k, budget, cold)
        if res is not True:
            raise LookupError(f"no depth-{k} witness available (search said {res})") from None
        return _build_tree(cold, d)


def verify_tree(tree: SkeinTree) -> int:
    """Independent replay of a witness tree; returns its height.

    Checks, per node: leaves are certified unlinks with the stated
    component count, branch children are exactly the simplified switch
    and smoothing of the node diagram at the stored crossing.  Raises
    ValueError on the first violation.
    """
    if isinstance(tree, SkeinLeaf):
        d = tree.diagram
        v = recognize_unlink(d)
        if not v.is_unlink:
            raise ValueError(f"leaf not certified as an unlink: {d!r}")
        if v.components != tree.components:
            raise ValueError(
                f"leaf claims {tree.components} components, recognizer says {v.components}"
            )
        return 0
    d = tree.diagram
    if not 0 <= tree.crossing < d.crossing_count:
        raise ValueError(f"branch crossing index {tree.crossing} out of range")
    for child, op, name in (
        (tree.switched, switch, "switch"),
        (tree.smoothed, smooth, "smoothing"),
    ):
        want = canonical_code(simplify(op(d, tree.crossing)))
        if canonical_code(child.diagram) != want:
            raise ValueError(f"{name} child does not match the recorded move")
    return 1 + max(verify_tree(tree.switched), verify_tree(tree.smoothed))


@dataclass
class TdResult:
    """Outcome of a depth computation: exact when the bounds meet.

    link_lower is a property of the link; diagram_upper is certified by
    a witness tree or by diagram-level bounds.  budget_exhausted marks
    intervals that might have closed with more search.
    """

    link_lower: int
    diagram_upper: int
    witness: Optional[SkeinTree] = None
    bounds: Optional[BoundsReport] = None
    budget_exhausted: bool = False

    @property
    def is_exact(self) -> bool:
        return self.link_lower == self.diagram_upper

    @property
    def value(self) -> int:
        if not self.is_exact:
            raise ValueError(f"not exact: [{self.link_lower}, {self.diagram_upper}]")
        return self.link_lower

    @property
    def status(self) -> str:
        if self.is_exact:
            return f"Exact({self.link_lower})"
        return f"Interval({self.link_lower}, {self.diagram_upper})"

    def render(self) -> str:
        if self.is_exact:
            return str(self.link_lower)
        return f"[{self.link_lower}, {self.diagram_upper}]"


def compute_td(
    d: OrientedDiagram,
    genus: int | None = None,
    braid_words=None,
    budget: int = DEFAULT_BUDGET,
    max_depth: int | None = None,
    timeout_secs: float | None = None,
    ctx: SolveContext | None = None,
) -> TdResult:
    """Resolution depth of the link of d: exact value or certified interval.

    genus and braid_words feed the bound aggregator (both are trusted
    claims about the link of d).  budget caps search nodes per depth
    probe; max_depth caps how deep the sweep probes (the bound-derived
    upper still stands).  Budget or time exhaustion widens the answer to
    an interval, never falsifies it.
    """
    ctx = ctx or _default_context()
    saved_deadline = ctx.deadline
    if timeout_secs is not None:
        ctx.deadline = time.monotonic() + timeout_secs
    try:
        work = simplify(d)
        if work.is_crossingless():
            return TdResult(0, 0, SkeinLeaf(work, component_count(work)))
        code = canonical_code(work)
        if ctx.verdict_of(code, work).is_unlink:
            return TdResult(0, 0, SkeinLeaf(work, component_count(work)))

        rep = aggregate_bounds(work, genus, braid_words, cache=ctx.homfly_cache)
        lower, upper = rep.lower, rep.upper
        kmax = upper if max_depth is None else min(upper, max_depth)
        witness = None
        exhausted = False
        for k in range(lower, kmax + 1):
            res = depth_at_most(work, k, budget, ctx)
            if res is True:
                try:
                    witness = _build_tree(ctx, work)
                    upper = tree_depth(witness)
                except LookupError:
                    # success came from a cache-loaded interval: no tree
                    upper = min(upper, k)
                break
            if res is None:
                exhausted = True
                break
        return TdResult(
            lower,
            upper,
            witness,
            rep,
            budget_exhausted=exhausted and lower != upper,
        )
    finally:
        ctx.deadline = saved_deadline


# -- result cache --------------------------------------------------------------


# The cache line format.  Lines start with this marker.  Lines of the
# unversioned format before it (code, polynomial, interval) are keyed by
# an older canonical code, which for most diagrams differs from the
# current one, so they are skipped rather than loaded as dead entries.
CACHE_FORMAT = "v2"
_UNVERSIONED_CODE = re.compile(r"(\d+,\d+,\d+,\d+,-?1(;\d+,\d+,\d+,\d+,-?1)*)?\|L\d+")


class ResultCache:
    """Append-only store of (canonical code, polynomial text, depth interval).

    Lines are tab-separated: the format marker, then the three values; a
    missing value is "-".  Later lines win on reload, so appending an
    improved interval supersedes the old one.  Loaded intervals go into
    the context's memo, where they carry no witness.
    """

    def __init__(self, path: str):
        self.path = path
        self.loaded: dict[str, tuple[str, str]] = {}

    def load_into(self, ctx: SolveContext) -> None:
        """Load every valid line; a corrupt one is skipped with a warning
        and contributes nothing."""
        if not os.path.exists(self.path):
            return
        unversioned: list[int] = []
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    line = raw.decode("utf-8").rstrip("\n")
                    if not line:
                        continue
                    parts = line.split("\t")
                    if len(parts) == 3 and _UNVERSIONED_CODE.fullmatch(parts[0]):
                        unversioned.append(lineno)
                        continue
                    if len(parts) != 4:
                        raise ValueError("wrong field count")
                    version, code, poly_text, interval = parts
                    if version != CACHE_FORMAT:
                        raise ValueError(f"unknown format marker {version!r}")
                    value = None if poly_text == "-" else parse_poly(poly_text)
                    bounds = None
                    if interval != "-":
                        lo_s, hi_s = interval.split(",")
                        # the search only consults the memo for diagrams
                        # that are not certified unlinks, so its floor is 1
                        lo = max(int(lo_s), 1)
                        hi = _INF if hi_s == "-" else int(hi_s)
                        if lo > hi:
                            raise ValueError("empty interval")
                        bounds = (lo, hi)
                except (ValueError, IndexError) as e:  # UnicodeDecodeError too
                    print(
                        f"warning: skipping corrupt cache line {lineno}: {e}",
                        file=sys.stderr,
                    )
                    continue
                if value is not None:
                    ctx.homfly_cache.table[code] = value
                if bounds is not None:
                    ctx.memo[code] = bounds
                self.loaded[code] = (poly_text, interval)
        if unversioned:
            print(
                f"warning: skipping {len(unversioned)} cache line(s) of the older "
                f"unversioned format (first at line {unversioned[0]}); "
                "their values are recomputed",
                file=sys.stderr,
            )

    def save_from(self, ctx: SolveContext) -> None:
        rows = []
        for code in sorted(set(ctx.homfly_cache.table) | set(ctx.memo)):
            value = ctx.homfly_cache.table.get(code)
            poly_text = render_poly(value) if value is not None else "-"
            lo, hi = ctx.memo.get(code, (1, _INF))
            if (lo, hi) == (1, _INF):
                interval = "-"
            else:
                interval = f"{lo},{'-' if hi >= _INF else hi}"
            if self.loaded.get(code) != (poly_text, interval):
                rows.append(f"{CACHE_FORMAT}\t{code}\t{poly_text}\t{interval}\n")
        if rows:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.writelines(rows)
