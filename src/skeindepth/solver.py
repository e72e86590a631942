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

Every polynomial the search needs comes from the HOMFLY-PT expansion
(see :mod:`.poly`), which records its tree, or from a cache file.  A
node whose polynomial was loaded is expanded for its tree, as a cold
solve has expanded it, unless a loaded record already proves the depth
asked of it: the bound report's lower end at the root of
:func:`compute_td`, k at a node the search reaches.  The smoothing at
a crossing is built only once the switch child there has succeeded,
since a switch child that fails or runs out of budget ends that branch.  Each child
is simplified; a switch child that :func:`.diagram.switch` marked,
having no poke pair through the switched crossing, comes back from
simplify at once.

A SolveContext keeps one search record per canonical code, ``(lo, hi,
tree)``: the certified depth interval and the tree of height hi that
proves its upper end.  A record starts from the HOMFLY-PT expansion's
tree for its code (see :mod:`.poly`), merged in when the search first
reaches the node, so a depth at least the expansion's height is proved
without a search; a success of the search replaces it by a shallower
tree.  Each success returns the proof it found, ``(height, tree)``: a
leaf for a certified unlink, else the node's record, and a branch is
built from the proofs its two children returned, the switch child's
read again from its record where that is lower: the smoothing's
search, which runs later, can find a shallower tree for the same code.
:func:`depth_at_most` answers True for it, and :func:`extract_tree`
takes its tree.  Each
write merges with the record as it stands, so a deeper visit of the
same code (switching a crossing twice gives the node back) is never
undone.  The k-sweep and sibling subtrees share these records,
the recognizer verdicts and the polynomials.  The search tries first the
crossings of a node whose switch sheds (:func:`.diagram.switch_sheds`,
built once per node it expands), then the rest, each group in index
order: such a switch child has at least two crossings fewer, so it is
cheaper to expand and fits depth k - 1 more often.  The order cannot
change an answer, since a True needs some crossing to work and a False
needs every one to fail; only the witness found and the work spent
change.  The search and the expansion take codes from
:meth:`.poly.HomflyCache.code_of`, which codes each labeled diagram once
per context.  :func:`verify_tree` replays a fresh copy of each diagram
of the tree, built from its crossings and free loops, and codes it with
the bare :func:`.diagram.canonical_code`, so a replay rests on nothing
the solve stored, in a context or on a diagram object.

A call without ``ctx`` solves in a fresh context of its own; calls share
work only through a context passed to each of them.  :class:`ResultCache`
persists the polynomials and depth intervals of a context to a file and
loads them into another, as records without a tree.
"""

from __future__ import annotations

import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .bounds import BoundsReport, aggregate_bounds, polynomial_lower_bound
from .diagram import (
    OrientedDiagram,
    canonical_code,
    component_count,
    simplify,
    smooth,
    switch,
    switch_sheds,
)
from .moves import Verdict, recognize_unlink
from .poly import HomflyCache, expansion, homfly, parse_poly, render_poly
from .tree import SkeinBranch, SkeinLeaf, SkeinTree

DEFAULT_BUDGET = 5_000_000
_INF = 10**9


# the record of a code nothing is known about yet
_OPEN = (1, _INF, None)


class SolveContext:
    """Shared state for one or many solves: caches, memo tables, the
    search-node count and the deadline.

    memo holds one record per canonical code of a diagram the search has
    met that is not a certified unlink: ``(lo, hi, tree)``, the depth
    interval [lo, hi] certified for it and the SkeinTree of height hi
    that proves the upper end: the HOMFLY-PT expansion's tree, or a
    shallower one the search found.  tree is None when hi comes from a
    cache file's interval, or from a success that rests on one.
    verdicts holds the unlink recognizer's answer per code.
    """

    def __init__(self, cache: HomflyCache | None = None, deadline: float | None = None):
        self.homfly_cache = cache if cache is not None else HomflyCache()
        self.memo: dict[str, tuple[int, int, Optional[SkeinTree]]] = {}
        self.verdicts: dict[str, Verdict] = {}
        self.deadline = deadline
        self.nodes = 0

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def verdict_of(self, code: str, d: OrientedDiagram) -> Verdict:
        v = self.verdicts.get(code)
        if v is None:
            v = recognize_unlink(d, homfly_value=homfly(d, self.homfly_cache), deadline=self.deadline)
            # an unknown cut short by the deadline may yet be certified
            # by a later solve with more time
            if not (v.is_unknown and self.out_of_time()):
                self.verdicts[code] = v
        return v


# always None: perfbench/worker.py's guard still reads it
_shared_context: SolveContext | None = None


def _record(ctx: SolveContext, code: str, lo: int = 1, hi: int = _INF, tree=None) -> None:
    """Merge what a search proved about code into its record as it stands
    now: lo only rises, hi only falls, and the tree goes with its hi.

    A merge that would leave lo > hi meets a record this run's proof
    contradicts, which a cache file loaded: the record becomes what was
    proved, (lo, hi, tree), so no empty interval is stored."""
    old_lo, old_hi, old_tree = ctx.memo.get(code, _OPEN)
    if lo > old_hi or old_lo > hi:
        old_lo, old_hi, old_tree = _OPEN
    if hi > old_hi or (hi == old_hi and old_tree is not None):
        hi, tree = old_hi, old_tree
    ctx.memo[code] = (max(lo, old_lo), hi, tree)


def _merge_expansion(ctx: SolveContext, d: OrientedDiagram, code: str, lo: int, k: int) -> None:
    """Merge lo, a lower end the caller proved for d, whose code is code,
    and the HOMFLY-PT expansion's tree for d into code's record in one
    write.  A value loaded from a cache file has no tree: d is expanded
    for one, as a cold solve has, unless the record already proves a
    depth in [lo, k]; lo alone is then merged."""
    expanded = ctx.homfly_cache.trees.get(code)
    if expanded is None:
        if lo <= ctx.memo.get(code, _OPEN)[1] <= k:
            _record(ctx, code, lo)
            return
        expanded = expansion(d, ctx.homfly_cache)
    _record(ctx, code, lo, *expanded)


def _search(d: OrientedDiagram, k: int, ctx: SolveContext, limit: int):
    """The proof of some certified tree of height <= k for d, as
    ``(height, tree)``, else False (none exists) or None (the budget or
    the deadline ran out first).

    d must be simplified; the children searched are simplified in turn.
    The expansion's tree for d is merged into d's record first (see
    :func:`_merge_expansion`).  An unlink's proof is a leaf, any other a
    record's ``(hi, tree)``; the tree is None when the proof rests on a
    cache-loaded interval.
    """
    if k < 0:
        return False
    if d.is_crossingless():
        return 0, SkeinLeaf(d, component_count(d))
    code = ctx.homfly_cache.code_of(d)
    v = ctx.verdict_of(code, d)
    if v.is_unlink:
        return 0, SkeinLeaf(d, v.components)
    if v.is_unknown and ctx.out_of_time():
        # the deadline may have cut the recognizer short: refute nothing
        return None

    _merge_expansion(ctx, d, code, 1, k)
    lo, hi, tree = ctx.memo[code]
    if hi <= k:
        return hi, tree
    if k < lo:
        return False
    self_lb = polynomial_lower_bound(homfly(d, ctx.homfly_cache), component_count(d))
    if self_lb > k:
        _record(ctx, code, lo=self_lb)
        return False

    if ctx.nodes >= limit or ctx.out_of_time():
        return None
    ctx.nodes += 1

    # the switches that shed first: their children are smaller
    sheds = switch_sheds(d)
    order = sorted(range(d.crossing_count), key=lambda i: not sheds(i))
    saw_unknown = False
    for i in order:
        sw = simplify(switch(d, i, sheds))
        p_sw = _search(sw, k - 1, ctx, limit)
        if not p_sw:
            saw_unknown |= p_sw is None
            continue
        p_sm = _search(simplify(smooth(d, i)), k - 1, ctx, limit)
        if not p_sm:
            saw_unknown |= p_sm is None
            continue
        (h_sw, t_sw), (h_sm, t_sm) = p_sw, p_sm
        if h_sw:  # the smoothing's search can have found a shallower tree for sw's code
            _, h, t = ctx.memo[ctx.homfly_cache.code_of(sw)]
            if h < h_sw:
                h_sw, t_sw = h, t
        tree = SkeinBranch(d, i, t_sw, t_sm) if t_sw is not None and t_sm is not None else None
        _record(ctx, code, hi=1 + max(h_sw, h_sm), tree=tree)
        return ctx.memo[code][1:]
    if saw_unknown:
        return None
    _record(ctx, code, lo=k + 1)
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
    ctx = ctx or SolveContext()
    proof = _search(simplify(d), k, ctx, ctx.nodes + budget)
    return True if proof else proof


class NoWitness(LookupError):
    """extract_tree found no witness; answer is what the search that
    settled it said: False, no tree of that height exists, or None, the
    budget or the deadline ran out."""

    def __init__(self, k: int, answer):
        super().__init__(f"no depth-{k} witness available (search said {answer})")
        self.answer = answer


def extract_tree(
    d: OrientedDiagram,
    k: int,
    budget: int = DEFAULT_BUDGET,
    ctx: SolveContext | None = None,
) -> SkeinTree:
    """Witness tree of height <= k, searching first if needed.

    Raises NoWitness, a LookupError, when no witness is available (the
    search answered False or ran out of budget).  A proof that rests on a
    cache-loaded interval has no tree; the tree is then searched for
    as in a cold run, in a fresh context that shares only the polynomial
    cache and the deadline, and that search's answer is the one raised.
    The fresh context's records are merged into ctx once its search
    returns, so a refutation there corrects the record it contradicts.
    """
    ctx = ctx or SolveContext()
    d = simplify(d)
    for c in (ctx, SolveContext(ctx.homfly_cache, ctx.deadline)):
        proof = _search(d, k, c, c.nodes + budget)
        if c is not ctx:
            for code, record in c.memo.items():
                _record(ctx, code, *record)
        if not proof:
            raise NoWitness(k, proof)
        if proof[1] is not None:
            return proof[1]


def verify_tree(tree: SkeinTree) -> int:
    """Independent replay of a witness tree; returns its height.

    Checks, per node: leaves are certified unlinks with the stated
    component count, branch children are exactly the simplified switch
    and smoothing of the node diagram at the stored crossing.  Every
    diagram is read as a fresh copy, ``OrientedDiagram(crossings,
    free_loops)``, so nothing stored on the tree's diagram objects is
    trusted.  A subtree object shared by several branches is checked
    once per call.  Raises ValueError on the first violation.
    """
    heights: dict[int, int] = {}

    def fresh(d: OrientedDiagram) -> OrientedDiagram:
        return OrientedDiagram(d.crossings, d.free_loops)

    def replay(t: SkeinTree) -> int:
        h = heights.get(id(t))
        if h is not None:
            return h
        d = fresh(t.diagram)
        if isinstance(t, SkeinLeaf):
            v = recognize_unlink(d)
            if not v.is_unlink:
                raise ValueError(f"leaf not certified as an unlink: {d!r}")
            if v.components != t.components:
                raise ValueError(
                    f"leaf claims {t.components} components, recognizer says {v.components}"
                )
            h = 0
        else:
            if not 0 <= t.crossing < d.crossing_count:
                raise ValueError(f"branch crossing index {t.crossing} out of range")
            for child, op, name in (
                (t.switched, switch, "switch"),
                (t.smoothed, smooth, "smoothing"),
            ):
                want = canonical_code(simplify(op(d, t.crossing)))
                if canonical_code(fresh(child.diagram)) != want:
                    raise ValueError(f"{name} child does not match the recorded move")
            h = 1 + max(replay(t.switched), replay(t.smoothed))
        heights[id(t)] = h
        return h

    return replay(tree)


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
    an interval, never falsifies it; its upper end is still the root's
    record where that is lower than the bound report's.  The root's
    record holds the bound report's lower end, so a cache saved from ctx
    carries both ends.
    """
    ctx = ctx or SolveContext()
    saved_deadline = ctx.deadline
    if timeout_secs is not None:
        ctx.deadline = time.monotonic() + timeout_secs
    try:
        work = simplify(d)
        if work.is_crossingless() or ctx.verdict_of(ctx.homfly_cache.code_of(work), work).is_unlink:
            return TdResult(0, 0, SkeinLeaf(work, component_count(work)))

        rep = aggregate_bounds(work, genus, braid_words, cache=ctx.homfly_cache)
        lower, upper = rep.lower, rep.upper
        root = ctx.homfly_cache.code_of(work)
        # the root's record takes the sound lower end with the
        # expansion's tree in one write, so a loaded record that
        # contradicts either gives way to what the solve proves (see
        # _record), and the tree holds even when max_depth stops the
        # sweep before its first probe
        _merge_expansion(ctx, work, root, lower, lower)
        kmax = upper if max_depth is None else min(upper, max_depth)
        witness = None
        exhausted = False
        for k in range(lower, kmax + 1):
            res = depth_at_most(work, k, budget, ctx)
            if res is not False:
                exhausted = res is None
                break
        # however the sweep ended, the root's record holds the best proof
        # found: a success's tree, else the HOMFLY-PT expansion's, which
        # narrows an interval the budget, the deadline or max_depth left
        # open.  The tree is None when the proof rests on a cache-loaded
        # interval.
        _, hi, tree = ctx.memo[root]
        if hi <= upper:
            upper, witness = hi, tree
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
    the context's memo as records without a tree.  A save writes every
    polynomial as render_poly does, and appends a line for each code
    whose text or interval differs from its loaded line: so a value the
    expansion corrected, and a loaded line render_poly did not write, are
    appended in render_poly's form.
    """

    def __init__(self, path: str):
        self.path = path
        self.loaded: dict[str, tuple[str, str]] = {}

    def load_into(self, ctx: SolveContext) -> None:
        """Load every valid line; a corrupt one is skipped with a warning
        and contributes nothing, as each field is checked before a line
        writes anything."""
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
                    if interval != "-":
                        try:
                            lo_s, hi_s = interval.split(",")
                            # the search only consults the memo for diagrams
                            # that are not certified unlinks, so its floor is 1
                            lo = max(int(lo_s), 1)
                            hi = _INF if hi_s == "-" else int(hi_s)
                        except ValueError:
                            raise ValueError(f"bad interval {interval!r}") from None
                        if lo > hi:
                            raise ValueError(f"empty interval {interval!r}")
                        ctx.memo[code] = (lo, hi, None)
                    if value is not None:
                        ctx.homfly_cache.table[code] = value
                    self.loaded[code] = (poly_text, interval)
                except (ValueError, IndexError) as e:  # UnicodeDecodeError too
                    print(
                        f"warning: skipping corrupt cache line {lineno}: {e}",
                        file=sys.stderr,
                    )
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
            poly_text = "-" if value is None else render_poly(value)
            lo, hi, _ = ctx.memo.get(code, _OPEN)
            if (lo, hi) == (1, _INF):
                interval = "-"
            else:
                interval = f"{lo},{'-' if hi >= _INF else hi}"
            if self.loaded.get(code) != (poly_text, interval):
                rows.append(f"{CACHE_FORMAT}\t{code}\t{poly_text}\t{interval}\n")
        if rows:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.writelines(rows)
