"""Oriented link diagrams as planar diagram (PD) codes.

A crossing is a plain tuple (a, b, c, d, sign) of ints: four arc labels
listed counterclockwise starting from the incoming under-strand arc a (c
is the outgoing under-strand arc), then the sign.  Each arc label
appears exactly twice.  Every diagram holds its crossings as exact
tuples, which every kernel unpacks or indexes; :class:`Crossing` only
names the fields for callers, and the constructor stores a plain tuple
for each crossing it is given.  Crossingless components are carried as
a bare free-loop count.

The over-strand direction at a crossing follows arc succession: the
crossing is positive when the over-strand runs b -> d.  Text codes do not
store the sign, and :func:`parse_pd` reads text in walk-order labels
only (below), so each sign is read from the succession of labels: the
over-strand runs b -> d exactly when d follows b in walk order.  Only a
two-arc component reads both ways; an under-passage settles it, and one
that only runs over has its smaller label arrive at its first passage in
crossing order.  Internally every crossing carries its sign explicitly,
and all diagram operations preserve it.  :func:`parse_pd` numbers the
walk of what it read and rejects text whose numbering is not the
identity, text not in walk order; :func:`validate` checks Euler's count
of faces, so it also rejects a code that is not planar.

Every diagram is labeled in walk order: its labels are 1..2c, and each
component is a block of labels that runs up by one and wraps from its
last label to its first, the blocks in order of their smallest labels.
The constructor is the one place that knows this convention.  It
numbers the walk, in one O(c) pass with no sort (:func:`_walk_numbers`,
the one walk reader): the labels run in walk order exactly when that
numbering is the identity.  The walk gives the label-block table (each
block's first label), which the diagram keeps.  A diagram built by hand
with other labels is relabeled by the numbering, once, its crossings
kept in their order, so the readers return the caller's own crossing
indices; only labels outside 1..2c are ranked in a dict first, as they
may be any integers.  The operations that know
their result's table, :func:`switch` and :func:`mirror` (which keep the
labels), :func:`renormalize` and simplify's final ranking, build through
a private builder that reads nothing.  Every reader of the walk takes it
from the table: :func:`defects` walks labels 1..2c,
:func:`component_count` counts the blocks, and :func:`canonical_code`,
:func:`is_split`, :func:`split_components`, :func:`find_nugatory` and
validate's Euler count split the parts by joining the blocks that share
a crossing.

Instances are immutable; all operations return new diagrams.  The two
skein operations at a crossing, :func:`switch` and :func:`smooth`, and
the crossing-removing moves behind :func:`simplify` (kink removal,
lifting a strand poked under or over another, untwisting a crossing
whose oriented smoothing disconnects its part) are defined here, so the
polynomial, the rewrite and the search modules all build on this one
without importing each other.  :func:`defects` lists, in walk order,
the crossings a diagram's walk first meets on their under-strand; a
diagram without one is descending, a diagram of the unlink, which both
the polynomial expansion and the unlink recognizer rely on.
:func:`switch_sheds` tells, in O(1) per crossing, whether simplify
sheds crossings from a simplified diagram's switch there, which is how
the expansion picks the defect it resolves.  :func:`simplify` looks
for kinks and poke pairs in one function over a sorted list of plain
tuples, at most two linear passes a round; the nugatory test, run only
from five crossings, takes as candidates the crossings that some face
meets at two corners, which are the cut crossings of the crossing graph
and the kink crossings.

Beside its crossings and free loops a diagram keeps its label-block
table and one mark, neither part of its equality, hash or repr: whether
no move fires on it, so that simplify returns it as it is.  simplify
marks what it returns, and switch marks the switch of such a diagram at
a crossing when :func:`switch_sheds` finds no poke pair through that
crossing.  A copy built from the same crossings reads the same table and
carries no mark, and the mark is a function of the crossings and free
loops alone: nothing a diagram carries records how it was made.

In walk-order labels each arc leaves one slot and arrives at one, so
the rewrite module reads an arc's two ends from the labels itself and
takes only the slot numbers from here.

Every edit that removes crossings joins arcs by one rule, and keeps
every label it does not merge away.  Along each strand it shortens, the
arcs it joins make one run, named by the arc leaving the run; only the
crossing that the run's first arc leaves is rebuilt, and a run that
meets no crossing left closed into a free loop.
:func:`simplify` makes its whole run of removals in these kept labels,
in a sorted list of plain tuples, which a kink or poke removal keeps
sorted and which is sorted again after an untwist only, and builds a
diagram once at the end.  Each block keeps its labels in its own range,
increasing from its smallest, so one pass at the end that gives each
label its rank numbers the walk, and builds the label-block table from
the input's.  :func:`smooth` joins its two runs by the same rule,
then renumbers in full: a smoothing joins or splits components, which
ranks cannot number.  Its labels are its parent's, below 2c + 1, so
the walk is numbered in label-indexed lists of that size
(:func:`_walk_numbers`), as simplify's rounds, the corner table behind
the nugatory test and :func:`switch_sheds`' over-strand maps are; every
such result is sorted as plain tuples and kept as those tuples.

:func:`canonical_code` names a diagram up to renaming its arcs and
reordering its crossings; the solver, the polynomial cache and the
unlink recognizer all key their tables on it.  It labels each connected
part by traversal from a start arc and keeps the smallest relabeling.
A diagram of one part, as most are, is coded from its own crossings;
the blocks are joined into parts only when there are several, and a
diagram of one block builds no block index.  Each arc's block and place
in it give every start's first relabeled crossing, and one pass over the
part keeps the smallest and the starts that give it, the tied starts:
only they can give the code.  Each tied start is labeled, at
O(c log c) for a part with c crossings, in label-indexed lists, and the
least relabeling is kept: a torus closure is labeled once per turn of
its braid.  The code is stored nowhere:
:meth:`.poly.HomflyCache.code_of` is its one memo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Sequence


class Crossing(NamedTuple):
    """The fields of a crossing, named for callers that spell one by
    field.  Equal, ordered and hashed as the plain (a, b, c, d, sign)
    tuple, which is what every diagram stores: no diagram holds one."""

    a: int
    b: int
    c: int
    d: int
    sign: int

    def over_in(self) -> int:
        return self.b if self.sign > 0 else self.d

    def over_out(self) -> int:
        return self.d if self.sign > 0 else self.b

    def arcs(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


# slots are indexed 0..3 for (a, b, c, d)
_UNDER_IN, _OVER_B, _UNDER_OUT, _OVER_D = 0, 1, 2, 3


@dataclass(frozen=True)
class OrientedDiagram:
    """An oriented link diagram: signed crossings plus free loops.

    The constructor numbers the walk (:func:`_walk_numbers`), which
    gives the label-block table.  Crossings whose labels do not run in
    walk order, their numbering not the identity, are relabeled by it
    and kept in the order given; ValueError when their arcs do not close
    into components.  Each crossing is stored as an exact
    (a, b, c, d, sign) int tuple, whatever tuple type it was given as
    (a :class:`Crossing`, say).
    """

    crossings: tuple[tuple[int, int, int, int, int], ...]
    free_loops: int = 0
    # functions of the crossings and free loops alone, not part of
    # equality, hash or repr: the label-block table (_walk_numbers), and the
    # mark that no move fires on the diagram (set by simplify on what it
    # returns, and by switch)
    _blocks: list[int] = field(init=False, repr=False, compare=False)
    _simple: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.free_loops < 0:
            raise ValueError("free_loops must be >= 0")
        if not self.crossings and self.free_loops == 0:
            raise ValueError("empty diagram: no crossings and no free loops")
        crossings = tuple(map(tuple, self.crossings))
        size = 2 * len(crossings) + 1
        for cr in crossings:
            a, b, c, e, sign = cr
            if sign not in (1, -1):
                raise ValueError("crossing sign must be +1 or -1: %r" % (cr,))
            if a < 1 or b < 1 or c < 1 or e < 1:
                size = 0  # labels below 1 are ranked in a dict
        try:
            m, blocks = _walk_numbers(crossings, size)
        except IndexError:  # a label above 2c
            m, blocks = _walk_numbers(crossings)
        if m != list(range(size)):
            crossings = tuple([(m[a], m[b], m[c], m[e], s) for a, b, c, e, s in crossings])
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "_blocks", blocks)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def is_crossingless(self) -> bool:
        return not self.crossings

    def __repr__(self) -> str:
        return "OrientedDiagram(%s)" % pd_text(self)


def _walk_ordered(crossings: tuple[tuple[int, ...], ...], free_loops: int, blocks: list[int]) -> OrientedDiagram:
    """The private constructor: crossings already labeled in walk order,
    exact (a, b, c, d, sign) int tuples, with their label-block table
    blocks, wrapped as they are.

    For the operations here that know the table of what they build; it
    checks and reads nothing.
    """
    d = object.__new__(OrientedDiagram)
    object.__setattr__(d, "crossings", crossings)
    object.__setattr__(d, "free_loops", free_loops)
    object.__setattr__(d, "_blocks", blocks)
    return d


# -- text form ----------------------------------------------------------------

_X_RE = re.compile(r"^X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]$")


def parse_pd(text: str) -> OrientedDiagram:
    """Parse a PD code such as "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]".

    "O" items denote crossingless components.  Raises ValueError on
    malformed items, arc-label multiplicity errors, labels that do not
    run in walk order, and codes that are not planar.  The signs are
    read as if the labels ran in walk order (:func:`_infer_signs`) and
    the walk is numbered once: the labels run in walk order exactly when
    it closes and the numbering is the identity, and otherwise the error
    names the first arc numbered out of place, or the smallest arc that
    continues twice.
    """
    tuples: list[tuple[int, int, int, int]] = []
    free_loops = 0
    items = [chunk.strip() for chunk in text.strip().split(";")]
    if items == [""]:
        raise ValueError("empty PD code")
    for item in items:
        if not item:
            raise ValueError("empty PD item (stray ';'?)")
        if item == "O":
            free_loops += 1
            continue
        m = _X_RE.match(item)
        if not m:
            raise ValueError("malformed PD item: %r" % item)
        tuples.append(tuple(int(g) for g in m.groups()))  # type: ignore[arg-type]
    crossings = tuple([(*t, s) for t, s in zip(tuples, _infer_signs(tuples))])
    size = 2 * len(crossings) + 1
    try:
        numbers, blocks = _walk_numbers(crossings, size)
        bad = [] if numbers == list(range(size)) else [x for x, k in enumerate(numbers) if x != k]
    except ValueError:  # an arc continues twice
        ins = sorted(x for a, b, _, d, sign in crossings for x in (a, b if sign > 0 else d))
        bad = [x for x, y in zip(ins, ins[1:]) if x == y]
    if bad:
        raise ValueError("arc labels do not run in walk order at arc %d" % bad[0])
    diagram = _walk_ordered(crossings, free_loops, blocks)
    validate(diagram)
    return diagram


def pd_text(d: OrientedDiagram) -> str:
    items = ["X[%d,%d,%d,%d]" % cr[:4] for cr in d.crossings]
    items.extend("O" for _ in range(d.free_loops))
    return ";".join(items)


def _check_label_counts(tuples: list[tuple[int, int, int, int]]) -> None:
    """Each arc label appears twice, and the labels are 1..2n, n crossings.

    The labels are counted in a list indexed by 1..2n; the few outside
    that range, which only bad text has, are kept apart.  A label that
    appears other than twice is named, the smallest first, with its
    count.
    """
    size = 2 * len(tuples) + 1
    count = [0] * size
    outside = []
    for t in tuples:
        for x in t:
            if 0 < x < size:
                count[x] += 1
            else:
                outside.append(x)
    bad = [x for x in range(1, size) if count[x] not in (0, 2)]
    bad += [x for x in outside if outside.count(x) != 2]
    if bad:
        label = min(bad)
        times = count[label] if 0 < label < size else outside.count(label)
        raise ValueError("arc label %d appears %d times (expected 2)" % (label, times))
    # 2n labels, each twice, fill the 4n slots: they are 1..2n exactly
    # when none lies outside
    if outside:
        raise ValueError("arc labels must be exactly 1..%d" % (size - 1))


def _infer_signs(tuples: list[tuple[int, int, int, int]]) -> list[int]:
    """Crossing signs of a bare PD code in walk-order labels.

    The over-strand runs b -> d exactly when d follows b in walk order:
    d = b + 1, or b > d + 1 (b closes its block and d opens it).  Only a
    two-arc component {x, x + 1} reads both ways: its two passages are
    the two places its pair of labels meets, and the arc that left one
    passage arrives at the other, so the smaller label arrives at one
    and the larger at the other.  An under-passage (a, c) with
    |a - c| = 1 settles which; a component that only runs over has the
    smaller label arrive at its first passage in crossing order and the
    larger at its second.  Text in other labels gets some signs here and
    is rejected by :func:`parse_pd`'s walk.
    """
    _check_label_counts(tuples)
    # the smaller label of a passage's pair -> whether it arrived there
    arrived = {min(a, c): a < c for a, _, c, _ in tuples if abs(a - c) == 1}
    signs = []
    for _, b, _, d in tuples:
        if abs(b - d) == 1:
            # the smaller arrives unless it arrived at the pair's other passage
            lo = min(b, d)
            arrived[lo] = not arrived.get(lo, False)
            signs.append(1 if arrived[lo] == (b < d) else -1)
        else:
            signs.append(1 if b > d else -1)
    return signs


# -- structural queries -------------------------------------------------------


def component_cycles(d: OrientedDiagram) -> list[list[int]]:
    """Arc cycles of the crossing-bearing components, ordered by min arc,
    each starting at its min arc: the blocks of d's walk-order labels."""
    first = d._blocks
    return [list(range(s, e)) for s, e in zip(first, first[1:])]


def component_count(d: OrientedDiagram) -> int:
    """The number of link components: one per block of the label-block
    table, each a component with crossings, plus the free loops; O(1)."""
    return len(d._blocks) - 1 + d.free_loops


def writhe(d: OrientedDiagram) -> int:
    return sum(cr[4] for cr in d.crossings)


def defects(d: OrientedDiagram) -> list[int]:
    """The crossings first met on their under-strand, in walk order.

    The walk takes the components in order of their smallest arc, each
    from that arc, which in walk-order labels is labels 1..2c in order.
    A crossing is met first by the smaller of its two arriving labels,
    so it is a defect when its under-in label a is below its over-in
    label.  With no defect every
    component passes over each later one and over itself where it first
    meets itself, so d is a diagram of the unlink.  Switching a defect
    keeps the arcs, hence the walk: that crossing is then first met on
    its over-strand, every other crossing keeps its status, and the
    defects drop by one.
    """
    at = [-1] * (2 * len(d.crossings) + 1)  # label -> the defect it arrives under
    for i, (a, b, _, dd, sign) in enumerate(d.crossings):
        if a < (b if sign > 0 else dd):
            at[a] = i
    return [i for i in at if i >= 0]


def switch_sheds(d: OrientedDiagram) -> Callable[[int], bool]:
    """A test, O(1) per crossing j, of whether the switch of d at j has a
    poke pair through j; the over-strand maps it reads, label-indexed
    lists of 2c + 1 entries (the crossing whose over-strand arrives, or
    leaves, by each label), are built once, in one pass over the
    crossings as plain tuples.

    On a diagram simplify returned this is exactly whether simplify
    sheds crossings from that switch: no other move can fire there
    (see :func:`simplify`).  The switch at j runs over along j's old
    under-strand a -> c and under along its old over-strand.  So a
    crossing k whose over-strand arrives by c pokes with it when k's
    under-strand leaves by j's old over-in or arrives by its old
    over-out; a crossing whose over-strand leaves by a pokes with it
    when its under-strand leaves by the old over-in or arrives by the
    old over-out.
    """
    crossings = d.crossings
    by_over_in = [-1] * (2 * len(crossings) + 1)
    by_over_out = by_over_in[:]
    for k, (_, b, _, e, sign) in enumerate(crossings):
        by_over_in[b if sign > 0 else e] = by_over_out[e if sign > 0 else b] = k

    def sheds(j: int) -> bool:
        a, b, c, e, sign = crossings[j]
        over_in, over_out = (b, e) if sign > 0 else (e, b)
        for k in (by_over_in[c], by_over_out[a]):
            if k >= 0 and k != j:
                ck = crossings[k]
                if ck[2] == over_in or ck[0] == over_out:
                    return True
        return False

    return sheds


def validate(d: OrientedDiagram) -> None:
    """Check planarity; raises ValueError on violation.

    The constructor has checked the labels: they are 1..2c in walk
    order, each arriving once and leaving once.  Planarity is Euler's
    count: the counterclockwise tuples embed each connected part of c
    crossings in a sphere exactly when it has c + 2 faces.  The faces
    are counted as the cycles of the corner table, as :func:`_met_twice`
    walks it, and not listed.
    """
    nxt = _corner_successors(d.crossings, 2 * d.crossing_count + 1)
    seen = [False] * len(nxt)
    found = 0
    for start in range(len(nxt)):
        if not seen[start]:
            found += 1
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = nxt[cur]
    need = d.crossing_count + 2 * len(_parts(d.crossings, d._blocks))
    if found != need:
        raise ValueError("not planar: the Euler count needs %d faces, found %d" % (need, found))


# -- the walk, read from the labels -------------------------------------------


def _block_index(first: list[int]) -> list[int]:
    """label -> the index of its block; entry 0 stands for no label."""
    block = [0]
    for k in range(len(first) - 1):
        block += [k] * (first[k + 1] - first[k])
    return block


def _parts(
    crossings: Sequence[tuple[int, ...]], first: list[int], block: Sequence[int] = ()
) -> list[list[int]]:
    """The connected parts' crossing indices, in ascending order of their
    first index, each ascending.

    Each block, a component with crossings, lies in one part, and the
    blocks that share a crossing are joined; a diagram of one block, or
    of blocks that all join, is one part.  first is the label-block
    table; simplify's run of removals pairs the crossings whose labels it
    kept with the table of the diagram it kept them from: each label
    stays in its block's range.  block is first's label -> block index,
    when the caller has built it already.
    """
    if len(first) <= 2:
        return [list(range(len(crossings)))] if crossings else []
    block = block or _block_index(first)
    part = list(range(len(first) - 1))  # block -> the name of its part
    for a, b, _, _, _ in crossings:
        x, y = part[block[a]], part[block[b]]
        if x != y:
            part = [x if p == y else p for p in part]
    if part.count(part[0]) == len(part):
        return [list(range(len(crossings)))]
    groups: dict[int, list[int]] = {}
    for i, cr in enumerate(crossings):
        groups.setdefault(part[block[cr[0]]], []).append(i)
    return list(groups.values())


# -- relabeling ---------------------------------------------------------------


def renormalize(crossings: Iterable[tuple[int, ...]], free_loops: int, size: int = 0) -> OrientedDiagram:
    """Relabel arbitrary integer arcs to the contiguous 1..2c convention,
    with the label-block table filled in.

    Components are ordered by their smallest current label and each starts
    at its smallest current label; crossings are sorted for determinism.
    Any (a, b, c, d, sign) tuples are accepted as crossings, and their
    signs are taken as they are; the result holds plain tuples.  A
    caller that knows the labels lie in 1..size - 1 gives size, and they
    are numbered in label-indexed lists (:func:`_walk_numbers`).
    """
    crossings = tuple(crossings)
    if not crossings:
        return OrientedDiagram((), free_loops)
    m, first = _walk_numbers(crossings, size)
    rows = sorted([(m[a], m[b], m[c], m[d], sign) for a, b, c, d, sign in crossings])
    return _walk_ordered(tuple(rows), free_loops, first)


def _walk_numbers(
    crossings: Sequence[tuple[int, ...]], size: int = 0, names: Sequence[int] = ()
) -> tuple[Sequence[int], list[int]]:
    """Arc -> its label in walk order, and each block's first label, then
    the label after the last, from (a, b, c, d, sign) tuples.

    The components are taken in order of their smallest arc, each walked
    from that arc, and their arcs numbered 1, 2, ... as walked; an arc
    that continues twice, is met twice or does not continue raises.  The
    one numbering routine and the one walk reader: the constructor,
    :func:`renormalize` and :func:`parse_pd` number through it, and
    labels run in walk order exactly when the numbering is the identity.
    A caller that knows its labels lie in 1..size - 1 gives size, and
    the successors and the numbers are label-indexed lists of size
    entries: a smoothing's size is its parent's 2c + 1, and every caller
    in the library gives one.  A label at or above size raises
    IndexError; the constructor, which gives 2c + 1 when no label is
    below 1, then takes the ranked path.  Hand-built labels (no size)
    may be any integers: they are ranked first, in a dict, their ranks
    walked in lists, and the numbers come back as a dict keyed on them;
    names maps a rank back to its label, so the errors name the
    caller's labels.
    """
    if not size:
        labels = sorted({x for cr in crossings for x in cr[:4]})
        rank = dict(zip(labels, range(1, len(labels) + 1)))
        ranked = [(rank[a], rank[b], rank[c], rank[d], sign) for a, b, c, d, sign in crossings]
        m, first = _walk_numbers(ranked, len(labels) + 1, [0, *labels])
        return {x: m[r] for x, r in rank.items()}, first
    names = names or range(size)
    succ = [0] * size
    for a, b, c, d, sign in crossings:
        if sign < 0:
            b, d = d, b
        if succ[a] or succ[b] or a == b:
            raise ValueError("arc %d continues in two different ways" % names[a if succ[a] or a == b else b])
        succ[a] = c
        succ[b] = d
    m = [0] * size
    first: list[int] = []
    k = 0
    for start in range(1, size):
        if m[start] or not succ[start]:
            continue
        k += 1
        m[start] = k
        first.append(k)
        x = succ[start]
        while x != start:
            if m[x] or not succ[x]:
                raise ValueError("arc succession does not close into cycles at arc %d" % names[x])
            k += 1
            m[x] = k
            x = succ[x]
    first.append(k + 1)
    return m, first


def canonical_code(d: OrientedDiagram) -> str:
    """Label-independent serialization of the diagram.

    Two diagrams get the same code exactly when one is the other with
    its arcs renamed and its crossings listed in another order.  The
    parts are read from the label-block table: the blocks that share a
    crossing make one part.  Each part is coded by
    :func:`_part_code`; the part codes are sorted and joined with "/",
    and "|L<n>" counts the free loops.  A diagram of one block is one
    part, coded with a block index of zeros: it builds no label -> block
    index and joins no blocks.  A diagram whose blocks all join is one
    part too; either is coded from its own crossings with no copy.  The
    code is computed afresh on every call and stored nowhere; callers
    that code one diagram often memoize it themselves
    (:meth:`.poly.HomflyCache.code_of`).
    """
    crossings, first = d.crossings, d._blocks
    block = _block_index(first) if len(first) > 2 else [0] * first[-1]
    parts = _parts(crossings, first, block) if len(first) > 2 else ()
    if len(parts) > 1:
        code = "/".join(sorted(_part_code([crossings[i] for i in g], first, block) for g in parts))
    else:
        code = _part_code(crossings, first, block) if crossings else ""
    return code + "|L%d" % d.free_loops


def _part_code(crossings: Sequence[tuple[int, ...]], first: list[int], block: list[int]) -> str:
    """Canonical code of one connected part, by traversal labeling.

    The part's crossings are labeled in walk order; first and block are
    the diagram's label-block table and its label -> block index.  From
    a start arc, label that arc's component 1, 2, ... along its
    orientation.  Then, scanning the labeled arcs in label order, open
    the next component at the first unlabeled arc met at a labeled
    arc's head crossing (slots in a, b, c, d order) and label it the
    same way.  Connectedness means every component is reached.  The
    relabeled crossings, sorted as integer tuples, are one candidate per
    start arc; the smallest is serialized.

    Only arcs that arrive at an under-passage (some crossing's a slot)
    can start the smallest candidate: those candidates, and no others,
    contain a crossing that starts with label 1, and it is their smallest
    tuple, so candidates compare first by it.  That first tuple is
    (1, L(b), L(c), L(d), sign) at the start arc's head crossing, and
    each arc's block and place in it give it without the traversal.
    c lies on the start's component, and b and d, one over strand, lie
    on one component.  An arc on the start's component is labeled by its
    distance from the start along it, its label difference modulo the
    block's length.  Otherwise the traversal, done with the start's
    component of length n, opens the next one at b: L(b) = n + 1, and d
    is labeled by its distance from b.  Only the starts whose first
    tuple is the smallest, the tied starts, can give the code.  They are
    found in one pass over the crossings, which keeps the least tuple
    met so far and its starts.  The pass compares (L(b), L(d), sign),
    each label less one: the leading 1 is the same for every start, and
    so is L(c) = 2, as c follows a on a component of two arcs or more (a
    component of one arc would meet the other strand at its crossing
    once, which no planar diagram does).

    Each tied start is labeled and its relabeled crossings sorted; the
    least of these candidates is serialized.
    """
    # each start's first tuple, without its constant 1 and L(c) = 2 and
    # each label less one; the least so far starts above every label
    least: tuple = (len(block),)
    for a, b, c, d, sign in crossings:
        k = block[a]
        n = first[k + 1] - first[k]
        kb = block[b]  # d follows or precedes b: it is on b's block
        if kb == k:
            key = ((b - a) % n, (d - a) % n, sign)
        else:
            key = (n, n + (d - b) % (first[kb + 1] - first[kb]), sign)
        if key < least:
            least, starts = key, [a]
        elif key == least:
            starts.append(a)
    # label -> the other strand's first arc at the crossing it arrives
    # at, for the traversal's scan; a diagram of one block is labeled
    # without one
    across: list[int] | None = None
    if len(first) > 2:
        across = [0] * len(block)
        for a, b, c, d, sign in crossings:
            across[a], across[b if sign > 0 else d] = b, a
    size = 2 * len(crossings)
    least_rows = None
    for start in starts:
        label = _traversal_labels(start, first, block, across, size)
        rows = [(label[a], label[b], label[c], label[d], sign) for a, b, c, d, sign in crossings]
        rows.sort()
        if least_rows is None or rows < least_rows:
            least_rows = rows
    return ";".join(map("%d,%d,%d,%d,%d".__mod__, least_rows))


def _traversal_labels(
    start: int, first: list[int], block: list[int], across: list[int] | None, size: int
) -> list[int]:
    """Label-indexed list, arc -> label, of the traversal labeling from
    start of a connected part of size arcs; 0 off the part.

    Each component is a block, so it is labeled in two slices: from the
    arc it is entered by to the block's end, then from the block's start.
    across gives, per label, the first arc of the other strand at the
    crossing it arrives at: b for an arc arriving under, a for one
    arriving over.  It is None for a diagram of one block, whose
    traversal needs no scan.
    """
    label = [0] * len(block)
    order: list[int] = []  # the labeled arcs, in label order
    done = scan = 0
    x = start
    while True:
        k = block[x]
        s, e = first[k], first[k + 1]
        label[x:e] = range(done + 1, done + 1 + e - x)
        label[s:x] = range(done + 1 + e - x, done + 1 + e - s)
        done += e - s
        if done == size:
            return label
        order += range(x, e)
        order += range(s, x)
        # the first labeled arc whose head crossing still has an
        # unlabeled arc, the first in slot order: a and c lie on one
        # block, b and d on one, so it is the arc across from the labeled
        # one; arcs before it have fully labeled heads
        while label[across[order[scan]]]:
            scan += 1
        x = across[order[scan]]


def mirror(d: OrientedDiagram) -> OrientedDiagram:
    """Exchange over and under strands at every crossing (negates signs).

    Arc labels are untouched: the strands and their orientations do not
    move, only their vertical order at each crossing flips, so the
    label-block table is d's.
    """
    return _walk_ordered(tuple(_exchange(cr) for cr in d.crossings), d.free_loops, d._blocks)


def _exchange(cr: tuple[int, ...]) -> tuple[int, ...]:
    """cr with its over and under strands exchanged; the sign negates."""
    a, b, c, d, sign = cr
    return (b, c, d, a, -1) if sign > 0 else (d, a, b, c, 1)


# -- skein operations ----------------------------------------------------------


def switch(d: OrientedDiagram, i: int, sheds: Callable[[int], bool] | None = None) -> OrientedDiagram:
    """Exchange over and under strands at crossing i (negates its sign).

    Arc labels and strand succession are untouched, so the result needs
    no relabeling, keeps d's label-block table, and traversal order is
    stable under repeated switches.

    On a diagram that simplify returned, only a poke pair through i can
    fire on the switch (see :func:`simplify`).  So when
    :func:`switch_sheds` finds none, the switch is marked as simplify's
    own result, and simplify returns it at once; otherwise it is left
    unmarked, and simplify's rounds remove that pair first.  sheds is
    switch_sheds(d), when the caller has built it already.
    """
    if not 0 <= i < d.crossing_count:
        raise IndexError(f"crossing index {i} out of range")
    new = _exchange(d.crossings[i])
    out = _walk_ordered(d.crossings[:i] + (new,) + d.crossings[i + 1 :], d.free_loops, d._blocks)
    if d._simple and not (sheds or switch_sheds(d))(i):
        object.__setattr__(out, "_simple", True)
    return out


def smooth(d: OrientedDiagram, i: int) -> OrientedDiagram:
    """Oriented resolution: erase crossing i, joining in-arcs to out-arcs.

    The two runs through i, under-in to over-out and over-in to
    under-out, are joined as a removal joins them (:func:`_rejoin`), and
    the result is renumbered in full: a smoothing joins or splits
    components, which ranks cannot number.  The kept labels are d's,
    below 2c + 1, so :func:`renormalize` numbers them in label-indexed
    lists of that size.
    """
    if not 0 <= i < d.crossing_count:
        raise IndexError(f"crossing index {i} out of range")
    a, b, c, e, sign = d.crossings[i]
    over_in, over_out = (b, e) if sign > 0 else (e, b)
    rest = list(d.crossings[:i] + d.crossings[i + 1 :])
    loops = _rejoin(rest, _joined(a, over_out, over_in, c))
    return renormalize(rest, d.free_loops + loops, 2 * len(d.crossings) + 1)


# -- connectivity -------------------------------------------------------------


def is_split(d: OrientedDiagram) -> bool:
    return len(_parts(d.crossings, d._blocks)) + d.free_loops > 1


def split_components(d: OrientedDiagram) -> list[OrientedDiagram]:
    """Maximal connected subdiagrams, free loops last as singletons."""
    parts = [
        renormalize((d.crossings[ci] for ci in group), 0, 2 * d.crossing_count + 1)
        for group in _parts(d.crossings, d._blocks)
    ]
    parts.extend(OrientedDiagram((), 1) for _ in range(d.free_loops))
    return parts


def disjoint_union(d1: OrientedDiagram, d2: OrientedDiagram) -> OrientedDiagram:
    offset = 2 * d1.crossing_count
    shifted = tuple([(a + offset, b + offset, c + offset, e + offset, s) for a, b, c, e, s in d2.crossings])
    size = offset + 2 * d2.crossing_count + 1
    return renormalize(d1.crossings + shifted, d1.free_loops + d2.free_loops, size)


# -- crossing-removing moves ---------------------------------------------------
#
# simplify's run works in a sorted list of plain (a, b, c, d, sign) tuples.
# A round of kinks and poke pairs (_shed) is at most two passes over it, so
# it costs O(c), and it keeps the list sorted: the first slots, which order
# it, are all distinct and _rejoin never rewrites one.  The nugatory test,
# run from five crossings, walks the corner table for crossings that a face
# meets twice and reads the same tuples; its untwist turns a side over, so
# the list is sorted again after it.


def _shed(crossings: list[tuple[int, ...]], size: int) -> int | None:
    """One round of simplify on the sorted crossings, whose labels are
    below size: the first kink in sorted order removed, else the first
    poke pair, in place and in the kept labels (:func:`_rejoin`).
    Returns the free loops the removal closed; None when neither fires.

    A kink is a crossing whose over and under passages share an arc.  A
    poke pair is a crossing i whose over-out arc is the over-in arc of a
    crossing j, their under strands sharing an arc too: both connecting
    arcs have no other crossing on them, so the upper strand lifts off.
    An arc arrives at one crossing only, so j is one lookup in the
    label-indexed over_in list that the kink pass fills.
    """
    over_in = [-1] * size
    for i, (a, b, c, d, sign) in enumerate(crossings):
        if b == c or a == d or c == d or a == b:
            del crossings[i]
            if b == c:
                run = (a, d)
            elif a == d:
                run = (b, c)
            elif c == d:
                run = (a, b)
            else:
                run = (d, c)
            return _rejoin(crossings, (run,))
        over_in[b if sign > 0 else d] = i
    for i, (a, b, c, d, sign) in enumerate(crossings):
        j = over_in[d if sign > 0 else b]
        if j < 0 or j == i:
            continue
        ja, jb, jc, jd, jsign = crossings[j]
        if c == ja:
            under = (a, jc)
        elif jc == a:
            under = (ja, c)
        else:
            continue
        del crossings[max(i, j)], crossings[min(i, j)]
        over = (b if sign > 0 else d, jd if jsign > 0 else jb)
        return _rejoin(crossings, _joined(*over, *under))
    return None


def _joined(p: int, q: int, u: int, v: int) -> tuple[tuple[int, int], ...]:
    """A move's two runs of arcs p -> q and u -> v, from an arc arriving
    at a removed crossing to one leaving, as the runs they make: one
    when either leads into the other."""
    if q == u:
        return ((p, v),)
    if v == p:
        return ((u, q),)
    return ((p, q), (u, v))


def _rejoin(crossings: list[tuple[int, ...]], runs: Iterable[tuple[int, int]]) -> int:
    """The crossings a move left, each run of arcs it merged named by its
    last arc, in place and in their order; returns the runs that closed
    into free loops.

    A move merges the arcs along each strand it removes crossings from:
    a run (x, y) goes from the arc x arriving at a removed crossing to
    the arc y leaving one, and the arcs between vanish with the
    crossings.  The run keeps y's label, the arc leaving it, so only the
    crossing that x leaves is rebuilt.  A run with x == y meets no
    crossing left: it closed into a free loop.
    """
    loops = 0
    for x, y in runs:
        if x == y:
            loops += 1
            continue
        for k, cr in enumerate(crossings):
            if x in cr:
                a, b, c, d, sign = cr
                if c == x:
                    crossings[k] = (a, b, y, d, sign)
                elif b == x:
                    crossings[k] = (a, y, c, d, sign)
                elif d == x:
                    crossings[k] = (a, b, c, y, sign)
                else:
                    continue  # x is 1 and matched the sign
                break
    return loops


def _flip(cr: tuple[int, ...]) -> tuple[int, ...]:
    # turning a tangle over reverses the cyclic order and swaps over/under;
    # strand succession and the crossing sign survive
    a, b, c, d, sign = cr
    return (b, a, d, c, 1) if sign > 0 else (d, c, b, a, -1)


def _side_groups(crossings: Sequence[tuple[int, ...]], i: int, part: list[int]) -> list[list[int]]:
    """Connected groups of the other crossings of i's part, crossing i cut out.

    part lists the crossing indices of i's connected part; the groups
    are sorted by size, then by their indices.  They are also the groups
    of i's oriented smoothing: on a planar diagram each side of a cut
    crossing holds one arc arriving at it and one leaving it, consecutive
    around it, so both of the smoothing's arc pairs lie within one side.
    """
    groups: list[tuple[set[int], list[int]]] = []  # each group's arcs and crossings
    for k in part:
        if k != i:
            arcs, members = set(crossings[k][:4]), [k]
            for g in [g for g in groups if not g[0].isdisjoint(arcs)]:
                groups.remove(g)
                arcs |= g[0]
                members += g[1]
            groups.append((arcs, members))
    return sorted((sorted(m) for _, m in groups), key=lambda g: (len(g), g))


def find_nugatory(d: OrientedDiagram) -> tuple[int, list[int]] | None:
    """A crossing whose oriented smoothing disconnects its own part, plus
    the smaller side within that part.

    Only a cut crossing of the crossing graph can qualify: smoothing adds
    edges between the crossing's neighbours, which never splits a part
    that stays connected without the crossing.  A crossing separates its
    part exactly when some face meets it at two corners (Mohar and
    Thomassen, Graphs on Surfaces, ch. 2).  So does a kink crossing: the
    face around its loop meets it at both ends of the loop.  A kink never
    confirms, as cutting it out leaves the other crossings joined, so the
    side-group test on its part stays and confirms candidates in index
    order; on planar diagrams the first cut crossing always confirms.
    The candidates come from one walk of the corner table
    (:func:`_met_twice`), which lists no faces.
    """
    twice = _met_twice(d.crossings) if d.crossing_count >= 2 else None
    return _find_nugatory(d.crossings, d._blocks, twice) if twice else None


def _find_nugatory(
    crossings: Sequence[tuple[int, ...]], first: list[int], twice: set[int]
) -> tuple[int, list[int]] | None:
    """find_nugatory, given the candidates twice, on crossings whose parts
    the label-block table first gives (:func:`_parts`)."""
    part = {ci: group for group in _parts(crossings, first) for ci in group}
    for i in sorted(twice):
        groups = _side_groups(crossings, i, part[i])
        if len(groups) >= 2:
            return (i, groups[0])
    return None


def _untwist(crossings: list[tuple[int, ...]], first: list[int]) -> int | None:
    """simplify's round once :func:`_shed` finds nothing: the first
    nugatory crossing untwisted in place, one side turned over, in the
    kept labels; returns the free loops closed, None when there is none.
    Turning a side over rewrites first slots, so the crossings are left
    unsorted.  Any count of crossings is accepted; simplify calls it
    only from five.  first is the label-block table of the diagram whose
    labels the crossings keep; its last entry, that diagram's 2c + 1,
    bounds them."""
    twice = _met_twice(crossings, first[-1])
    if not twice:
        return None
    nug = _find_nugatory(crossings, first, twice)
    if nug is None:
        return None
    i, side = nug
    a, b, c, e, sign = crossings[i]
    side = set(side)
    crossings[:] = [_flip(cr) if k in side else cr for k, cr in enumerate(crossings) if k != i]
    over_in, over_out = (b, e) if sign > 0 else (e, b)
    return _rejoin(crossings, _joined(a, c, over_in, over_out))


def _ranked(crossings: list[tuple[int, ...]], first: list[int], free_loops: int) -> OrientedDiagram:
    """The diagram of sorted crossings whose labels a run of removals
    kept from a walk-order diagram with blocks first, each label
    renumbered to its rank, with its label-block table.

    A merged run is consecutive along its strand and keeps the label of
    the arc leaving it (:func:`_rejoin`), so each block keeps its labels
    in its range of first, increasing from its smallest one also when a
    run crossed the block's wrap.  Ranks therefore number the walk, keep
    the crossings sorted, and make a block's first label the rank of its
    smallest kept one.  A block left with no label closed into a free
    loop.
    """
    present = [0] * first[-1]
    for a, b, c, d, _ in crossings:
        present[a] = present[b] = present[c] = present[d] = 1
    rank = list(accumulate(present))
    blocks = [rank[s - 1] + 1 for s, e in zip(first, first[1:]) if rank[e - 1] > rank[s - 1]]
    blocks.append(rank[-1] + 1)
    rows = tuple([(rank[a], rank[b], rank[c], rank[d], sign) for a, b, c, d, sign in crossings])
    return _walk_ordered(rows, free_loops, blocks)


def simplify(d: OrientedDiagram) -> OrientedDiagram:
    """Apply crossing-removing moves until none fires.

    Every step strictly drops the crossing count, so this terminates in
    at most crossing_count rounds and never changes the link.  A diagram
    on which no move fires is returned as the same object.

    The moves are looked for in the crossings sorted, a kink before a
    poke pair before a nugatory crossing, so listing the same crossings
    in another order gives the same result.  The run works in a list of
    plain tuples in d's labels: a round of kinks and poke pairs is one
    function, :func:`_shed`, and the nugatory test, run when the corner
    walk finds a candidate, reads the same tuples (:func:`_untwist`).
    Each removal names a merged run of arcs by the arc leaving it
    (:func:`_rejoin`), and one pass at the end gives each label its rank
    (:func:`_ranked`).  That is the diagram a renumbering in walk order
    after every removal gives: each such renumbering only ranks the kept
    labels, and ranks compose.  The moves read label equalities, the
    sorted order and the blocks alone, which ranks keep, so the same
    moves fire.  d's labels are 1..2c, so every label-indexed list is
    sized from the crossing count.

    The list stays sorted through a kink or poke removal: it is ordered
    by its first slots, the under-in arcs, which are all distinct, and
    :func:`_rejoin` rewrites only the other slots.  An untwist turns a
    side over, which rewrites first slots, so the loop sorts only after
    an untwist.

    The nugatory test runs only from five crossings.  When no kink and
    no poke pair is left, each of a nugatory crossing's four ends reaches
    another crossing, and cutting it out leaves two sides or more, each
    meeting it at an even number of ends, so two sides meeting it at two.  A side of one crossing
    would join that crossing's other two ends to each other, a kink; so
    each side holds two crossings or more, and the part five or more.
    Below five crossings the loop stops without walking the corner
    table.  The floor is tight: the closure of the 4-braid
    s1 s1 s2 s3 s3 has five crossings, no kink, no poke pair and a
    nugatory crossing.

    The result is marked, and a marked diagram is returned at once.  On
    the switch of a marked diagram at crossing s only a poke pair through
    s can fire: a switch keeps every arc, so the crossing graph, every
    kink test, every crossing's oriented smoothing and every poke test
    between two other crossings are those of the marked diagram.
    :func:`switch` marks that switch when it has no such pair; when it
    has one, the first round finds no kink and removes that pair.
    """
    if d._simple:
        return d
    crossings = sorted(d.crossings)
    size = 2 * len(crossings) + 1
    free_loops = d.free_loops
    while crossings:
        loops = _shed(crossings, size)
        if loops is None:
            if len(crossings) < 5:
                break
            loops = _untwist(crossings, d._blocks)
            if loops is None:
                break
            crossings.sort()
        free_loops += loops
    out = d if len(crossings) == d.crossing_count else _ranked(crossings, d._blocks, free_loops)
    object.__setattr__(out, "_simple", True)
    return out


# -- planar faces -------------------------------------------------------------


def _corner_successors(crossings: Sequence[tuple[int, ...]], size: int) -> list[int]:
    """The corner table: corner 4 * ci + s -> the next corner of its face.

    The corner (ci, s) walks the arc at slot s away from crossing ci; at
    the arc's other place (cj, t) its face turns to the corner (cj, t + 1).
    The labels must each appear twice, and lie below size, which the
    caller gives (simplify's 2c + 1, or the diagram's in :func:`faces`):
    the corner where each label is first met is kept in a label-indexed
    list.
    """
    nxt = [0] * (4 * len(crossings))
    first = [-1] * size
    k = 0
    for cr in crossings:
        for arc in cr[:4]:
            j = first[arc]
            if j < 0:
                first[arc] = k
            else:
                nxt[k] = (j & ~3) | ((j + 1) & 3)
                nxt[j] = (k & ~3) | ((k + 1) & 3)
            k += 1
    return nxt


def faces(d: OrientedDiagram) -> list[list[tuple[int, int]]]:
    """Faces of the planar embedding encoded by the counterclockwise tuples.

    Each face is a cyclic list of half-edges (crossing index, slot); the
    corner (ci, s) walks the arc at that slot away from crossing ci.  For
    a connected diagram Euler's formula gives c + 2 faces.  Crossingless
    components do not appear.  Faces are listed by their smallest corner,
    and each starts there.
    """
    nxt = _corner_successors(d.crossings, 2 * d.crossing_count + 1)
    seen = [False] * len(nxt)
    out: list[list[tuple[int, int]]] = []
    for start in range(len(nxt)):
        if seen[start]:
            continue
        face = []
        cur = start
        while True:
            face.append(divmod(cur, 4))
            seen[cur] = True
            cur = nxt[cur]
            if cur == start:
                break
        out.append(face)
    return out


def _met_twice(crossings: Sequence[tuple[int, ...]], size: int = 0) -> set[int]:
    """The indices of the crossings that some face meets at two corners.

    One walk of the corner table, face after face: a crossing met again
    in the face that met it last is met twice.  The labels lie below
    size, by default 2c + 1, as in walk-order labels.
    """
    nxt = _corner_successors(crossings, size or 2 * len(crossings) + 1)
    seen = [False] * len(nxt)
    last_face = [-1] * len(crossings)
    twice: set[int] = set()
    for start in range(len(nxt)):
        cur = start
        while not seen[cur]:
            seen[cur] = True
            ci = cur >> 2
            if last_face[ci] == start:
                twice.add(ci)
            last_face[ci] = start
            cur = nxt[cur]
    return twice


def arriving_slots(cr: tuple[int, ...]) -> tuple[int, int]:
    """Slots where arcs arrive at this crossing (under-in and over-in)."""
    return (_UNDER_IN, _OVER_B if cr[4] > 0 else _OVER_D)


def leaving_slots(cr: tuple[int, ...]) -> tuple[int, int]:
    return (_UNDER_OUT, _OVER_D if cr[4] > 0 else _OVER_B)
