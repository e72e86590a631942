"""Oriented link diagrams as planar diagram (PD) codes.

A crossing is a tuple (a, b, c, d) of arc labels listed counterclockwise
starting from the incoming under-strand arc a; c is the outgoing
under-strand arc.  Arc labels run 1..2c, each appearing exactly twice,
and increase along the orientation within each link component (with a
single wrap-around per component).  Crossingless components are carried
as a bare free-loop count.

The over-strand direction at a crossing follows arc succession: the
crossing is positive when the over-strand runs b -> d.  Text codes do not
store the sign, so :func:`parse_pd` recovers arc directions from the
under-strand anchors and the succession of labels; the rare text codes
where both readings are consistent (a two-arc component that never runs
under) parse with the b -> d reading.  Internally every crossing carries
its sign explicitly, and all diagram operations preserve it.
:func:`validate` checks the labels, the succession along each component
and Euler's count of faces, so :func:`parse_pd` rejects a code that is
not planar.

Instances are immutable; all operations return new diagrams.  The two
skein operations at a crossing, :func:`switch` and :func:`smooth`, and
the crossing-removing moves behind :func:`simplify` (kink removal,
lifting a strand poked under or over another, untwisting a crossing
whose oriented smoothing disconnects its part) are defined here, so the
polynomial, the rewrite and the search modules all build on this one
without importing each other.  Each move's finder is a single linear
pass; the nugatory test takes as candidates the crossings that some
face meets at two corners, which are the cut crossings of the crossing
graph and the kink crossings.  A diagram that simplify returned is
marked as such, and so is its switch at a crossing, which simplify then
checks for a poke pair through that crossing alone.  The arc-incidence
helpers (each arc's two places, where each arc arrives, the connected
groups of crossings, a union-find over arcs) are defined here once; the
polynomial and rewrite modules take them from here.  A move that
removes crossings resolves the union-find roots of the few arcs it
merges only, then builds the succession of arcs once, and that pass
both counts the closed loops and renumbers.

:func:`canonical_code` names a diagram up to renaming its arcs and
reordering its crossings; the solver, the polynomial cache and the
unlink recognizer all key their tables on it.  It labels each connected
part by traversal from a start arc and keeps the smallest relabeling.
One pass over the part gives every start's first relabeled crossing,
and only the starts whose first crossing is smallest are labeled in
full, at O(c log c) each for a part with c crossings; these are few
except on diagrams with symmetries.  The code is computed once per
diagram object and stored on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple


class Crossing(NamedTuple):
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
    """An oriented link diagram: signed crossings plus free loops."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    # filled in by canonical_code; not part of equality, hash or repr
    _code: str | None = field(default=None, init=False, repr=False, compare=False)
    # set by simplify on what it returns (no move fires on it), and by
    # switch on the switch of such a diagram (the switched crossing);
    # hidden like _code
    _simple: bool = field(default=False, init=False, repr=False, compare=False)
    _switched: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.free_loops < 0:
            raise ValueError("free_loops must be >= 0")
        if not self.crossings and self.free_loops == 0:
            raise ValueError("empty diagram: no crossings and no free loops")
        for cr in self.crossings:
            if cr.sign not in (1, -1):
                raise ValueError("crossing sign must be +1 or -1: %r" % (cr,))

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def is_crossingless(self) -> bool:
        return not self.crossings

    def __repr__(self) -> str:
        return "OrientedDiagram(%s)" % pd_text(self)


# -- text form ----------------------------------------------------------------

_X_RE = re.compile(r"^X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]$")


def parse_pd(text: str) -> OrientedDiagram:
    """Parse a PD code such as "X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]".

    "O" items denote crossingless components.  Raises ValueError on
    malformed items, arc-label multiplicity errors, or labelings that do
    not trace out consistent oriented components.
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
    signs = _infer_signs(tuples)
    crossings = tuple(Crossing(a, b, c, d, s) for (a, b, c, d), s in zip(tuples, signs))
    diagram = OrientedDiagram(crossings, free_loops)
    validate(diagram)
    return diagram


def pd_text(d: OrientedDiagram) -> str:
    items = ["X[%d,%d,%d,%d]" % cr.arcs() for cr in d.crossings]
    items.extend("O" for _ in range(d.free_loops))
    return ";".join(items)


def _occurrences(tuples: Iterable[tuple[int, ...]]) -> dict[int, list[tuple[int, int]]]:
    """arc label -> its places (crossing index, slot), in crossing order.

    A Crossing is a tuple whose first four entries are its slots, so the
    crossings of a diagram can be passed as they are.
    """
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, tup in enumerate(tuples):
        for slot in range(4):
            occ.setdefault(tup[slot], []).append((ci, slot))
    return occ


def _other_place(
    occ: dict[int, list[tuple[int, int]]], arc: int, place: tuple[int, int]
) -> tuple[int, int]:
    """The place of arc at its other end from place."""
    places = occ[arc]
    return places[1] if places[0] == place else places[0]


def _check_labels(occ: dict[int, list[tuple[int, int]]], n: int) -> None:
    """Each arc label appears twice, and the labels are 1..2n."""
    bad = [label for label, places in occ.items() if len(places) != 2]
    if bad:
        label = min(bad)
        raise ValueError("arc label %d appears %d times (expected 2)" % (label, len(occ[label])))
    # 2n labels, each twice, fill the 4n slots: they are 1..2n exactly
    # when the smallest is 1 and the largest 2n
    if n and (min(occ) != 1 or max(occ) != 2 * n):
        raise ValueError("arc labels must be exactly 1..%d" % (2 * n))


def _infer_signs(tuples: list[tuple[int, int, int, int]]) -> list[int]:
    """Recover crossing signs from a bare PD code.

    Directions propagate from the under-strand slots (a arrives, c
    leaves): each arc has one head and one tail occurrence, and each over
    pair holds one arriving and one leaving arc.  A worklist carries each
    newly known place to the other end of its arc and to the opposite
    slot of its crossing.  Arc succession settles whatever propagation
    cannot reach, one unanchored crossing at a time: each reading is
    propagated before the next crossing is read, so a strand that only
    runs over gets one direction throughout.
    """
    n = len(tuples)
    occ = _occurrences(tuples)
    _check_labels(occ, n)

    # role[ci][slot]: True if the arc arrives at this slot, False if it
    # leaves, None if not yet known.  The under pair is opposite from the
    # start, so every slot's opposite (slot ^ 2) must take the other role.
    role: list[list[bool | None]] = [[True, None, False, None] for _ in range(n)]

    def propagate(todo: list[tuple[int, int]]) -> None:
        while todo:
            ci, slot = todo.pop()
            r = role[ci][slot]
            arc_end = _other_place(occ, tuples[ci][slot], (ci, slot))
            for cj, t in (arc_end, (ci, slot ^ 2)):
                if role[cj][t] is None:
                    role[cj][t] = not r
                    todo.append((cj, t))
                elif role[cj][t] == r:
                    if cj == ci and t == slot ^ 2:
                        raise ValueError("over strand at crossing %d has no consistent direction" % ci)
                    raise ValueError(
                        "arc %d cannot both arrive at and leave its endpoints" % tuples[ci][slot]
                    )

    propagate([(ci, slot) for ci in range(n) for slot in (_UNDER_IN, _UNDER_OUT)])
    for ci in range(n):
        if role[ci][_OVER_B] is None:
            # never anchored by an under passage: fall back to label
            # succession (b -> d wins when both readings close up), then
            # carry that direction along the whole strand before the next
            # unanchored crossing is read on its own
            b, d = tuples[ci][_OVER_B], tuples[ci][_OVER_D]
            if d == b + 1:
                arrives_at_b = True
            elif b == d + 1:
                arrives_at_b = False
            else:
                # the succession must wrap a component block: max -> min
                arrives_at_b = b > d
            role[ci][_OVER_B] = arrives_at_b
            propagate([(ci, _OVER_B)])

    return [1 if role[ci][_OVER_B] else -1 for ci in range(n)]


# -- structural queries -------------------------------------------------------


def _succession(crossings: Iterable[tuple[int, ...]]) -> dict[int, int]:
    """succ[x] = arc following x along its strand, from (a, b, c, d, sign) tuples."""
    succ: dict[int, int] = {}
    for a, b, c, d, sign in crossings:
        if sign < 0:
            b, d = d, b
        if a in succ:
            raise ValueError("arc %d continues in two different ways" % a)
        succ[a] = c
        if b in succ:
            raise ValueError("arc %d continues in two different ways" % b)
        succ[b] = d
    return succ


def _cycles(succ: dict[int, int]) -> list[list[int]]:
    """The cycles of succ, ordered by their smallest arc.

    Each cycle is walked from the smallest arc not yet seen, which is the
    smallest arc of its cycle, so every cycle starts at its smallest arc.
    """
    seen: set[int] = set()
    cycles: list[list[int]] = []
    for start in sorted(succ):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        x = succ[start]
        while x != start:
            if x in seen or x not in succ:
                raise ValueError("arc succession does not close into cycles at arc %d" % x)
            cycle.append(x)
            seen.add(x)
            x = succ[x]
        cycles.append(cycle)
    return cycles


def component_cycles(d: OrientedDiagram) -> list[list[int]]:
    """Arc cycles of the crossing-bearing components, ordered by min arc,
    each starting at its min arc."""
    return _cycles(_succession(d.crossings))


def component_count(d: OrientedDiagram) -> int:
    return len(component_cycles(d)) + d.free_loops


def writhe(d: OrientedDiagram) -> int:
    return sum(cr.sign for cr in d.crossings)


def validate(d: OrientedDiagram) -> None:
    """Check the full labeling contract and planarity; raises ValueError on violation.

    Planarity is Euler's count: the counterclockwise tuples embed each
    connected part of c crossings in a sphere exactly when it has c + 2
    faces.
    """
    occ = _occurrences(d.crossings)
    _check_labels(occ, d.crossing_count)
    for cycle in component_cycles(d):
        lo = cycle[0]
        if cycle != list(range(lo, lo + len(cycle))):
            raise ValueError("broken cyclic arc sequence in component containing arc %d" % lo)
    found = len(faces(d, occ))
    need = d.crossing_count + 2 * len(_crossing_groups(d))
    if found != need:
        raise ValueError("not planar: the Euler count needs %d faces, found %d" % (need, found))


# -- relabeling ---------------------------------------------------------------


def renormalize(crossings: Iterable[Crossing], free_loops: int) -> OrientedDiagram:
    """Relabel arbitrary integer arcs to the contiguous 1..2c convention.

    Components are ordered by their smallest current label and each starts
    at its smallest current label; crossings are sorted for determinism.
    Plain (a, b, c, d, sign) tuples are accepted as crossings.
    """
    crossings = tuple(crossings)
    return _renumbered(crossings, _succession(crossings), free_loops)


def _renumbered(
    crossings: tuple[tuple[int, ...], ...], succ: dict[int, int], free_loops: int
) -> OrientedDiagram:
    """renormalize's result, given the succession of crossings."""
    m = {x: k for k, x in enumerate(chain.from_iterable(_cycles(succ)), 1)}
    relabeled = sorted((m[a], m[b], m[c], m[d], sign) for a, b, c, d, sign in crossings)
    return OrientedDiagram(tuple(map(Crossing._make, relabeled)), free_loops)


def canonical_code(d: OrientedDiagram) -> str:
    """Label-independent serialization of the diagram.

    Two diagrams get the same code exactly when one is the other with
    its arcs renamed and its crossings listed in another order.  Each
    connected part is coded by :func:`_part_code`; the part codes are
    sorted and joined with "/", and "|L<n>" counts the free loops.  The
    code is computed once per diagram object and kept on it.
    """
    code = d._code
    if code is None:
        parts = sorted(_part_code([d.crossings[ci] for ci in g]) for g in _crossing_groups(d))
        code = "/".join(parts) + "|L%d" % d.free_loops
        object.__setattr__(d, "_code", code)
    return code


def _part_code(crossings: list[Crossing]) -> str:
    """Canonical code of one connected part, by traversal labeling.

    From a start arc, label that arc's component 1, 2, ... along its
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
    each arc's component and position along it give it without the
    traversal.  c lies on the start's component, and b and d, one over
    strand, lie on one component.  An arc on the start's component is
    labeled by its distance from the start along it.  Otherwise the
    traversal, done with the start's component of length n, opens the
    next one at b: L(b) = n + 1, and d is labeled by its distance from
    b.  Only the starts whose first tuple is the smallest are labeled in
    full.
    """
    succ: dict[int, int] = {}
    head: dict[int, Crossing] = {}
    for cr in crossings:
        a, b, c, d, sign = cr
        if sign < 0:
            b, d = d, b
        succ[a] = c
        succ[b] = d
        head[a] = head[b] = cr
    # arc -> (component number, position along it); component lengths
    place: dict[int, tuple[int, int]] = {}
    length: list[int] = []
    for x0 in succ:
        if x0 in place:
            continue
        k, n, x = len(length), 0, x0
        while x not in place:
            place[x] = (k, n)
            n += 1
            x = succ[x]
        length.append(n)
    # each start's first tuple
    keys = []
    for a, b, c, d, sign in crossings:
        k, p = place[a]
        n = length[k]
        kb, pb = place[b]
        pd = place[d][1]  # d follows or precedes b: it is on b's component
        if kb == k:
            lb, ld = (pb - p) % n + 1, (pd - p) % n + 1
        else:
            lb = n + 1
            ld = lb + (pd - pb) % length[kb]
        keys.append(((1, lb, (place[c][1] - p) % n + 1, ld, sign), a))
    first = min(keys)[0]
    starts = [a for key, a in keys if key == first]
    best = min(
        sorted(
            (label[cr.a], label[cr.b], label[cr.c], label[cr.d], cr.sign)
            for cr in crossings
        )
        for label in (_traversal_labels(start, succ, head) for start in starts)
    )
    return ";".join("%d,%d,%d,%d,%d" % t for t in best)


def _traversal_labels(start: int, succ: dict[int, int], head: dict[int, Crossing]) -> dict[int, int]:
    """Arc -> label for the traversal labeling of a connected part from start."""
    label: dict[int, int] = {}
    order: list[int] = []
    nxt = start
    scan = 0
    while True:
        x = nxt
        while x not in label:
            order.append(x)
            label[x] = len(order)
            x = succ[x]
        if len(order) == len(succ):
            return label
        # the first labeled arc whose head crossing still has an
        # unlabeled arc; arcs before it have fully labeled heads
        while True:
            cr = head[order[scan]]
            nxt = next((y for y in (cr.a, cr.b, cr.c, cr.d) if y not in label), None)
            if nxt is not None:
                break
            scan += 1


def mirror(d: OrientedDiagram) -> OrientedDiagram:
    """Exchange over and under strands at every crossing (negates signs).

    Arc labels are untouched: the strands and their orientations do not
    move, only their vertical order at each crossing flips.
    """
    return OrientedDiagram(tuple(_exchange(cr) for cr in d.crossings), d.free_loops)


def _exchange(cr: Crossing) -> Crossing:
    """cr with its over and under strands exchanged; the sign negates."""
    if cr.sign > 0:
        return Crossing(cr.b, cr.c, cr.d, cr.a, -1)
    return Crossing(cr.d, cr.a, cr.b, cr.c, 1)


# -- skein operations ----------------------------------------------------------


def switch(d: OrientedDiagram, i: int) -> OrientedDiagram:
    """Exchange over and under strands at crossing i (negates its sign).

    Arc labels and strand succession are untouched, so the result needs
    no relabeling and traversal order is stable under repeated switches.
    The switch of a diagram that simplify returned remembers i, so that
    simplify need only look for poke pairs through crossing i.
    """
    if not 0 <= i < d.crossing_count:
        raise IndexError(f"crossing index {i} out of range")
    new = _exchange(d.crossings[i])
    out = OrientedDiagram(d.crossings[:i] + (new,) + d.crossings[i + 1 :], d.free_loops)
    if d._simple:
        object.__setattr__(out, "_switched", i)
    return out


def smooth(d: OrientedDiagram, i: int) -> OrientedDiagram:
    """Oriented resolution: erase crossing i, joining in-arcs to out-arcs."""
    if not 0 <= i < d.crossing_count:
        raise IndexError(f"crossing index {i} out of range")
    rest = d.crossings[:i] + d.crossings[i + 1 :]
    return _rewire(rest, _smoothing_pairs(d.crossings[i]), d.free_loops)


def _smoothing_pairs(cr: Crossing) -> list[tuple[int, int]]:
    """The arc pairs the oriented smoothing of cr joins, in-arc to out-arc."""
    if cr.sign > 0:
        return [(cr.a, cr.d), (cr.b, cr.c)]
    return [(cr.a, cr.b), (cr.d, cr.c)]


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a path-halving union-find; an unseen x is its own root."""
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict[int, int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


def _rewire(
    crossings: Iterable[Crossing],
    merges: Iterable[tuple[int, int]],
    free_loops: int,
) -> OrientedDiagram:
    """Glue arcs pairwise and rebuild a normalized diagram.

    Merge chains that no longer touch any crossing close up into free
    loops (one per chain); arcs of removed crossings that appear in no
    merge vanish outright, which is what kink contraction needs.
    """
    parent: dict[int, int] = {}
    for x, y in merges:
        _union(parent, x, y)
    # only merged arcs move; every other arc is its own root
    root = {x: _find(parent, x) for x in parent}
    get = root.get
    relabeled = tuple(
        (get(a, a), get(b, b), get(c, c), get(d, d), sign) for a, b, c, d, sign in crossings
    )
    succ = _succession(relabeled)
    # every arc of a crossing continues somewhere, so a root that is not
    # in succ touches no crossing: its merge chain closed into a loop
    loops = sum(1 for r in set(root.values()) if r not in succ)
    return _renumbered(relabeled, succ, free_loops + loops)


# -- connectivity -------------------------------------------------------------


def _crossing_groups(d: OrientedDiagram) -> list[list[int]]:
    """Connected groups of crossing indices (shared arcs connect), in
    ascending order of their first index, each group ascending.

    The crossings are the vertices of the crossing graph; every arc that
    joins two different crossings is an edge, and an arc with both ends
    at one crossing is ignored.
    """
    first: dict[int, int] = {}
    adj: list[list[int]] = [[] for _ in d.crossings]
    for ci, cr in enumerate(d.crossings):
        for arc in cr[:4]:
            cj = first.setdefault(arc, ci)
            if cj != ci:
                adj[ci].append(cj)
                adj[cj].append(ci)
    seen = [False] * len(adj)
    groups: list[list[int]] = []
    for ci in range(len(adj)):
        if seen[ci]:
            continue
        seen[ci] = True
        group = [ci]
        for u in group:  # breadth-first: the list grows as it is read
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    group.append(v)
        group.sort()
        groups.append(group)
    return groups


def is_split(d: OrientedDiagram) -> bool:
    groups = _crossing_groups(d)
    parts = len(groups) + d.free_loops
    return parts > 1


def split_components(d: OrientedDiagram) -> list[OrientedDiagram]:
    """Maximal connected subdiagrams, free loops last as singletons."""
    parts = [
        renormalize((d.crossings[ci] for ci in group), 0)
        for group in _crossing_groups(d)
    ]
    parts.extend(OrientedDiagram((), 1) for _ in range(d.free_loops))
    return parts


def disjoint_union(d1: OrientedDiagram, d2: OrientedDiagram) -> OrientedDiagram:
    offset = 2 * d1.crossing_count
    shifted = tuple(
        Crossing(cr.a + offset, cr.b + offset, cr.c + offset, cr.d + offset, cr.sign)
        for cr in d2.crossings
    )
    return renormalize(d1.crossings + shifted, d1.free_loops + d2.free_loops)


# -- crossing-removing moves ---------------------------------------------------
#
# Each finder is one linear pass, so a round of simplify costs O(c).


def find_kink(d: OrientedDiagram) -> int | None:
    """Index of a crossing whose over and under passages share an arc."""
    for i, cr in enumerate(d.crossings):
        if cr.b == cr.c or cr.a == cr.d or cr.c == cr.d or cr.a == cr.b:
            return i
    return None


def remove_kink(d: OrientedDiagram, i: int) -> OrientedDiagram:
    cr = d.crossings[i]
    if cr.b == cr.c:
        merge = (cr.a, cr.d)
    elif cr.a == cr.d:
        merge = (cr.b, cr.c)
    elif cr.c == cr.d:
        merge = (cr.a, cr.b)
    elif cr.a == cr.b:
        merge = (cr.d, cr.c)
    else:
        raise ValueError("crossing %d carries no kink" % i)
    rest = d.crossings[:i] + d.crossings[i + 1 :]
    return _rewire(rest, [merge], d.free_loops)


def find_poke_pair(d: OrientedDiagram) -> tuple[int, int] | None:
    """A pair (i, j) joined by an over-over arc and an under-under arc.

    Both connecting arcs have no other crossings on them, so the upper
    strand lifts off regardless of what else sits near the bigon; the
    crossing signs are necessarily opposite on realizable diagrams.
    An arc arrives at one crossing only, so the crossing whose over-in
    is crossing i's over-out is a single lookup.
    """
    by_over_in = {cr.over_in(): j for j, cr in enumerate(d.crossings)}
    for i, ci in enumerate(d.crossings):
        j = by_over_in.get(ci.over_out())
        if j is not None and j != i and _under_joined(ci, d.crossings[j]):
            return (i, j)
    return None


def _under_joined(ci: Crossing, cj: Crossing) -> bool:
    """Do the under strands of ci and cj share an arc?"""
    return ci.c == cj.a or cj.c == ci.a


def _poke_pair_through(d: OrientedDiagram, s: int) -> tuple[int, int] | None:
    """find_poke_pair's answer on a diagram whose poke pairs all include
    crossing s: the pairs through s, tried in find_poke_pair's order."""
    cs = d.crossings[s]
    for i, ci in enumerate(d.crossings):
        if i == s:
            j = next((k for k, ck in enumerate(d.crossings) if ck.over_in() == cs.over_out()), None)
        else:
            j = s if ci.over_out() == cs.over_in() else None
        if j is not None and j != i and _under_joined(ci, d.crossings[j]):
            return (i, j)
    return None


def remove_poke_pair(d: OrientedDiagram, i: int, j: int) -> OrientedDiagram:
    ci, cj = d.crossings[i], d.crossings[j]
    e1 = ci.over_out()
    if cj.over_in() != e1:
        raise ValueError("crossings %d, %d share no over-over arc" % (i, j))
    merges = [(ci.over_in(), e1), (e1, cj.over_out())]
    if ci.c == cj.a:
        merges += [(ci.a, ci.c), (ci.c, cj.c)]
    elif cj.c == ci.a:
        merges += [(cj.a, cj.c), (cj.c, ci.c)]
    else:
        raise ValueError("crossings %d, %d share no under-under arc" % (i, j))
    rest = tuple(cr for k, cr in enumerate(d.crossings) if k not in (i, j))
    return _rewire(rest, merges, d.free_loops)


def _flip(cr: Crossing) -> Crossing:
    # turning a tangle over reverses the cyclic order and swaps over/under;
    # strand succession and the crossing sign survive
    if cr.sign > 0:
        return Crossing(cr.b, cr.a, cr.d, cr.c, 1)
    return Crossing(cr.d, cr.c, cr.b, cr.a, -1)


def _side_groups(d: OrientedDiagram, i: int, part: list[int]) -> list[list[int]]:
    """Connected groups of the other crossings of i's part, crossing i smoothed.

    part lists the crossing indices of i's connected part; the groups
    are sorted by size, then by their indices.
    """
    parent: dict[int, int] = {}
    for k in part:
        if k == i:
            continue
        arcs = d.crossings[k].arcs()
        for arc in arcs[1:]:
            _union(parent, arcs[0], arc)
    for x, y in _smoothing_pairs(d.crossings[i]):
        _union(parent, x, y)
    groups: dict[int, list[int]] = {}
    for k in part:
        if k != i:
            groups.setdefault(_find(parent, d.crossings[k].a), []).append(k)
    return sorted(groups.values(), key=lambda g: (len(g), g))


def find_nugatory(d: OrientedDiagram) -> tuple[int, list[int]] | None:
    """A crossing whose oriented smoothing disconnects its own part, plus
    the smaller side within that part.

    Only a cut crossing of the crossing graph can qualify: smoothing adds
    edges between the crossing's neighbours, which never splits a part
    that stays connected without the crossing.  A crossing separates its
    part exactly when some face meets it at two corners (Mohar and
    Thomassen, Graphs on Surfaces, ch. 2).  So does a kink crossing: the
    face around its loop meets it at both ends of the loop.  A kink never
    confirms, as its smoothing leaves the other crossings joined, so the
    side-group test on its part stays and confirms candidates in index
    order; on planar diagrams the first cut crossing always confirms.
    """
    if d.crossing_count < 2:
        return None
    twice: set[int] = set()
    for face in faces(d):
        met: set[int] = set()
        for ci, _ in face:
            if ci in met:
                twice.add(ci)
            met.add(ci)
    if not twice:
        return None
    part = {ci: group for group in _crossing_groups(d) for ci in group}
    for i in sorted(twice):
        groups = _side_groups(d, i, part[i])
        if len(groups) >= 2:
            return (i, groups[0])
    return None


def remove_nugatory(d: OrientedDiagram, i: int, flip_side: Iterable[int]) -> OrientedDiagram:
    """Untwist crossing i by turning one side over."""
    cr = d.crossings[i]
    flip_side = set(flip_side)
    rest = tuple(
        _flip(other) if k in flip_side else other
        for k, other in enumerate(d.crossings)
        if k != i
    )
    merges = [(cr.a, cr.c), (cr.over_in(), cr.over_out())]
    return _rewire(rest, merges, d.free_loops)


def simplify(d: OrientedDiagram) -> OrientedDiagram:
    """Apply crossing-removing moves until none fires.

    Every step strictly drops the crossing count, so this terminates in
    at most crossing_count rounds and never changes the link.  Each
    round is linear in the crossing count; a diagram on which no move
    fires is returned as the same object.

    The result is marked, and a marked diagram is returned at once.  On
    the switch of a marked diagram at crossing s only a poke pair through
    s can fire: a switch keeps every arc, so the crossing graph, every
    kink test, every crossing's oriented smoothing and every poke test
    between two other crossings are those of the marked diagram.  The
    first round there looks for those pairs alone; the full rounds start
    after a removal.
    """
    if d._simple:
        return d
    if d._switched is not None:
        pair = _poke_pair_through(d, d._switched)
        if pair is None:
            object.__setattr__(d, "_simple", True)
            return d
        d = remove_poke_pair(d, *pair)
    while d.crossings:
        i = find_kink(d)
        if i is not None:
            d = remove_kink(d, i)
            continue
        pair = find_poke_pair(d)
        if pair is not None:
            d = remove_poke_pair(d, *pair)
            continue
        nug = find_nugatory(d)
        if nug is not None:
            d = remove_nugatory(d, *nug)
            continue
        break
    object.__setattr__(d, "_simple", True)
    return d


# -- planar faces -------------------------------------------------------------


def faces(
    d: OrientedDiagram, occ: dict[int, list[tuple[int, int]]] | None = None
) -> list[list[tuple[int, int]]]:
    """Faces of the planar embedding encoded by the counterclockwise tuples.

    Each face is a cyclic list of half-edges (crossing index, slot); the
    corner (ci, s) walks the arc at that slot away from crossing ci.  For
    a connected diagram Euler's formula gives c + 2 faces.  Crossingless
    components do not appear.  Faces are listed by their smallest corner,
    and each starts there.  occ, if given, is _occurrences(d.crossings).
    """
    if occ is None:
        occ = _occurrences(d.crossings)
    # corner 4 * ci + s -> the next corner of its face
    nxt = [0] * (4 * d.crossing_count)
    for (ci, s), (cj, t) in occ.values():
        nxt[4 * ci + s] = 4 * cj + (t + 1) % 4
        nxt[4 * cj + t] = 4 * ci + (s + 1) % 4
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


def _heads(d: OrientedDiagram) -> dict[int, tuple[int, int]]:
    """arc -> (crossing index, slot) where the arc arrives."""
    heads: dict[int, tuple[int, int]] = {}
    for ci, cr in enumerate(d.crossings):
        for slot in arriving_slots(cr):
            heads[cr[slot]] = (ci, slot)
    return heads


def arriving_slots(cr: Crossing) -> tuple[int, int]:
    """Slots where arcs arrive at this crossing (under-in and over-in)."""
    return (_UNDER_IN, _OVER_B if cr.sign > 0 else _OVER_D)


def leaving_slots(cr: Crossing) -> tuple[int, int]:
    return (_UNDER_OUT, _OVER_D if cr.sign > 0 else _OVER_B)
