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

Instances are immutable; all operations return new diagrams.  The two
skein operations at a crossing, :func:`switch` and :func:`smooth`, and
the crossing-removing moves behind :func:`simplify` (kink removal,
lifting a strand poked under or over another, untwisting a crossing
whose oriented smoothing disconnects its part) are defined here, so the
polynomial, the rewrite and the search modules all build on this one
without importing each other.  Each move's finder is a single linear
pass; the nugatory test uses a cut-vertex search of the crossing graph.
A diagram that simplify returned is marked as such, and so is its
switch at a crossing, which simplify then checks for a poke pair
through that crossing alone.

:func:`canonical_code` names a diagram up to renaming its arcs and
reordering its crossings; the solver, the polynomial cache and the
unlink recognizer all key their tables on it.  It labels each connected
part by traversal from every candidate start arc and keeps the smallest
relabeling, so a part with c crossings costs O(c) candidates of O(c log c)
each.  The code is computed once per diagram object and stored on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    occ: dict[int, list[tuple[int, int]]] = {}
    for ci, tup in enumerate(tuples):
        for slot in range(4):
            occ.setdefault(tup[slot], []).append((ci, slot))
    return occ


def _infer_signs(tuples: list[tuple[int, int, int, int]]) -> list[int]:
    """Recover crossing signs from a bare PD code.

    Directions propagate from the under-strand slots (a arrives, c
    leaves): each arc has one head and one tail occurrence, and each over
    pair holds one arriving and one leaving arc.  Arc succession settles
    whatever propagation cannot reach, one unanchored crossing at a time:
    each reading is propagated before the next crossing is read, so a
    strand that only runs over gets one direction throughout.
    """
    n = len(tuples)
    occ = _occurrences(tuples)
    for label, places in sorted(occ.items()):
        if len(places) != 2:
            raise ValueError("arc label %d appears %d times (expected 2)" % (label, len(places)))
    expected = set(range(1, 2 * n + 1))
    if n and set(occ) != expected:
        raise ValueError("arc labels must be exactly 1..%d" % (2 * n))

    # role[ci][slot]: True if the arc arrives at this slot, False if it
    # leaves, None if not yet known.
    role: list[list[bool | None]] = [[True, None, False, None] for _ in range(n)]

    def other(ci: int, slot: int) -> tuple[int, int]:
        places = occ[tuples[ci][slot]]
        return places[1] if places[0] == (ci, slot) else places[0]

    def propagate() -> None:
        changed = True
        while changed:
            changed = False
            for ci in range(n):
                for slot in range(4):
                    r = role[ci][slot]
                    if r is None:
                        continue
                    cj, t = other(ci, slot)
                    if role[cj][t] is None:
                        role[cj][t] = not r
                        changed = True
                    elif role[cj][t] == r:
                        raise ValueError(
                            "arc %d cannot both arrive at and leave its endpoints"
                            % tuples[ci][slot]
                        )
                # within one over pair, one arc arrives and one leaves
                rb, rd = role[ci][_OVER_B], role[ci][_OVER_D]
                if rb is None and rd is not None:
                    role[ci][_OVER_B] = not rd
                    changed = True
                elif rd is None and rb is not None:
                    role[ci][_OVER_D] = not rb
                    changed = True
                elif rb is not None and rd is not None and rb == rd:
                    raise ValueError("over strand at crossing %d has no consistent direction" % ci)

    propagate()
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
            role[ci][_OVER_D] = not arrives_at_b
            propagate()

    return [1 if role[ci][_OVER_B] else -1 for ci in range(n)]


# -- structural queries -------------------------------------------------------


def successor_map(d: OrientedDiagram) -> dict[int, int]:
    """succ[x] = arc following x along its strand (a permutation of arcs)."""
    succ: dict[int, int] = {}
    for cr in d.crossings:
        for src, dst in ((cr.a, cr.c), (cr.over_in(), cr.over_out())):
            if src in succ:
                raise ValueError("arc %d continues in two different ways" % src)
            succ[src] = dst
    return succ


def component_cycles(d: OrientedDiagram) -> list[list[int]]:
    """Arc cycles of the crossing-bearing components, ordered by min arc."""
    succ = successor_map(d)
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


def component_count(d: OrientedDiagram) -> int:
    return len(component_cycles(d)) + d.free_loops


def writhe(d: OrientedDiagram) -> int:
    return sum(cr.sign for cr in d.crossings)


def validate(d: OrientedDiagram) -> None:
    """Check the full labeling contract; raises ValueError on violation."""
    occ = _occurrences(cr.arcs() for cr in d.crossings)
    n = d.crossing_count
    for label, places in sorted(occ.items()):
        if len(places) != 2:
            raise ValueError("arc label %d appears %d times (expected 2)" % (label, len(places)))
    if n and set(occ) != set(range(1, 2 * n + 1)):
        raise ValueError("arc labels must be exactly 1..%d" % (2 * n))
    for cycle in component_cycles(d):
        lo = min(cycle)
        k = cycle.index(lo)
        ordered = cycle[k:] + cycle[:k]
        if ordered != list(range(lo, lo + len(cycle))):
            raise ValueError("broken cyclic arc sequence in component containing arc %d" % lo)


# -- relabeling ---------------------------------------------------------------


def _relabel(crossings: Iterable[Crossing], mapping: dict[int, int]) -> tuple[Crossing, ...]:
    return tuple(
        Crossing(mapping[cr.a], mapping[cr.b], mapping[cr.c], mapping[cr.d], cr.sign)
        for cr in crossings
    )


def renormalize(crossings: Iterable[Crossing], free_loops: int) -> OrientedDiagram:
    """Relabel arbitrary integer arcs to the contiguous 1..2c convention.

    Components are ordered by their smallest current label and each starts
    at its smallest current label; crossings are sorted for determinism.
    """
    crossings = tuple(crossings)
    probe = OrientedDiagram(crossings, free_loops) if (crossings or free_loops) else None
    if probe is None:
        raise ValueError("empty diagram: no crossings and no free loops")
    if not crossings:
        return probe
    mapping: dict[int, int] = {}
    nxt = 1
    for cycle in component_cycles(probe):
        lo = min(cycle)
        k = cycle.index(lo)
        for label in cycle[k:] + cycle[:k]:
            mapping[label] = nxt
            nxt += 1
    relabeled = sorted(_relabel(crossings, mapping))
    return OrientedDiagram(tuple(relabeled), free_loops)


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
    are tried as start arcs: those candidates, and no others, contain a
    crossing that starts with label 1, so the smallest candidate is
    always among them.
    """
    succ: dict[int, int] = {}
    head: dict[int, Crossing] = {}
    for cr in crossings:
        succ[cr.a] = cr.c
        succ[cr.over_in()] = cr.over_out()
        head[cr.a] = head[cr.over_in()] = cr
    best = min(
        sorted(
            (label[cr.a], label[cr.b], label[cr.c], label[cr.d], cr.sign)
            for cr in crossings
        )
        for label in (_traversal_labels(start, succ, head) for start in {cr.a for cr in crossings})
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
    out = []
    for cr in d.crossings:
        if cr.sign > 0:
            out.append(Crossing(cr.b, cr.c, cr.d, cr.a, -1))
        else:
            out.append(Crossing(cr.d, cr.a, cr.b, cr.c, 1))
    return OrientedDiagram(tuple(out), d.free_loops)


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
    cr = d.crossings[i]
    if cr.sign > 0:
        new = Crossing(cr.b, cr.c, cr.d, cr.a, -1)
    else:
        new = Crossing(cr.d, cr.a, cr.b, cr.c, 1)
    out = OrientedDiagram(d.crossings[:i] + (new,) + d.crossings[i + 1 :], d.free_loops)
    if d._simple:
        object.__setattr__(out, "_switched", i)
    return out


def smooth(d: OrientedDiagram, i: int) -> OrientedDiagram:
    """Oriented resolution: erase crossing i, joining in-arcs to out-arcs."""
    if not 0 <= i < d.crossing_count:
        raise IndexError(f"crossing index {i} out of range")
    cr = d.crossings[i]
    if cr.sign > 0:
        merges = [(cr.a, cr.d), (cr.b, cr.c)]
    else:
        merges = [(cr.a, cr.b), (cr.d, cr.c)]
    rest = d.crossings[:i] + d.crossings[i + 1 :]
    return _rewire(rest, merges, d.free_loops)


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
    crossings = tuple(crossings)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in merges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    relabeled = tuple(
        Crossing(find(cr.a), find(cr.b), find(cr.c), find(cr.d), cr.sign)
        for cr in crossings
    )
    used = {arc for cr in relabeled for arc in cr.arcs()}
    roots = {find(x) for pair in merges for x in pair}
    loops = sum(1 for r in roots if r not in used)
    return renormalize(relabeled, free_loops + loops)


# -- connectivity -------------------------------------------------------------


def _crossing_groups(d: OrientedDiagram) -> list[list[int]]:
    """Connected groups of crossing indices (shared arcs connect)."""
    n = d.crossing_count
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_arc: dict[int, int] = {}
    for ci, cr in enumerate(d.crossings):
        for arc in cr.arcs():
            if arc in by_arc:
                ra, rb = find(by_arc[arc]), find(ci)
                if ra != rb:
                    parent[ra] = rb
            else:
                by_arc[arc] = ci
    groups: dict[int, list[int]] = {}
    for ci in range(n):
        groups.setdefault(find(ci), []).append(ci)
    return sorted(groups.values(), key=min)


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


def _cut_crossings(d: OrientedDiagram) -> tuple[list[int], list[int]]:
    """Cut crossings of the crossing graph, ascending, and each crossing's part.

    The crossing graph has the crossings as vertices and every arc that
    joins two different crossings as an edge; an arc with both ends at
    one crossing is ignored.  One depth-first pass computes lowpoints
    (Tarjan 1972): a crossing is a cut crossing when removing it
    disconnects its part.  part[k] is the first crossing of k's part.
    """
    n = d.crossing_count
    ends: dict[int, list[int]] = {}
    for ci, cr in enumerate(d.crossings):
        for arc in cr.arcs():
            ends.setdefault(arc, []).append(ci)
    adj: list[list[int]] = [[] for _ in range(n)]
    for x, y in ends.values():
        if x != y:
            adj[x].append(y)
            adj[y].append(x)

    disc = [0] * n  # discovery time, 0 while unvisited
    low = [0] * n
    part = [0] * n
    cuts: set[int] = set()
    t = 0
    for root in range(n):
        if disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        part[root] = root
        root_children = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if not disc[v]:
                    t += 1
                    disc[v] = low[v] = t
                    part[v] = root
                    stack.append((v, iter(adj[v])))
                    break
                # the edge back to u's parent lowers low[u] to at most
                # disc[parent], which leaves the cut test below unchanged
                low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if p == root:
                        root_children += 1
                    elif low[u] >= disc[p]:
                        cuts.add(p)
        if root_children > 1:
            cuts.add(root)
    return sorted(cuts), part


def _side_groups(d: OrientedDiagram, i: int, part: list[int]) -> list[list[int]]:
    """Connected groups of the other crossings of i's part, crossing i smoothed.

    part lists the crossing indices of i's connected part; the groups
    are sorted by size, then by their indices.
    """
    cr = d.crossings[i]
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for k in part:
        if k == i:
            continue
        arcs = d.crossings[k].arcs()
        for arc in arcs[1:]:
            union(arcs[0], arc)
    if cr.sign > 0:
        union(cr.a, cr.d)
        union(cr.b, cr.c)
    else:
        union(cr.a, cr.b)
        union(cr.d, cr.c)
    groups: dict[int, list[int]] = {}
    for k in part:
        if k != i:
            groups.setdefault(find(d.crossings[k].a), []).append(k)
    return sorted(groups.values(), key=lambda g: (len(g), g))


def find_nugatory(d: OrientedDiagram) -> tuple[int, list[int]] | None:
    """A crossing whose oriented smoothing disconnects its own part, plus
    the smaller side within that part.

    Only a cut crossing can qualify: smoothing adds edges between the
    crossing's neighbours, which never splits a part that stays
    connected without the crossing.  Candidates are confirmed in index
    order by the side-group test on their part; on planar diagrams the
    first candidate always confirms.
    """
    if d.crossing_count < 2:
        return None
    cuts, part = _cut_crossings(d)
    for i in cuts:
        members = [k for k, p in enumerate(part) if p == part[i]]
        groups = _side_groups(d, i, members)
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


def faces(d: OrientedDiagram) -> list[list[tuple[int, int]]]:
    """Faces of the planar embedding encoded by the counterclockwise tuples.

    Each face is a cyclic list of half-edges (crossing index, slot); the
    corner (ci, s) walks the arc at that slot away from crossing ci.  For
    a connected diagram Euler's formula gives c + 2 faces.  Crossingless
    components do not appear.
    """
    occ = _occurrences(cr.arcs() for cr in d.crossings)

    def other(ci: int, slot: int) -> tuple[int, int]:
        places = occ[d.crossings[ci].arcs()[slot]]
        return places[1] if places[0] == (ci, slot) else places[0]

    remaining = {(ci, s) for ci in range(d.crossing_count) for s in range(4)}
    out: list[list[tuple[int, int]]] = []
    while remaining:
        start = min(remaining)
        face = []
        cur = start
        while True:
            face.append(cur)
            remaining.discard(cur)
            cj, t = other(*cur)
            cur = (cj, (t + 1) % 4)
            if cur == start:
                break
        out.append(face)
    return out


def arriving_slots(cr: Crossing) -> tuple[int, int]:
    """Slots where arcs arrive at this crossing (under-in and over-in)."""
    return (_UNDER_IN, _OVER_B if cr.sign > 0 else _OVER_D)


def leaving_slots(cr: Crossing) -> tuple[int, int]:
    return (_UNDER_OUT, _OVER_D if cr.sign > 0 else _OVER_B)
