"""Shared fixtures: a small zoo of hand-verified diagrams.

PD codes here are frozen copies of the bundled dataset rows (plus a few
orientations/mirrors); every polynomial, writhe, and depth claim about
them is re-derived in the tests rather than trusted.
"""

import random
import re
from itertools import islice, permutations

import pytest

from skeindepth import (
    Crossing,
    HomflyCache,
    OrientedDiagram,
    SolveContext,
    braid_closure,
    canonical_code,
    component_count,
    compute_td,
    disjoint_union,
    insert_kink,
    mirror,
    parse_braid,
    parse_pd,
    poke_moves,
    polynomial_lower_bound,
    simplify,
    smooth,
    switch,
    triangle_moves,
)
from skeindepth import moves
from skeindepth.diagram import _OVER_B, _OVER_D, _UNDER_IN, _UNDER_OUT, faces, validate
from skeindepth.poly import monomial

# name -> (pd text, components)
FIXTURE_PDS = {
    "unknot": ("O", 1),
    "unlink2": ("O;O", 2),
    "kink+": ("X[2,2,1,1]", 1),
    "hopf+": ("X[1,3,2,4];X[4,2,3,1]", 2),
    "trefoil": ("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]", 1),
    "fig8": ("X[2,7,3,8];X[4,2,5,1];X[6,3,7,4];X[8,6,1,5]", 1),
    "L4a1{0}": ("X[8,2,5,1];X[2,8,3,7];X[6,4,7,3];X[4,6,1,5]", 2),
    "L4a1{1}": ("X[1,5,2,6];X[3,7,4,8];X[6,2,7,3];X[8,4,5,1]", 2),
    "K5a1": ("X[1,4,2,5];X[3,8,4,9];X[5,10,6,1];X[9,6,10,7];X[7,2,8,3]", 1),
    "K5a2": ("X[1,6,2,7];X[3,8,4,9];X[5,10,6,1];X[7,2,8,3];X[9,4,10,5]", 1),
    "L5a1": ("X[2,5,3,6];X[4,7,5,8];X[6,10,1,9];X[8,2,9,1];X[10,3,7,4]", 2),
}

# the monomials of the skein identity, for references built from ring
# operations: P = A2 P(switch) + AZ P(smooth) at a positive crossing,
# P = Am2 P(switch) - AmZ P(smooth) at a negative one
A2, AZ, Am2, AmZ = monomial(1, 2, 0), monomial(1, 1, 1), monomial(1, -2, 0), monomial(1, -1, 1)

# the ones with at least one crossing, for move/skein batteries
CROSSED = [k for k in FIXTURE_PDS if k not in ("unknot", "unlink2")]

# mixed and one-signed braid words whose closures and children feed the
# oracle batteries
ORACLE_WORDS = [
    "p=2: 1 1 1",
    "p=2: -1 -1 1 1",
    "p=3: 1 -2 1 -2",
    "p=3: 1 1 2 -1 2",
    "p=3: 1 2 1 2 1 2",
    "p=3: -1 2 2 -1 -2",
    "p=4: 1 2 3 1 -2 3",
    "p=4: 1 -3 2 2 -1 3",
]


# closures whose HOMFLY-PT expansion is taller than their resolution
# trees, so that solving them needs the depth search: depth 2 (expansion
# height 6), depth 5 (height 5; the z-degree gives 4 and the leading
# coefficient 5), and depth 3 (height 8)
DEPTH2_WORD = "p=3: -2 -2 1 2 1 -2 1 -2"
GAP_WORD = "p=3: 1 1 2 2 2 -1 2 1"
SEARCH_WORDS = [DEPTH2_WORD, GAP_WORD, "p=4: 2 3 -1 2 -3 2 -3 -3 -3 -3"]

# a closure whose answer stays open: the leading coefficient gives 6,
# the expansion's tree has height 9, and a search of 6 nodes finds a
# tree of height 7 and refutes 6 for this diagram, so [6, 7]
INTERVAL_WORD = "p=4: 2 2 3 3 3 2 1 -3 2 3 -2 3 -1 1"

INF = 10**9

# closures whose cold solve, of depth 3, reaches a node below the root
# whose polynomial bound is at least 2
INNER_BOUND_WORDS = ["p=3: 1 2 -1 -1 -1 1 -2 1 -2", "p=4: 1 -2 1 1 -2 -1 3 2"]


def load_values(cache, values):
    """Store values, {code: polynomial}, in cache as a cache file's lines
    give them: each an entry without a tree, over any entry its code
    has."""
    cache.table.update((code, (value, None, None)) for code, value in values.items())


def values_of(cache):
    """{code: polynomial} for every entry of cache."""
    return {code: value for code, (value, _, _) in cache.table.items()}


def expanded_codes(cache):
    """The codes whose entry in cache holds the expansion's tree."""
    return {code for code, (_, _, tree) in cache.table.items() if tree is not None}


def inner_records(d):
    """[(code, polynomial, bound)] for each record of a cold solve of d,
    the root's left out, that has a tree and a polynomial bound >= 2."""
    ctx = SolveContext()
    assert compute_td(d, ctx=ctx).render() == "3"
    root = canonical_code(simplify(d))
    out = []
    for code, (_, _, tree) in ctx.memo.items():
        if code == root or tree is None:
            continue
        value = ctx.homfly_cache.table[code][0]
        bound = polynomial_lower_bound(value, component_count(tree.diagram))
        if bound >= 2:
            out.append((code, value, bound))
    assert out
    return out


def brute_min_height(d, cap):
    """Minimum height over every resolution tree with crossingless
    leaves — no memo, no pruning, no recognizer.  The independent oracle
    for diagram_upper and for the lower bounds on small inputs."""
    d = simplify(d)
    if d.is_crossingless():
        return 0
    if cap == 0:
        return INF
    best = INF
    for i in range(d.crossing_count):
        a = brute_min_height(switch(d, i), cap - 1)
        if a >= INF:
            continue
        b = brute_min_height(smooth(d, i), cap - 1)
        best = min(best, 1 + max(a, b))
    return best


def closure_battery():
    """The ORACLE_WORDS closures, simplified, their simplified switch and
    smoothing children, and the simplified closure of T(3,5)."""
    closures = [simplify(braid_closure(parse_braid(w))) for w in ORACLE_WORDS]
    out = list(closures)
    for d in closures:
        for i in range(d.crossing_count):
            out += [simplify(switch(d, i)), simplify(smooth(d, i))]
    out.append(simplify(braid_closure(parse_braid("p=3: " + " ".join(["1 2"] * 5)))))
    return out


def reference_pokes(d):
    """Every ordered pair of corners e, f of each face: e pushed over f,
    then e pushed under f, drawn as f pushed over e.  Each poke comes
    twice, keyed by its (upper corner, lower corner), and is built once."""
    made = {}
    for face in faces(d):
        for ce, cf in permutations(face, 2):
            for key in ((ce, cf), (cf, ce)):
                if key not in made:
                    made[key] = moves._poke(d, *key)
                if made[key] is not None:
                    yield key, made[key]


def check_pokes_once(d):
    """poke_moves(d) is reference_pokes(d) without its repeats, in
    first-occurrence order; returns how many pokes that is."""
    once = {}
    for key, nd in reference_pokes(d):
        once.setdefault(key, nd)
    assert list(poke_moves(d)) == list(once.values()), d
    return len(once)


def check_slides_once(d):
    """The bottom-strand slides, the top-strand slides of the mirror
    mirrored back, have triangle_moves(d)'s codes, and each simplifies to
    its top-strand twin's code; returns how many slides there are."""
    top = list(triangle_moves(d))
    bottom = [mirror(nd) for nd in triangle_moves(mirror(d))]
    assert sorted(map(canonical_code, bottom)) == sorted(map(canonical_code, top)), d
    twins = {}
    for nd in top:
        twins.setdefault(canonical_code(nd), set()).add(canonical_code(simplify(nd)))
    for nd in bottom:
        assert twins[canonical_code(nd)] == {canonical_code(simplify(nd))}, d
    return len(bottom)


# one central crossing with a kinked lobe on each side: smoothing it
# disconnects the other crossings, so it is nugatory by definition
NUGATORY_PD = "X[1,6,2,7];X[2,5,3,6];X[3,4,4,5];X[10,7,1,8];X[8,9,9,10]"

# five crossings, no kink and no poke pair, and the sigma_2 crossing
# nugatory: a two-sided nugatory crossing needs two crossings on each side
TIGHT_NUGATORY_WORDS = ["p=4: 1 1 2 3 3", "p=4: 1 1 -2 3 3", "p=4: -1 -1 2 -3 -3"]


def finder_battery():
    """Braid closures with their raw and simplified switch and smoothing
    children, poke and kink insertions, and split unions."""
    out = []
    for word in ORACLE_WORDS:
        d = braid_closure(parse_braid(word))
        out.append(d)
        for i in range(d.crossing_count):
            for child in (switch(d, i), smooth(d, i)):
                out += [child, simplify(child)]
    for name in ("hopf+", "trefoil", "fig8"):
        d = parse_pd(FIXTURE_PDS[name][0])
        out += [nd for _, nd in islice(reference_pokes(d), 8)]
        out += [insert_kink(d, arc, v) for arc in (1, 2) for v in range(4)]
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    out += [
        disjoint_union(tref, tref),
        disjoint_union(hopf, tref),
        disjoint_union(insert_kink(tref, 1, 0), hopf),
        disjoint_union(next(poke_moves(hopf)), tref),
        disjoint_union(disjoint_union(hopf, parse_pd("O")), insert_kink(hopf, 2, 3)),
        # a nugatory crossing with sides larger than the other part
        disjoint_union(parse_pd(NUGATORY_PD), parse_pd(FIXTURE_PDS["kink+"][0])),
    ]
    return out


def four_five_strand_draw():
    """Closures of seeded mixed words on 4-5 strands, of length 12-18,
    with the switch and smoothing children of their simplified
    diagrams."""
    rng = random.Random(5)
    out = []
    for _ in range(60):
        p = rng.randint(4, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(12, 18))]
        d = braid_closure(parse_braid("p=%d: %s" % (p, " ".join(map(str, letters)))))
        s = simplify(d)
        out.append(d)
        out += [child(s, i) for i in range(s.crossing_count) for child in (switch, smooth)]
    return out


# a 7-crossing unknot diagram that simplification leaves alone; the
# unlink search proves it after two node expansions
UNKNOT_7_PD = "X[1,6,2,7];X[4,12,5,11];X[7,14,8,1];X[8,5,9,6];X[10,4,11,3];X[12,10,13,9];X[13,3,14,2]"

# a 12-crossing, 4-component unlink met while solving the closure of
# (s1 s2 s3)^4; the search without descent needs minutes to prove it
UNLINK4_12_PD = (
    "X[21,2,22,1];X[15,3,16,2];X[9,4,10,3];X[20,8,21,7];X[14,9,15,8];X[12,6,7,1];"
    "X[19,14,20,13];X[17,11,18,12];X[18,5,13,6];X[22,16,23,17];X[23,10,24,11];X[24,4,19,5]"
)


@pytest.fixture(scope="session")
def diagrams():
    return {name: parse_pd(text) for name, (text, _) in FIXTURE_PDS.items()}


@pytest.fixture(scope="session")
def shared_cache():
    # one polynomial cache for the whole run keeps the batteries fast
    return HomflyCache()


def scrambled(d, rng):
    """d built with its arcs renamed at random and its crossings shuffled.

    The constructor relabels it in walk order, so it is another
    walk-order labeling of d: its components reordered, each walk
    started elsewhere, and its crossings in another order."""
    arcs = sorted({arc for cr in d.crossings for arc in cr[:4]})
    mapping = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 2), len(arcs))))
    crs = [Crossing(mapping[a], mapping[b], mapping[c], mapping[e], s) for a, b, c, e, s in d.crossings]
    rng.shuffle(crs)
    return OrientedDiagram(tuple(crs), d.free_loops)


def over_strand(cr):
    """The over-strand's arcs (in, out) at a crossing (a, b, c, d, sign)."""
    _, b, _, d, sign = cr
    return (b, d) if sign > 0 else (d, b)


def reference_cycles(crossings):
    """The arc cycles of the crossings' components, each from the first
    arc met, read from a successor dict."""
    succ = {}
    for cr in crossings:
        succ[cr[0]] = cr[2]
        over_in, over_out = over_strand(cr)
        succ[over_in] = over_out
    cycles, seen = [], set()
    for start in succ:
        if start not in seen:
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = succ[x]
            cycles.append(cycle)
    return cycles


def walk_order_blocks(crossings):
    """Each block's first label, then 2c + 1, when the crossings' labels
    are 1..2c and each component's cycle, from its smallest label, runs
    up by one; else None."""
    n = 2 * len(crossings)
    cycles = []
    for cycle in reference_cycles(crossings):  # the test's own walk
        k = cycle.index(min(cycle))
        cycles.append(cycle[k:] + cycle[:k])
    cycles.sort()
    if sorted(x for cycle in cycles for x in cycle) != list(range(1, n + 1)):
        return None
    if any(cycle != list(range(cycle[0], cycle[0] + len(cycle))) for cycle in cycles):
        return None
    return [cycle[0] for cycle in cycles] + [n + 1]


def occurrences(tuples):
    """arc label -> its places (crossing index, slot), in crossing order.

    A Crossing is a tuple whose first four entries are its slots, so the
    crossings of a diagram can be passed as they are.
    """
    occ = {}
    for ci, tup in enumerate(tuples):
        for slot in range(4):
            occ.setdefault(tup[slot], []).append((ci, slot))
    return occ


def reference_check_labels(occ, n):
    """The label check read from the places: each arc label appears
    twice, and the labels are 1..2n."""
    bad = [label for label, places in occ.items() if len(places) != 2]
    if bad:
        label = min(bad)
        raise ValueError("arc label %d appears %d times (expected 2)" % (label, len(occ[label])))
    # 2n labels, each twice, fill the 4n slots: they are 1..2n exactly
    # when the smallest is 1 and the largest 2n
    if n and (min(occ) != 1 or max(occ) != 2 * n):
        raise ValueError("arc labels must be exactly 1..%d" % (2 * n))


def reference_signs(tuples):
    """Crossing signs of a bare PD code by the general worklist, which
    reads any labels: directions propagate from the under-strand slots
    (a arrives, c leaves), each arc having one head and one tail
    occurrence and each over pair one arriving and one leaving arc.  A
    worklist carries each newly known place to the other end of its arc
    and to the opposite slot of its crossing.  Arc succession settles
    whatever propagation cannot reach, one unanchored crossing at a
    time: each reading is propagated before the next crossing is read,
    so a strand that only runs over gets one direction throughout."""
    n = len(tuples)
    occ = occurrences(tuples)
    reference_check_labels(occ, n)

    # role[ci][slot]: True if the arc arrives at this slot, False if it
    # leaves, None if not yet known; the opposite slot (slot ^ 2) takes
    # the other role
    role = [[True, None, False, None] for _ in range(n)]

    def propagate(todo):
        while todo:
            ci, slot = todo.pop()
            r = role[ci][slot]
            places = occ[tuples[ci][slot]]
            arc_end = places[1] if places[0] == (ci, slot) else places[0]
            for cj, t in (arc_end, (ci, slot ^ 2)):
                if role[cj][t] is None:
                    role[cj][t] = not r
                    todo.append((cj, t))
                elif role[cj][t] == r:
                    raise ValueError("arc %d has no consistent direction" % tuples[ci][slot])

    propagate([(ci, slot) for ci in range(n) for slot in (_UNDER_IN, _UNDER_OUT)])
    for ci in range(n):
        if role[ci][_OVER_B] is None:
            # label succession, b -> d when both readings close up
            b, d = tuples[ci][_OVER_B], tuples[ci][_OVER_D]
            if d == b + 1:
                role[ci][_OVER_B] = True
            elif b == d + 1:
                role[ci][_OVER_B] = False
            else:
                role[ci][_OVER_B] = b > d  # the succession wraps a block
            propagate([(ci, _OVER_B)])
    return [1 if role[ci][_OVER_B] else -1 for ci in range(n)]


def reference_parse(text):
    """parse_pd by the reference signs and walk: the diagram it must
    return, or ValueError where it must raise."""
    items = [item.strip() for item in text.split(";")]
    tuples = [tuple(map(int, re.findall(r"-?\d+", item))) for item in items if item != "O"]
    crossings = tuple(Crossing(*t, s) for t, s in zip(tuples, reference_signs(tuples)))
    if walk_order_blocks(crossings) is None:
        raise ValueError("labels not in walk order")
    d = OrientedDiagram(crossings, items.count("O"))
    validate(d)
    return d
