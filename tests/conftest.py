"""Shared fixtures: a small zoo of hand-verified diagrams.

PD codes here are frozen copies of the bundled dataset rows (plus a few
orientations/mirrors); every polynomial, writhe, and depth claim about
them is re-derived in the tests rather than trusted.
"""

from itertools import islice, permutations

import pytest

from skeindepth import (
    Crossing,
    HomflyCache,
    OrientedDiagram,
    braid_closure,
    canonical_code,
    disjoint_union,
    insert_kink,
    mirror,
    parse_braid,
    parse_pd,
    poke_moves,
    simplify,
    smooth,
    switch,
    triangle_moves,
)
from skeindepth import moves
from skeindepth.diagram import faces
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
    arcs = sorted({arc for cr in d.crossings for arc in cr.arcs()})
    mapping = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 2), len(arcs))))
    crs = [Crossing(mapping[c.a], mapping[c.b], mapping[c.c], mapping[c.d], c.sign) for c in d.crossings]
    rng.shuffle(crs)
    return OrientedDiagram(tuple(crs), d.free_loops)
