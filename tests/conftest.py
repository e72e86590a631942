"""Shared fixtures: a small zoo of hand-verified diagrams.

PD codes here are frozen copies of the bundled dataset rows (plus a few
orientations/mirrors); every polynomial, writhe, and depth claim about
them is re-derived in the tests rather than trusted.
"""

import pytest

from skeindepth import (
    Crossing,
    HomflyCache,
    OrientedDiagram,
    braid_closure,
    parse_braid,
    parse_pd,
    simplify,
    smooth,
    switch,
)

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
    """d with its arcs renamed at random and its crossings shuffled."""
    arcs = sorted({arc for cr in d.crossings for arc in cr.arcs()})
    mapping = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 2), len(arcs))))
    crs = [Crossing(mapping[c.a], mapping[c.b], mapping[c.c], mapping[c.d], c.sign) for c in d.crossings]
    rng.shuffle(crs)
    return OrientedDiagram(tuple(crs), d.free_loops)
