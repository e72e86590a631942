"""Skein moves, simplification, move generators, and unlink recognition.

The deep check throughout: every move generator must leave the
polynomial untouched, and switch/smooth must obey their structural
bookkeeping exactly.
"""

import random
from collections import deque
from itertools import chain, permutations

import pytest

from skeindepth import (
    HomflyCache,
    Verdict,
    braid_closure,
    canonical_code,
    component_count,
    component_cycles,
    disjoint_union,
    homfly,
    insert_kink,
    parse_braid,
    parse_pd,
    poke_moves,
    recognize_unlink,
    simplify,
    smooth,
    split_components,
    switch,
    triangle_moves,
    unlink_value,
    writhe,
)
from skeindepth import moves
from skeindepth.diagram import (
    _crossing_groups,
    _poke_pair_through,
    faces,
    find_kink,
    find_nugatory,
    find_poke_pair,
    remove_kink,
    remove_nugatory,
    remove_poke_pair,
)
from skeindepth.poly import _A2, _AZ, DELTA, ONE, _Am2, _AmZ, _first_defect

from conftest import (
    CROSSED,
    FIXTURE_PDS,
    NUGATORY_PD,
    ORACLE_WORDS,
    UNKNOT_7_PD,
    UNLINK4_12_PD,
    closure_battery,
    finder_battery,
    scrambled,
)


def _cycle_index(cycles, label):
    for idx, cyc in enumerate(cycles):
        if label in cyc:
            return idx
    raise AssertionError(f"label {label} in no cycle")


def test_switch_structural_invariants_exhaustive():
    for name in CROSSED:
        d = parse_pd(FIXTURE_PDS[name][0])
        for i in range(d.crossing_count):
            sw = switch(d, i)
            assert sw.crossing_count == d.crossing_count
            assert component_count(sw) == component_count(d)
            assert writhe(sw) == writhe(d) - 2 * d.crossings[i].sign
            # involution, and labels are untouched entirely
            assert switch(sw, i) == d


def test_smooth_structural_invariants_exhaustive():
    for name in CROSSED:
        d = parse_pd(FIXTURE_PDS[name][0])
        cycles = component_cycles(d)
        for i in range(d.crossing_count):
            cr = d.crossings[i]
            sm = smooth(d, i)
            assert sm.crossing_count == d.crossing_count - 1
            self_crossing = _cycle_index(cycles, cr.a) == _cycle_index(
                cycles, cr.over_in()
            )
            delta = 1 if self_crossing else -1
            assert component_count(sm) == component_count(d) + delta, (name, i)


def test_switch_smooth_index_errors():
    d = parse_pd(FIXTURE_PDS["trefoil"][0])
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            switch(d, bad)
        with pytest.raises(IndexError):
            smooth(d, bad)


# -- crossing-removing moves -----------------------------------------------------


def test_kink_removal():
    d = parse_pd("X[2,2,1,1]")
    i = find_kink(d)
    assert i == 0
    assert remove_kink(d, i).is_crossingless()
    assert find_kink(parse_pd(FIXTURE_PDS["trefoil"][0])) is None


def test_stacked_kinks_simplify():
    d = parse_pd("X[2,2,1,1]")
    k1 = insert_kink(d, 1, 0)
    k2 = insert_kink(k1, 1, 1)
    assert k2.crossing_count == 3
    out = simplify(k2)
    assert out.is_crossingless() and component_count(out) == 1


def test_poke_pair_removal():
    from skeindepth import braid_closure, parse_braid

    # closure of sigma1 sigma1^-1: one strand poked under the other
    d = braid_closure(parse_braid("p=2: 1 -1"))
    assert component_count(d) == 2 and d.crossing_count == 2
    pair = find_poke_pair(d)
    assert pair is not None
    out = remove_poke_pair(d, *pair)
    assert out.is_crossingless() and component_count(out) == 2
    assert find_poke_pair(parse_pd(FIXTURE_PDS["fig8"][0])) is None


def test_nugatory_detection_and_removal():
    d = parse_pd(NUGATORY_PD)
    assert component_count(d) == 1
    hit = find_nugatory(d)
    assert hit is not None
    i, side = hit
    assert i == 0 and len(side) == 2
    out = remove_nugatory(d, i, side)
    assert out.crossing_count == 4
    cache = HomflyCache()
    assert homfly(out, cache) == homfly(d, cache) == ONE
    assert simplify(d).is_crossingless()
    assert find_nugatory(parse_pd(FIXTURE_PDS["trefoil"][0])) is None


def test_simplify_fixes_point_and_preserves_polynomial():
    cache = HomflyCache()
    for name in CROSSED:
        d = parse_pd(FIXTURE_PDS[name][0])
        s = simplify(d)
        assert simplify(s) == s  # idempotent
        assert s.crossing_count <= d.crossing_count
        assert homfly(s, cache) == homfly(d, cache)


def test_simplify_reduces_stabilized_braid():
    from skeindepth import braid_closure, parse_braid

    # closure of sigma1^2 sigma2 in B3 is the Hopf link plus a kink
    d = braid_closure(parse_braid("p=3: 1 1 2"))
    s = simplify(d)
    assert s.crossing_count == 2
    assert canonical_code(s) == canonical_code(parse_pd(FIXTURE_PDS["hopf+"][0]))


# -- the quadratic finders, kept as test oracles ----------------------------------


def oracle_side_groups(d, i):
    """Groups of the other crossings, crossing i smoothed, over the whole diagram."""
    cr = d.crossings[i]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for k, other in enumerate(d.crossings):
        if k == i:
            continue
        arcs = other.arcs()
        for arc in arcs[1:]:
            union(arcs[0], arc)
    if cr.sign > 0:
        union(cr.a, cr.d)
        union(cr.b, cr.c)
    else:
        union(cr.a, cr.b)
        union(cr.d, cr.c)
    groups = {}
    for k, other in enumerate(d.crossings):
        if k != i:
            groups.setdefault(find(other.a), []).append(k)
    return sorted(groups.values(), key=lambda g: (len(g), g))


def oracle_find_nugatory(d):
    """One union-find per crossing; right on connected diagrams only."""
    if d.crossing_count < 2:
        return None
    for i in range(d.crossing_count):
        groups = oracle_side_groups(d, i)
        if len(groups) >= 2:
            return (i, groups[0])
    return None


def oracle_find_poke_pair(d):
    for i, ci in enumerate(d.crossings):
        e1 = ci.over_out()
        for j, cj in enumerate(d.crossings):
            if i == j or cj.over_in() != e1:
                continue
            if ci.c == cj.a or cj.c == ci.a:
                return (i, j)
    return None


def oracle_simplify(d):
    while d.crossings:
        i = find_kink(d)
        if i is not None:
            d = remove_kink(d, i)
            continue
        pair = oracle_find_poke_pair(d)
        if pair is not None:
            d = remove_poke_pair(d, *pair)
            continue
        nug = oracle_find_nugatory(d)
        if nug is not None:
            d = remove_nugatory(d, *nug)
            continue
        break
    return d


def full_simplify(d):
    """simplify without its marks: every round tries every move."""
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
    return d


def raw_homfly(d, table):
    """The skein expansion on raw (unsimplified) switch and smoothing children."""
    if d.is_crossingless():
        return unlink_value(d.free_loops)
    key = canonical_code(d)
    if key in table:
        return table[key]
    parts = split_components(d)
    if len(parts) > 1:
        value = DELTA ** (len(parts) - 1)
        for part in parts:
            value = value * raw_homfly(part, table)
    else:
        i = _first_defect(d)
        if i is None:
            value = unlink_value(component_count(d))
        else:
            sw, sm = raw_homfly(switch(d, i), table), raw_homfly(smooth(d, i), table)
            if d.crossings[i].sign > 0:
                value = _A2 * sw + _AZ * sm
            else:
                value = _Am2 * sw - _AmZ * sm
    table[key] = value
    return value


def _parts(d):
    return len(_crossing_groups(d))


def test_linear_finders_match_the_quadratic_oracles():
    """Same hit and same simplification as the oracles on every connected
    diagram, also under random arc renamings; on every diagram a reported
    crossing is exactly one whose smoothing splits its own part."""
    rng = random.Random(11)
    nugatory_hits = poke_hits = split_seen = 0
    for d in finder_battery():
        for v in (d, scrambled(d, rng), scrambled(d, rng)):
            pair = find_poke_pair(v)
            assert pair == oracle_find_poke_pair(v), v
            poke_hits += pair is not None
            hit = find_nugatory(v)
            if _parts(v) <= 1:
                assert hit == oracle_find_nugatory(v), v
                assert simplify(v) == oracle_simplify(v), v
            else:
                split_seen += 1
            splitting = [
                i for i in range(v.crossing_count) if _parts(smooth(v, i)) > _parts(v)
            ]
            if hit is None:
                assert splitting == [] or v.crossing_count < 2, v
            else:
                nugatory_hits += 1
                i, side = hit
                assert i == splitting[0], v
                own_part = next(g for g in _crossing_groups(v) if i in g)
                assert set(side) < set(own_part), v
    assert nugatory_hits > 10 and poke_hits > 10 and split_seen >= 15


def test_switch_of_a_simplified_diagram_simplifies_as_the_full_loop():
    """On the switch of a diagram that simplify returned, simplify looks
    only for poke pairs through the switched crossing, and finds the pair
    find_poke_pair finds; the result must be the full loop's, crossing
    for crossing, also under arc renamings and crossing reorderings, and
    for switches of those results."""
    rng = random.Random(5)
    battery = closure_battery() + [simplify(d) for d in finder_battery()]
    removed = 0
    for d in battery:
        for s in (d, simplify(scrambled(d, rng))):
            assert full_simplify(s) == s
            for i in range(s.crossing_count):
                sw = switch(s, i)
                assert _poke_pair_through(sw, i) == find_poke_pair(sw), (s, i)
                want = full_simplify(sw)
                got = simplify(sw)
                assert got == want, (s, i)
                if got.crossing_count < s.crossing_count:
                    removed += 1
                    for j in range(got.crossing_count):
                        assert simplify(switch(got, j)) == full_simplify(switch(got, j)), (got, j)
    assert removed > 50


def test_simplify_keeps_split_links():
    """A split diagram keeps the crossings of each part that no move removes."""
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    for d in (disjoint_union(tref, tref), disjoint_union(hopf, tref)):
        assert find_nugatory(d) is None
        assert simplify(d) == d
    cache = HomflyCache()
    for d in finder_battery():
        assert homfly(simplify(d), cache) == homfly(d, cache), d


def test_expansion_on_simplified_children_matches_raw_children():
    cache, table = HomflyCache(), {}
    for d in finder_battery():
        assert homfly(d, cache) == raw_homfly(d, table), d


# -- crossing-increasing generators: polynomial invariance ------------------------


def test_kink_insertion_invariance():
    cache = HomflyCache()
    d = parse_pd(FIXTURE_PDS["trefoil"][0])
    base = homfly(d, cache)
    for arc in (1, 4):
        for variant in range(4):
            k = insert_kink(d, arc, variant)
            assert k.crossing_count == 4
            assert homfly(k, cache) == base, (arc, variant)
            assert canonical_code(simplify(k)) == canonical_code(d)


def test_poke_moves_invariance():
    cache = HomflyCache()
    for name in ("hopf+", "trefoil", "fig8"):
        d = parse_pd(FIXTURE_PDS[name][0])
        base = homfly(d, cache)
        count = 0
        for child in poke_moves(d):
            count += 1
            assert child.crossing_count == d.crossing_count + 2
            assert homfly(child, cache) == base, name
            assert canonical_code(simplify(child)) == canonical_code(d)
        assert count > 0


def test_pushing_e_under_f_is_pushing_f_over_e():
    """Both pokes draw the same bigon, e on top; the under-poke's
    crossings are the over-poke's, exchanged."""
    pairs = 0
    for d in closure_battery() + [simplify(d) for d in finder_battery()]:
        for face in faces(d):
            for ce, cf in permutations(face, 2):
                under, over = moves._poke(d, ce, cf, False), moves._poke(d, cf, ce, True)
                assert (under is None) == (over is None), (d, ce, cf)
                if under is not None:
                    assert canonical_code(under) == canonical_code(over), (d, ce, cf)
                    pairs += 1
    assert pairs > 1000


def test_triangle_moves_invariance():
    """Slide moves need a triangle; poked children always offer one."""
    cache = HomflyCache()
    total = 0
    for name in ("trefoil", "fig8"):
        d = parse_pd(FIXTURE_PDS[name][0])
        base = homfly(d, cache)
        for child in list(poke_moves(d))[:6]:
            for slid in triangle_moves(child):
                total += 1
                assert slid.crossing_count == child.crossing_count
                assert homfly(slid, cache) == base, name
    assert total > 0


def test_randomized_move_walks():
    """100 random crossing-increasing walks: polynomial pinned throughout."""
    rng = random.Random(20240825)
    cache = HomflyCache()
    names = ["hopf+", "trefoil", "fig8", "L4a1{1}"]
    for trial in range(100):
        d = parse_pd(FIXTURE_PDS[rng.choice(names)][0])
        base = homfly(d, cache)
        for step in range(rng.randint(1, 4)):
            options = []
            if d.crossing_count + 1 <= 8:
                arcs = sorted({x for cr in d.crossings for x in cr.arcs()})
                options.append(
                    lambda d=d: insert_kink(d, rng.choice(arcs), rng.randrange(4))
                )
            if d.crossing_count + 2 <= 8:
                pokes = list(poke_moves(d))
                if pokes:
                    options.append(lambda d=d, p=pokes: rng.choice(p))
            slides = list(triangle_moves(d))
            if slides:
                options.append(lambda d=d, s=slides: rng.choice(s))
            if not options:
                break
            d = rng.choice(options)()
            assert homfly(d, cache) == base, trial
        s = simplify(d)
        assert homfly(s, cache) == base, trial


# -- unlink recognition -----------------------------------------------------------


def test_recognize_crossingless():
    for r in range(1, 5):
        v = recognize_unlink(parse_pd(";".join(["O"] * r)))
        assert v.is_unlink and v.components == r


def test_recognize_after_simplify():
    from skeindepth import braid_closure, parse_braid

    v = recognize_unlink(parse_pd("X[2,2,1,1]"))
    assert v.is_unlink and v.components == 1
    v = recognize_unlink(braid_closure(parse_braid("p=2: 1 -1")))
    assert v.is_unlink and v.components == 2


def test_recognize_not_unlink():
    for name in ("hopf+", "trefoil", "fig8", "K5a1", "L5a1"):
        v = recognize_unlink(parse_pd(FIXTURE_PDS[name][0]))
        assert v.is_not_unlink, name
        assert v.components is None


def test_recognize_unknown_is_honest():
    # feed the recognizer a wrong polynomial so it cannot certify
    # not-unlink, and starve its search: it must answer unknown
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    v = recognize_unlink(tref, homfly_value=unlink_value(1), node_limit=25)
    assert v.is_unknown


def test_verdict_components_match():
    # the certified component count always equals the diagram's
    for name, (text, comps) in FIXTURE_PDS.items():
        v = recognize_unlink(parse_pd(text))
        if v.is_unlink:
            assert v.components == comps, name


def test_verdict_constructors():
    assert Verdict.unlink(3).components == 3
    assert Verdict.not_unlink().components is None
    assert Verdict.unknown().is_unknown


# -- the search without descent, kept as the recognizer's oracle --------------------


def oracle_recognize_unlink(d, homfly_value=None, node_limit=10000, crossing_margin=2):
    """One breadth-first search from the simplified input, never restarted."""
    start = simplify(d)
    r = component_count(start)
    if start.is_crossingless():
        return Verdict.unlink(r)
    value = homfly_value if homfly_value is not None else homfly(start)
    if value != unlink_value(r):
        return Verdict.not_unlink()
    limit = start.crossing_count + crossing_margin
    seen = {canonical_code(start)}
    queue = deque([start])
    nodes = 0
    while queue and nodes < node_limit:
        cur = queue.popleft()
        nodes += 1
        for child in chain(triangle_moves(cur), poke_moves(cur)):
            for cand in (child, simplify(child)):
                if cand.is_crossingless():
                    return Verdict.unlink(r)
                if cand.crossing_count > limit:
                    continue
                code = canonical_code(cand)
                if code not in seen:
                    seen.add(code)
                    queue.append(cand)
    return Verdict.unknown()


def _count_expansions(monkeypatch):
    """Crossing counts of the nodes the recognizer expands: it asks for the
    slides of each node exactly once."""
    expanded = []
    slides = moves.triangle_moves

    def counted(d):
        expanded.append(d.crossing_count)
        return slides(d)

    monkeypatch.setattr(moves, "triangle_moves", counted)
    return expanded


def test_descent_shares_one_node_budget(monkeypatch, shared_cache):
    d = parse_pd(UNLINK4_12_PD)
    value = homfly(d, shared_cache)
    assert oracle_recognize_unlink(d, value, node_limit=4).is_unknown
    expanded = _count_expansions(monkeypatch)
    assert recognize_unlink(d, value, node_limit=4) == Verdict.unlink(4)
    assert len(expanded) <= 4
    assert min(expanded) < d.crossing_count  # the search restarted lower down
    expanded.clear()
    assert recognize_unlink(d, value, node_limit=3).is_unknown
    assert len(expanded) <= 3


def test_descent_certifies_the_named_unlinks_under_renaming(shared_cache):
    rng = random.Random(6)
    for text, want in ((UNKNOT_7_PD, Verdict.unlink(1)), (UNLINK4_12_PD, Verdict.unlink(4))):
        d = parse_pd(text)
        for e in (d, scrambled(d, rng), scrambled(d, rng)):
            assert recognize_unlink(e, homfly(e, shared_cache)) == want


def test_descent_never_certifies_a_knotted_part():
    # a wrong polynomial forces the search on links that are not unlinks;
    # the descent strips the unknot part and must stall on the rest
    u = parse_pd(UNKNOT_7_PD)
    for name in ("trefoil", "hopf+"):
        d = disjoint_union(u, parse_pd(FIXTURE_PDS[name][0]))
        r = component_count(d)
        v = recognize_unlink(d, homfly_value=unlink_value(r), node_limit=8)
        assert v.is_unknown, name
    assert recognize_unlink(disjoint_union(u, u)) == Verdict.unlink(2)


def test_descent_battery_matches_the_oracle(shared_cache):
    """Seeded random 2-4 strand closures and their simplified switch and
    smoothing children: every certified diagram keeps its own component
    count, and descent certifies all the oracle does."""
    rng = random.Random(7)
    battery = []
    for _ in range(200):
        p = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(4, 9))]
        d = braid_closure(parse_braid(f"p={p}: " + " ".join(map(str, word))))
        battery.append(d)
        for i in range(d.crossing_count):
            battery += [simplify(switch(d, i)), simplify(smooth(d, i))]
    codes = set()
    searched = 0
    for d in battery:
        s = simplify(d)
        code = canonical_code(s)
        if code in codes:
            continue
        codes.add(code)
        value = homfly(s, shared_cache)
        v = recognize_unlink(s, value)
        if v.is_unlink:
            assert v.components == component_count(s)
        if not s.is_crossingless() and value == unlink_value(component_count(s)):
            searched += 1
            if oracle_recognize_unlink(s, value).is_unlink:
                assert v.is_unlink, code
    assert searched >= 10
