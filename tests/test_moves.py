"""Skein moves, simplification, move generators, and unlink recognition.

The deep check throughout: every move generator must leave the
polynomial untouched, and switch/smooth must obey their structural
bookkeeping exactly.
"""

import random
from collections import deque
from itertools import chain, combinations, islice, permutations

import pytest

from skeindepth import (
    Crossing,
    HomflyCache,
    OrientedDiagram,
    Verdict,
    braid_closure,
    canonical_code,
    component_count,
    component_cycles,
    disjoint_union,
    homfly,
    insert_kink,
    mirror,
    parse_braid,
    parse_pd,
    pd_text,
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
from skeindepth import diagram, moves
from skeindepth.diagram import (
    _OVER_B,
    _OVER_D,
    _UNDER_IN,
    _UNDER_OUT,
    _check_labels,
    _occurrences,
    _other_place,
    _read_blocks,
    arriving_slots,
    defects,
    faces,
    find_nugatory,
    leaving_slots,
    renormalize,
    validate,
)
from skeindepth.poly import DELTA, ONE, ZERO

from conftest import (
    A2,
    AZ,
    CROSSED,
    FIXTURE_PDS,
    NUGATORY_PD,
    ORACLE_WORDS,
    UNKNOT_7_PD,
    UNLINK4_12_PD,
    Am2,
    AmZ,
    check_pokes_once,
    check_slides_once,
    closure_battery,
    finder_battery,
    reference_pokes,
    scrambled,
)
from test_diagram import (
    find_kink,
    find_poke_pair,
    is_kink,
    kernel_battery,
    kink_merges,
    poke_merges,
    reference_flip,
    reference_groups,
    reference_rewire,
    remove_kink,
    remove_nugatory,
    remove_poke_pair,
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
    """simplify's moves, tried in the sorted crossings; start itself
    when none fires."""
    start = d
    d = OrientedDiagram(tuple(sorted(d.crossings)), d.free_loops)
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
    return start if d.crossing_count == start.crossing_count else d


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
        found = defects(d)
        if not found:
            value = unlink_value(component_count(d))
        else:
            i = found[0]
            sw, sm = raw_homfly(switch(d, i), table), raw_homfly(smooth(d, i), table)
            if d.crossings[i].sign > 0:
                value = A2 * sw + AZ * sm
            else:
                value = Am2 * sw - AmZ * sm
    table[key] = value
    return value


def _parts(d):
    return len(reference_groups(d))


def test_simplify_ignores_crossing_order():
    """The same crossings listed in another order simplify to the same
    crossings, also on the switch of a simplified diagram, where simplify
    looks only for poke pairs through the switched crossing; they come
    sorted unless no move fires."""
    rng = random.Random(12)
    fired = 0
    for d in finder_battery():
        marked = simplify(d)
        for v in [d] + [switch(marked, i) for i in range(marked.crossing_count)]:
            want = simplify(v)
            for _ in range(3):
                crs = list(v.crossings)
                rng.shuffle(crs)
                got = simplify(OrientedDiagram(tuple(crs), v.free_loops))
                assert (sorted(got.crossings), got.free_loops) == (
                    sorted(want.crossings),
                    want.free_loops,
                ), v
            if want.crossing_count < v.crossing_count:
                assert list(want.crossings) == sorted(want.crossings), v
                fired += 1
    assert fired > 100


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
                own_part = next(g for g in reference_groups(v) if i in g)
                assert set(side) < set(own_part), v
    assert nugatory_hits > 10 and poke_hits > 10 and split_seen >= 15


def test_switch_of_a_simplified_diagram_simplifies_as_the_full_loop():
    """On the switch of a diagram that simplify returned, only a poke pair
    through the switched crossing can fire, and switch marks the switch
    when it has none; the result must be the full loop's, crossing for
    crossing, also under arc renamings and crossing reorderings, and for
    switches of those results."""
    rng = random.Random(5)
    battery = closure_battery() + [simplify(d) for d in finder_battery()]
    removed = 0
    for d in battery:
        for s in (d, simplify(scrambled(d, rng))):
            assert full_simplify(s) == s
            for i in range(s.crossing_count):
                sw = switch(s, i)
                want = full_simplify(sw)
                got = simplify(sw)
                assert got == want, (s, i)
                if got.crossing_count < s.crossing_count:
                    removed += 1
                    for j in range(got.crossing_count):
                        assert simplify(switch(got, j)) == full_simplify(switch(got, j)), (got, j)
    assert removed > 50


# -- simplify's run against the per-removal loop ------------------------------


def reference_run(d):
    """simplify as the loop it replaces: the moves looked for in the
    sorted crossings, and after every removal the merges glued and the
    diagram renumbered in walk order by reference_rewire.

    Returns the result (d itself when no move fires) and one record per
    removal: its move, whether the flipped side was nonempty, whether a
    removed crossing sits where a block wraps from its last label to its
    first (so a merged run crosses the wrap), the free loops it closed,
    the crossings left, and the diagram it left."""
    work = OrientedDiagram(tuple(sorted(d.crossings)), d.free_loops)
    steps = []
    while work.crossings:
        crs = work.crossings
        flipped = False
        i = find_kink(work)
        if i is not None:
            move, gone, rest, merges = "kink", [crs[i]], crs[:i] + crs[i + 1 :], kink_merges(work, i)
        else:
            pair = find_poke_pair(work)
            if pair is not None:
                move, gone = "poke", [crs[k] for k in pair]
                rest = tuple(cr for k, cr in enumerate(crs) if k not in pair)
                merges = poke_merges(work, *pair)
            else:
                nug = find_nugatory(work)
                if nug is None:
                    break
                i, side = nug
                cr = crs[i]
                move, gone, flipped = "nugatory", [cr], bool(side)
                rest = tuple(
                    reference_flip(other) if k in side else other
                    for k, other in enumerate(crs)
                    if k != i
                )
                merges = [(cr.a, cr.c), (cr.over_in(), cr.over_out())]
        first = _read_blocks(crs) or []
        wrap = {(first[k + 1] - 1, first[k]) for k in range(len(first) - 1)}
        wraps = any(
            (x, y) in wrap for cr in gone for x, y in ((cr.a, cr.c), (cr.over_in(), cr.over_out()))
        )
        nxt = reference_rewire(rest, merges, work.free_loops)
        steps.append((move, flipped, wraps, nxt.free_loops - work.free_loops, nxt.crossing_count, nxt))
        work = nxt
    return (work if steps else d), steps


def mixed_closures(seed, count):
    """Closures of seeded mixed words on 3-5 strands, of length 7-16."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.randint(3, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(7, 16))]
        out.append(braid_closure(parse_braid("p=%d: %s" % (p, " ".join(map(str, letters))))))
    return out


def run_battery():
    """finder_battery, closure_battery, and seeded mixed closures with
    their scrambled copies, their mirrors and the switch children of
    their simplified diagrams; each also as a fresh copy, which carries
    no marks."""
    rng = random.Random(23)
    out = finder_battery() + closure_battery()
    for d in mixed_closures(23, 40):
        s = simplify(d)
        out += [d, scrambled(d, rng), mirror(d)]
        out += [switch(s, i) for i in range(s.crossing_count)]
    return out + [OrientedDiagram(d.crossings, d.free_loops) for d in out]


def shifted(d, rng):
    """d scrambled, then built with every label raised by 1,000, which
    the constructor relabels in walk order."""
    crs = scrambled(d, rng).crossings
    shift = tuple(Crossing(a + 1000, b + 1000, c + 1000, e + 1000, s) for a, b, c, e, s in crs)
    return OrientedDiagram(shift, d.free_loops)


def test_simplify_is_the_per_removal_loop():
    """simplify keeps the labels through its run of removals and ranks
    them once; the result must be the per-removal loop's, crossing for
    crossing, with the same free loops and the label-block table of its
    labels, and the input itself when no move fires.  The battery also
    holds a copy of each input built with its labels scrambled and
    shifted above 2c + 1, which the constructor relabels, so no label
    above 2c + 1 reaches the run."""
    battery = run_battery()
    rng = random.Random(31)
    copies = [shifted(d, rng) for d in battery]
    for d in copies:
        assert all(x <= 2 * d.crossing_count for cr in d.crossings for x in cr[:4]), d
    battery += copies
    runs = long_runs = flips_after = wraps = loops_mid = shifted_runs = 0
    for n, d in enumerate(battery):
        want, steps = reference_run(d)
        got = simplify(d)
        if not steps:
            assert got is d, d
            continue
        assert (got.crossings, got.free_loops) == (want.crossings, want.free_loops), d
        assert got._blocks == _read_blocks(want.crossings), d
        runs += 1
        shifted_runs += n >= len(battery) - len(copies)
        long_runs += len(steps) >= 3
        flips_after += any(flip for _, flip, _, _, _, _ in steps[1:])
        wraps += any(wrap for _, _, wrap, _, _, _ in steps)
        loops_mid += any(loops and left for _, _, _, loops, left, _ in steps[:-1])
    assert runs > 1000 and shifted_runs > 500, (runs, shifted_runs)
    assert long_runs >= 100, long_runs
    assert flips_after >= 10, flips_after
    assert wraps >= 100, wraps
    assert loops_mid >= 5, loops_mid


def test_each_round_is_one_removal_of_the_loop():
    """simplify's rounds taken one at a time on a walk-order input (a
    round of kinks and poke pairs, then a nugatory crossing when it finds
    neither), ranked after each, give the per-removal loop's diagram
    after every removal: the first kink in sorted order, else the first
    poke pair, else the first nugatory crossing.  The rounds that meet
    two or more kinks are counted."""
    rounds = several_kinks = 0
    for d in run_battery():
        first = d._blocks
        _, steps = reference_run(d)
        crs, loops = sorted(d.crossings), d.free_loops
        before = d.crossings
        for *_, want in steps:
            several_kinks += sum(map(is_kink, before)) >= 2
            closed = diagram._shed(crs, 2 * d.crossing_count + 1)
            if closed is None:
                closed = diagram._untwist(crs, first)
            loops += closed
            got = diagram._ranked(crs, first, loops)
            assert (got.crossings, got.free_loops) == (want.crossings, want.free_loops), d
            rounds += 1
            before = want.crossings
        assert diagram._shed(crs, 2 * d.crossing_count + 1) is None, d
        assert diagram._untwist(crs, first) is None, d
    assert rounds > 1000 and several_kinks >= 50, (rounds, several_kinks)


def test_simplify_renumbers_once_per_call(monkeypatch):
    """A run of removals renumbers once, at its end: one full renumbering
    (renormalize's or the final ranking), also on an input built with
    renamed arcs, which the constructor relabeled, and none when no move
    fires."""
    battery = mixed_closures(29, 30)
    rng = random.Random(29)
    renamed = [scrambled(d, rng) for d in battery]
    fresh = [OrientedDiagram(s.crossings, s.free_loops) for s in map(simplify, battery)]
    removals = [len(reference_run(d)[1]) for d in battery]
    calls = []

    def counted(real):
        def call(*args):
            calls.append(real.__name__)
            return real(*args)

        return call

    for name in ("renormalize", "_ranked"):
        monkeypatch.setattr(diagram, name, counted(getattr(diagram, name)))
    long_runs = 0
    for d, r, s, n in zip(battery, renamed, fresh, removals):
        del calls[:]
        simplify(d)
        assert len(calls) == (n > 0), d
        long_runs += n >= 3
        del calls[:]
        simplify(r)
        assert len(calls) == (n > 0), r
        del calls[:]
        assert simplify(s) is s and not calls, s
    assert long_runs >= 10, long_runs


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


def _mirror_corner(d, corner):
    """corner of d as a corner of mirror(d): exchanging a crossing's
    strands turns its slot labels by one place."""
    ci, slot = corner
    return (ci, (slot - d.crossings[ci].sign) % 4)


def test_pushing_e_under_f_is_pushing_f_over_e():
    """Both pokes draw the same bigon, f on top.  The under-poke is built
    as the over-poke on the mirror, mirrored back, whose faces are d's."""
    pairs = 0
    for d in closure_battery() + [simplify(d) for d in finder_battery()]:
        md = mirror(d)
        assert {frozenset(_mirror_corner(d, c) for c in face) for face in faces(d)} == {
            frozenset(face) for face in faces(md)
        }
        for face in faces(d):
            for ce, cf in permutations(face, 2):
                under = moves._poke(md, _mirror_corner(d, ce), _mirror_corner(d, cf))
                over = moves._poke(d, cf, ce)
                assert (under is None) == (over is None), (d, ce, cf)
                if under is not None:
                    assert canonical_code(mirror(under)) == canonical_code(over), (d, ce, cf)
                    pairs += 1
    assert pairs > 1000


def test_poke_moves_push_each_pair_once():
    """e over f and f over e once per pair of corners, in face order; the
    reference meets every pair twice."""
    assert sum(map(check_pokes_once, kernel_battery())) > 10000


def test_triangle_moves_slide_each_triangle_once():
    """Sliding a triangle's bottom strand draws its top-strand slide, so
    the battery's 710 triangles give 710 slides, not twice as many."""
    assert sum(map(check_slides_once, kernel_battery())) == 710


def test_triangle_moves_invariance():
    """Slide moves need a triangle; poked children always offer one."""
    cache = HomflyCache()
    total = 0
    for name in ("trefoil", "fig8"):
        d = parse_pd(FIXTURE_PDS[name][0])
        base = homfly(d, cache)
        for _, child in islice(reference_pokes(d), 6):
            for slid in triangle_moves(child):
                total += 1
                assert slid.crossing_count == child.crossing_count
                assert homfly(slid, cache) == base, name
    assert total > 0


# -- the dict-incidence rewrites, kept as references -----------------------------


def reference_heads(d):
    """arc -> (crossing index, slot) where the arc arrives."""
    heads = {}
    for ci, cr in enumerate(d.crossings):
        for slot in arriving_slots(cr):
            heads[cr[slot]] = (ci, slot)
    return heads


def reference_validate(d):
    """validate, and the label count: each label twice, the labels
    1..2c."""
    _check_labels(_occurrences(d.crossings), d.crossing_count)
    validate(d)


def reference_insert_kink(d, arc, variant):
    heads = reference_heads(d)
    if arc not in heads:
        raise ValueError("no such arc: %d" % arc)
    top = max(heads) + 1
    m, post = top, top + 1
    shapes = (
        Crossing(arc, m, m, post, 1),
        Crossing(arc, post, m, m, -1),
        Crossing(m, arc, post, m, 1),
        Crossing(m, m, post, arc, -1),
    )
    hc, hs = heads[arc]
    out = []
    for ci, cr in enumerate(d.crossings):
        arcs = list(cr.arcs())
        if ci == hc:
            arcs[hs] = post
        out.append(Crossing(arcs[0], arcs[1], arcs[2], arcs[3], cr.sign))
    out.append(shapes[variant])
    return renormalize(out, d.free_loops)


def reference_poke(d, corner_e, corner_f):
    (eci, es), (fci, fs) = corner_e, corner_f
    e = d.crossings[eci].arcs()[es]
    f = d.crossings[fci].arcs()[fs]
    if e == f:
        return None
    e_fwd = es in leaving_slots(d.crossings[eci])
    f_fwd = fs in leaving_slots(d.crossings[fci])
    top = max(arc for cr in d.crossings for arc in cr.arcs()) + 1
    em, ep, fm, fp = top, top + 1, top + 2, top + 3
    added = {
        (True, False): (Crossing(f, em, fm, e, -1), Crossing(fm, em, fp, ep, 1)),
        (True, True): (Crossing(fm, e, fp, em, 1), Crossing(f, ep, fm, em, -1)),
        (False, False): (Crossing(fm, em, fp, e, -1), Crossing(f, em, fm, ep, 1)),
        (False, True): (Crossing(f, e, fm, em, 1), Crossing(fm, ep, fp, em, -1)),
    }[(e_fwd, f_fwd)]
    heads = reference_heads(d)
    he, hf = heads[e], heads[f]
    out = []
    for ci, cr in enumerate(d.crossings):
        arcs = list(cr.arcs())
        if ci == he[0]:
            arcs[he[1]] = ep
        if ci == hf[0]:
            arcs[hf[1]] = fp
        out.append(Crossing(arcs[0], arcs[1], arcs[2], arcs[3], cr.sign))
    out.extend(added)
    try:
        nd = renormalize(out, d.free_loops)
        reference_validate(nd)
    except ValueError:
        return None
    return nd


def reference_poke_moves(d):
    for face in faces(d):
        for corner_e, corner_f in combinations(face, 2):
            for pair in ((corner_e, corner_f), (corner_f, corner_e)):
                nd = reference_poke(d, *pair)
                if nd is not None:
                    yield nd


def reference_triangle_moves(d):
    """triangle_moves over the occurrence dict, each strand's direction
    at Z checked again."""
    occ = _occurrences(d.crossings)
    for i in range(d.crossing_count):
        X = d.crossings[i]
        eA = X.over_out()
        j, _ = _other_place(occ, eA, (i, leaving_slots(X)[1]))
        Y = d.crossings[j]
        if j == i or Y.over_in() != eA:
            continue
        pT_in, pT_out = X.over_in(), Y.over_out()
        for eB, dirM, xslot in ((X.c, 1, _UNDER_OUT), (X.a, -1, _UNDER_IN)):
            z, sB = _other_place(occ, eB, (i, xslot))
            if z in (i, j):
                continue
            for eC, dirB, yslot in ((Y.c, 1, _UNDER_OUT), (Y.a, -1, _UNDER_IN)):
                z2, sC = _other_place(occ, eC, (j, yslot))
                if z2 != z or sB == sC:
                    continue
                m_over_at_z = sB in (_OVER_B, _OVER_D)
                if m_over_at_z == (sC in (_OVER_B, _OVER_D)):
                    continue
                Z = d.crossings[z]
                if dirM > 0:
                    if sB not in arriving_slots(Z):
                        continue
                    mFirst = X.a
                    mLast = Z.c if sB == _UNDER_IN else Z.over_out()
                else:
                    if sB not in leaving_slots(Z):
                        continue
                    mFirst = Z.a if sB == _UNDER_OUT else Z.over_in()
                    mLast = X.c
                if dirB > 0:
                    if sC not in arriving_slots(Z):
                        continue
                    bFirst = Y.a
                    bLast = Z.c if sC == _UNDER_IN else Z.over_out()
                else:
                    if sC not in leaving_slots(Z):
                        continue
                    bFirst = Z.a if sC == _UNDER_OUT else Z.over_in()
                    bLast = Y.c
                xhat = moves._build_crossing(
                    Y.sign, (eC, bLast) if dirB > 0 else (bFirst, eC), (pT_in, eA)
                )
                yhat = moves._build_crossing(
                    X.sign, (eB, mLast) if dirM > 0 else (mFirst, eB), (eA, pT_out)
                )
                m_pair = (mFirst, eB) if dirM > 0 else (eB, mLast)
                b_pair = (bFirst, eC) if dirB > 0 else (eC, bLast)
                if m_over_at_z:
                    zhat = moves._build_crossing(Z.sign, b_pair, m_pair)
                else:
                    zhat = moves._build_crossing(Z.sign, m_pair, b_pair)
                out = list(d.crossings)
                out[i], out[j], out[z] = xhat, yhat, zhat
                try:
                    nd = renormalize(out, d.free_loops)
                    reference_validate(nd)
                except ValueError:
                    continue
                yield nd


def _kink_or_error(insert, d, arc, variant):
    try:
        return insert(d, arc, variant)
    except ValueError as e:
        return str(e)


def test_rewrites_match_the_dict_incidence_references():
    """triangle_moves, poke_moves and insert_kink, which read arc ends
    from walk-order labels, give the references' diagrams in the same
    order, on seeded closures, their simplifications, their mirrors and
    renamed copies the constructor relabels; insert_kink raises the same
    error for an arc outside 1..2c."""
    rng = random.Random(2027)
    battery = []
    for _ in range(200):
        p = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(1, 12))]
        d = braid_closure(parse_braid(f"p={p}: " + " ".join(map(str, word))))
        s = simplify(d)
        for e in (d, s, mirror(s), scrambled(s, rng)):
            if not e.is_crossingless():
                battery.append(e)
    slides = pokes = errors = 0
    for d in battery:
        got = list(triangle_moves(d))
        assert got == list(reference_triangle_moves(d)), d
        slides += len(got)
        got = list(poke_moves(d))
        assert got == list(reference_poke_moves(d)), d
        pokes += len(got)
        top = 2 * d.crossing_count + 1
        for arc in (-1, 0, 1, top // 2, top - 1, top, top + 5):
            for variant in range(4):
                want = _kink_or_error(reference_insert_kink, d, arc, variant)
                assert _kink_or_error(insert_kink, d, arc, variant) == want, (d, arc, variant)
                errors += isinstance(want, str)
    assert slides >= 500 and pokes >= 10000 and errors > 1000, (slides, pokes, errors)


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
    # UNLINK4_12_PD is descending, so the recognizer certifies it without
    # a search; its mirror has a defect at every crossing it meets first
    d = mirror(parse_pd(UNLINK4_12_PD))
    assert defects(simplify(d))
    value = homfly(d, shared_cache)
    assert oracle_recognize_unlink(d, value, node_limit=4).is_unknown
    expanded = _count_expansions(monkeypatch)
    assert recognize_unlink(d, value, node_limit=4) == Verdict.unlink(4)
    assert len(expanded) <= 4
    assert min(expanded) < d.crossing_count  # the search restarted lower down
    expanded.clear()
    assert recognize_unlink(d, value, node_limit=3).is_unknown
    assert len(expanded) <= 3


def _descending(d):
    """d switched at its first defect until it has none."""
    while found := defects(d):
        d = switch(d, found[0])
    return d


def test_recognizer_certifies_exactly_the_descending_diagrams():
    """The descending certificate runs after simplify and before the
    polynomial test: given a polynomial that no link has and no node
    budget, the recognizer certifies a diagram exactly when its
    simplification has crossings and no defect."""
    certified = 0
    for d in finder_battery() + [parse_pd(UNLINK4_12_PD)]:
        for e in (d, mirror(d), _descending(d), _descending(mirror(d))):
            s = simplify(e)
            if s.is_crossingless():
                continue
            want = Verdict.unlink(component_count(s)) if not defects(s) else Verdict.not_unlink()
            assert recognize_unlink(e, homfly_value=ZERO, node_limit=0) == want, pd_text(e)
            certified += want.is_unlink
    assert certified > 20


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
