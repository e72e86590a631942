"""Parsing, validation, canonical codes, and diagram surgery."""

import importlib.resources
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeindepth import (
    Crossing,
    OrientedDiagram,
    braid_closure,
    canonical_code,
    component_count,
    component_cycles,
    disjoint_union,
    is_split,
    mirror,
    parse_braid,
    parse_pd,
    pd_text,
    simplify,
    smooth,
    split_components,
    switch,
    writhe,
)
from skeindepth import diagram
from skeindepth.cli import load_dataset
from skeindepth.diagram import (
    _crossing_groups,
    _part_code,
    _rewire,
    _smoothing_pairs,
    faces,
    renormalize,
    validate,
)

from conftest import FIXTURE_PDS, ORACLE_WORDS, closure_battery, finder_battery, scrambled


def test_parse_roundtrip():
    for text, _ in FIXTURE_PDS.values():
        d = parse_pd(text)
        assert pd_text(d) == text
        assert parse_pd(pd_text(d)) == d


def test_parse_free_loops():
    d = parse_pd("O;O;O")
    assert d.crossing_count == 0 and d.free_loops == 3
    assert component_count(d) == 3


def test_parse_whitespace_tolerant():
    a = parse_pd("X[1, 4, 2, 5] ; X[3,6,4,1];  X[5,2,6,3]")
    b = parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert a == b


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "X[1,2,3]",
        "X[1,2,3,4,5]",
        "Y[1,2,3,4]",
        "X[1,1,1,1]",  # label multiplicity
        "X[1,3,2,4]",  # labels 3,4 appear once
        "X[1,9,2,4];X[4,2,9,1]",  # labels not 1..2n
        "X[1,2,1,2]",  # not planar: 1 face where Euler's count needs 3
        "X[1,3,2,4];X[2,4,1,3]",  # not planar: 2 faces where it needs 4
        "X[1,4,2,3];X[2,3,1,4]",  # not planar
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_pd(bad)


def test_signs_inferred_right_trefoil():
    d = parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert all(cr.sign == 1 for cr in d.crossings)
    assert writhe(d) == 3


def test_signs_inferred_left_trefoil():
    d = parse_pd("X[4,2,5,1];X[6,4,1,3];X[2,6,3,5]")
    assert writhe(d) == -3
    assert canonical_code(d) == canonical_code(mirror(parse_pd(FIXTURE_PDS["trefoil"][0])))


def test_over_only_component_parses_with_the_b_to_d_reading():
    # nothing anchors the direction of the component on arcs 3 and 4,
    # which never runs under; both crossings must read it the same way
    text = "X[1,3,2,4];X[2,3,1,4]"
    d = parse_pd(text)
    assert d == OrientedDiagram((Crossing(1, 3, 2, 4, 1), Crossing(2, 3, 1, 4, -1)))
    assert pd_text(d) == text
    assert parse_pd(pd_text(d)) == d


def test_component_count_and_cycles():
    for name, (text, comps) in FIXTURE_PDS.items():
        d = parse_pd(text)
        assert component_count(d) == comps, name
        cycles = component_cycles(d)
        assert len(cycles) == comps - d.free_loops
        all_labels = sorted(x for cyc in cycles for x in cyc)
        assert all_labels == list(range(1, 2 * d.crossing_count + 1))


def brute_force_code(d):
    """Reference canonical form, kept as a test oracle.

    Enumerates every component order and every start arc per component
    (r! * prod(len_i) labelings, each component labeled consecutively
    along its orientation) and keeps the smallest sorted relabeled
    crossing list.  Label-independent by construction, but far too slow
    for the solver beyond a dozen crossings.
    """
    cycles = component_cycles(d)
    best = None
    for order in itertools.permutations(range(len(cycles))):
        for starts in itertools.product(*(range(len(cycles[i])) for i in order)):
            mapping = {}
            for i, start in zip(order, starts):
                cycle = cycles[i]
                for k in range(len(cycle)):
                    mapping[cycle[(start + k) % len(cycle)]] = len(mapping) + 1
            cand = sorted(
                (mapping[c.a], mapping[c.b], mapping[c.c], mapping[c.d], c.sign)
                for c in d.crossings
            )
            if best is None or cand < best:
                best = cand
    return (tuple(best or ()), d.free_loops)


def oracle_battery():
    """Fixtures, braid closures with their raw and simplified switch and
    smoothing children, split diagrams, free loops, a pair told apart only
    by signs, and the 4-component closure T(4,4) with its smoothings."""
    out = [parse_pd(text) for text, _ in FIXTURE_PDS.values()]
    for word in ORACLE_WORDS:
        d = braid_closure(parse_braid(word))
        out.append(d)
        for i in range(d.crossing_count):
            for child in (switch(d, i), smooth(d, i)):
                out += [child, simplify(child)]
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    out += [
        disjoint_union(tref, hopf),
        disjoint_union(hopf, hopf),
        disjoint_union(hopf, mirror(hopf)),
        disjoint_union(disjoint_union(tref, parse_pd("O;O")), hopf),
        parse_pd("O;O;O"),
    ]
    # a two-arc component that only runs over: its two orientations
    # differ in nothing but the crossing signs
    for sign in (1, -1):
        out.append(OrientedDiagram((Crossing(1, 3, 2, 4, sign), Crossing(2, 4, 1, 3, sign))))
    t44 = braid_closure(parse_braid("p=4: " + " ".join(["1 2 3"] * 4)))
    out.append(t44)
    out += [smooth(t44, i) for i in range(t44.crossing_count)]
    return out


def test_canonical_code_relabeling_invariant():
    """canonical_code splits diagrams into the same classes as the brute
    force, and renaming arcs or reordering crossings never moves a code."""
    rng = random.Random(7)
    battery = oracle_battery()
    assert max(len(component_cycles(d)) for d in battery) == 4  # T(4,4)
    by_brute, by_code = {}, {}
    for d in battery:
        ref, code = brute_force_code(d), canonical_code(d)
        assert by_brute.setdefault(ref, code) == code, d
        assert by_code.setdefault(code, ref) == ref, d
        for _ in range(2):
            assert canonical_code(scrambled(d, rng)) == code, d
    assert len(by_code) > 50


def test_stored_code_is_invisible():
    text = FIXTURE_PDS["trefoil"][0]
    coded, plain = parse_pd(text), parse_pd(text)
    before = (repr(coded), pd_text(coded))
    code = canonical_code(coded)
    assert coded == plain and hash(coded) == hash(plain)
    assert len({coded, plain}) == 1
    assert (repr(coded), pd_text(coded)) == before
    # plain is still uncoded, so its children are coded from scratch;
    # the coded parent's children must not carry its code either
    for i in range(coded.crossing_count):
        for op in (switch, smooth):
            child = op(coded, i)
            assert canonical_code(child) == canonical_code(op(plain, i)) != code
    # the marks of simplify and switch are just as invisible, and only
    # the switch of a diagram simplify returned carries one
    marked = simplify(parse_pd(text))
    assert marked._simple and not plain._simple
    for i in range(marked.crossing_count):
        child, twin = switch(marked, i), switch(plain, i)
        assert child._switched == i and not child._simple
        assert twin._switched is None and not twin._simple
        for d, same in ((marked, plain), (child, twin)):
            assert d == same and hash(d) == hash(same) and len({d, same}) == 1
            assert (repr(d), pd_text(d)) == (repr(same), pd_text(same))
        for other in (switch(child, i), switch(twin, i), smooth(marked, i)):
            assert other._switched is None and not other._simple


def test_canonical_separates_fixtures():
    codes = {}
    for name, (text, _) in FIXTURE_PDS.items():
        codes.setdefault(canonical_code(parse_pd(text)), []).append(name)
    assert all(len(v) == 1 for v in codes.values()), codes


def test_mirror_involution_and_writhe():
    for text, _ in FIXTURE_PDS.values():
        d = parse_pd(text)
        m = mirror(d)
        assert writhe(m) == -writhe(d)
        assert component_count(m) == component_count(d)
        assert canonical_code(mirror(m)) == canonical_code(d)


def test_faces_euler_formula():
    # connected diagram on the sphere: F = c + 2
    for name in ("hopf+", "trefoil", "fig8", "K5a2"):
        d = parse_pd(FIXTURE_PDS[name][0])
        assert len(faces(d)) == d.crossing_count + 2, name


def test_split_and_disjoint_union():
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    assert not is_split(tref)
    u = disjoint_union(tref, hopf)
    assert is_split(u)
    assert component_count(u) == 3
    parts = split_components(u)
    assert sorted(p.crossing_count for p in parts) == [2, 3]
    codes = {canonical_code(p) for p in parts}
    assert codes == {canonical_code(tref), canonical_code(hopf)}
    # free loops split off one by one
    v = disjoint_union(u, parse_pd("O;O"))
    assert len(split_components(v)) == 4


def test_validate_catches_bad_succession():
    # two crossings wired so labels are not contiguous along a component
    crs = (Crossing(1, 4, 3, 2, 1), Crossing(3, 2, 1, 4, 1))
    with pytest.raises(ValueError):
        validate(OrientedDiagram(crs, 0))


def test_crossing_accessors():
    cr = Crossing(1, 4, 2, 5, 1)
    assert cr.over_in() == 4 and cr.over_out() == 5
    neg = Crossing(1, 4, 2, 5, -1)
    assert neg.over_in() == 5 and neg.over_out() == 4
    assert set(cr.arcs()) == {1, 4, 2, 5}


# -- the kernel against test-only references ----------------------------------
#
# The references take the plain road: every start arc labeled in full,
# cycles rotated to their smallest arc, a union-find root looked up for
# every slot.  The kernel computes each start arc's first crossing and
# relabels from one succession pass; it must give the same results.


def _reference_labels(start, succ, head):
    """Traversal labeling of a connected part from start."""
    label, order = {}, []
    nxt, scan = start, 0
    while True:
        x = nxt
        while x not in label:
            order.append(x)
            label[x] = len(order)
            x = succ[x]
        if len(order) == len(succ):
            return label
        while True:
            cr = head[order[scan]]
            nxt = next((y for y in cr.arcs() if y not in label), None)
            if nxt is not None:
                break
            scan += 1


def reference_candidates(crossings):
    """{start arc: its sorted relabeled crossings}, for every a-slot arc."""
    succ, head = {}, {}
    for cr in crossings:
        succ[cr.a] = cr.c
        succ[cr.over_in()] = cr.over_out()
        head[cr.a] = head[cr.over_in()] = cr
    out = {}
    for start in {cr.a for cr in crossings}:
        label = _reference_labels(start, succ, head)
        out[start] = sorted(
            (label[cr.a], label[cr.b], label[cr.c], label[cr.d], cr.sign) for cr in crossings
        )
    return out


def reference_part_code(crossings):
    best = min(reference_candidates(crossings).values())
    return ";".join("%d,%d,%d,%d,%d" % t for t in best)


def reference_groups(d):
    """Crossing index groups joined by shared arcs, merged pairwise."""
    groups = []
    for ci, cr in enumerate(d.crossings):
        merged = ([ci], set(cr.arcs()))
        for g in [g for g in groups if g[1] & merged[1]]:
            groups.remove(g)
            merged = (merged[0] + g[0], merged[1] | g[1])
        groups.append(merged)
    return sorted(sorted(g[0]) for g in groups)


def reference_code(d):
    parts = sorted(reference_part_code([d.crossings[ci] for ci in g]) for g in reference_groups(d))
    return "/".join(parts) + "|L%d" % d.free_loops


def reference_renormalize(crossings, free_loops):
    crossings = tuple(crossings)
    succ = {}
    for cr in crossings:
        for src, dst in ((cr.a, cr.c), (cr.over_in(), cr.over_out())):
            if src in succ:
                raise ValueError("arc %d continues in two different ways" % src)
            succ[src] = dst
    mapping = {}
    for start in sorted(succ):
        if start in mapping:
            continue
        cycle, x = [start], succ[start]
        while x != start:
            if x in cycle or x in mapping or x not in succ:
                raise ValueError("arc succession does not close into cycles at arc %d" % x)
            cycle.append(x)
            x = succ[x]
        k = cycle.index(min(cycle))
        for label in cycle[k:] + cycle[:k]:
            mapping[label] = len(mapping) + 1
    relabeled = sorted(
        Crossing(mapping[c.a], mapping[c.b], mapping[c.c], mapping[c.d], c.sign) for c in crossings
    )
    return OrientedDiagram(tuple(relabeled), free_loops)


def reference_rewire(crossings, merges, free_loops):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in merges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    relabeled = [Crossing(find(c.a), find(c.b), find(c.c), find(c.d), c.sign) for c in crossings]
    used = {arc for c in relabeled for arc in c.arcs()}
    loops = len({find(x) for pair in merges for x in pair} - used)
    return reference_renormalize(relabeled, free_loops + loops)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return "ValueError: %s" % e


# multi-component closures: at many start arcs the over arcs of the head
# crossing lie on other components, one or two of them
MULTI_WORDS = [
    "p=2: 1 1 1 1",
    "p=2: 1 -1 1 1 -1 1",
    "p=3: 1 1 2 2",
    "p=3: 1 2 1 2 1 2",
    "p=3: -1 -1 2 2 -1 2 2",
    "p=4: 1 1 2 2 3 3",
    "p=4: 1 2 3 1 2 3 1 2 3 1 2 3",
    "p=4: 1 -2 3 1 2 -3 -1 2 3 2",
]


def multi_component_battery():
    out = [parse_pd(FIXTURE_PDS[name][0]) for name in ("hopf+", "L4a1{0}", "L4a1{1}", "L5a1")]
    for word in MULTI_WORDS:
        d = braid_closure(parse_braid(word))
        out.append(d)
        out += [simplify(smooth(d, i)) for i in range(0, d.crossing_count, 3)]
        out += [simplify(switch(d, i)) for i in range(1, d.crossing_count, 3)]
    return out


def kernel_battery():
    """closure_battery, the simplified finder_battery, the multi-component
    battery, and a scrambled copy of each."""
    rng = random.Random(11)
    out = closure_battery() + [simplify(d) for d in finder_battery()] + multi_component_battery()
    return out + [scrambled(d, rng) for d in out]


def _off_component_starts(crossings):
    """Start arcs whose head crossing has an over arc on another component."""
    comp = {}
    for k, cycle in enumerate(_reference_cycles(crossings)):
        comp.update(dict.fromkeys(cycle, k))
    return [cr.a for cr in crossings if comp[cr.b] != comp[cr.a] or comp[cr.d] != comp[cr.a]]


def _reference_cycles(crossings):
    succ = {}
    for cr in crossings:
        succ[cr.a] = cr.c
        succ[cr.over_in()] = cr.over_out()
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


def test_canonical_code_matches_the_all_starts_reference():
    battery = kernel_battery()
    off = 0
    for d in battery:
        groups = _crossing_groups(d)
        assert groups == reference_groups(d), d
        for g in groups:
            crs = [d.crossings[ci] for ci in g]
            assert _part_code(crs) == reference_part_code(crs), d
            off += bool(_off_component_starts(crs))
        assert canonical_code(d) == reference_code(d), d
    # the battery reaches the off-component labels
    assert off > 100


def test_part_code_labels_only_the_starts_with_the_smallest_first_crossing(monkeypatch):
    """Each start's first relabeled crossing is computed exactly, so only
    the starts whose candidate begins with the smallest one are labeled."""
    labeled = []
    real = diagram._traversal_labels

    def recording(start, succ, head):
        labeled.append(start)
        return real(start, succ, head)

    monkeypatch.setattr(diagram, "_traversal_labels", recording)
    total = pruned_off = 0
    for d in kernel_battery():
        for g in reference_groups(d):
            crs = [d.crossings[ci] for ci in g]
            cands = reference_candidates(crs)
            first = min(c[0] for c in cands.values())
            want = sorted(s for s, c in cands.items() if c[0] == first)
            labeled.clear()
            _part_code(crs)
            assert sorted(labeled) == want, crs
            total += len(cands)
            pruned_off += len(set(_off_component_starts(crs)) - set(want))
    assert pruned_off > 100 and total > 2000


def test_renormalize_matches_the_reference():
    rng = random.Random(5)
    for d in kernel_battery():
        for _ in range(2):
            s = scrambled(d, rng)
            assert renormalize(s.crossings, s.free_loops) == reference_renormalize(s.crossings, s.free_loops)
    assert renormalize([], 2) == OrientedDiagram((), 2)
    with pytest.raises(ValueError, match="empty diagram"):
        renormalize([], 0)


def _merge_lists(cr):
    """Merges of a removed crossing's arcs: the smoothings and chains whose
    second arcs end up below another root."""
    a, b, c, d = cr.arcs()
    return [
        _smoothing_pairs(cr),
        [(a, c), (cr.over_in(), cr.over_out())],
        [(a, b), (a, d)],
        [(b, a), (b, c), (d, b)],
        [(c, d), (a, c), (b, a)],
    ]


def test_rewire_matches_the_reference():
    """Smoothings and merge chains give the reference's diagram, or the
    same error."""
    battery = finder_battery() + multi_component_battery()
    for d in battery:
        for i, cr in enumerate(d.crossings):
            rest = d.crossings[:i] + d.crossings[i + 1 :]
            for merges in _merge_lists(cr):
                got = _outcome(_rewire, rest, merges, d.free_loops)
                assert got == _outcome(reference_rewire, rest, merges, d.free_loops), (d, i, merges)
            want = reference_rewire(rest, _smoothing_pairs(cr), d.free_loops)
            assert smooth(d, i) == want


@given(
    st.integers(3, 4).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(
                st.integers(1, p - 1).flatmap(lambda g: st.sampled_from((g, -g))),
                min_size=3,
                max_size=10,
            ),
            st.integers(0, 10**6),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_references_on_random_closures(case):
    p, letters, seed = case
    d = braid_closure(parse_braid("p=%d: %s" % (p, " ".join(map(str, letters)))))
    rng = random.Random(seed)
    s = scrambled(d, rng)
    fl = d.free_loops  # a strand no letter touches closes into a free loop
    assert renormalize(s.crossings, fl) == reference_renormalize(s.crossings, fl)
    i = rng.randrange(d.crossing_count)
    rest = d.crossings[:i] + d.crossings[i + 1 :]
    assert smooth(d, i) == reference_rewire(rest, _smoothing_pairs(d.crossings[i]), fl)
    for x in (d, s, simplify(d), simplify(switch(d, i)), simplify(smooth(d, i))):
        assert canonical_code(x) == reference_code(x), x


# canonical codes of the bundled rows and of torus closures; result
# cache files are keyed on them, so a kernel change that renames a
# diagram must fail here
PINNED_CODES = {
    "unknot": "|L1",
    "unlink2": "|L2",
    "unlink3": "|L3",
    "unlink4": "|L4",
    "L2a1": "1,3,2,4,1;4,2,3,1,1|L0",
    "K3a1": "1,4,2,5,1;3,6,4,1,1;5,2,6,3,1|L0",
    "K4a1": "1,6,2,7,1;3,1,4,8,-1;5,2,6,3,1;7,5,8,4,-1|L0",
    "L4a1{0}": "1,5,2,8,-1;3,7,4,6,-1;5,1,6,4,-1;7,3,8,2,-1|L0",
    "L4a1{1}": "1,5,2,6,1;3,7,4,8,1;6,2,7,3,1;8,4,5,1,1|L0",
    "K5a1": "1,4,2,5,1;3,8,4,9,1;5,10,6,1,1;7,2,8,3,1;9,6,10,7,1|L0",
    "K5a2": "1,6,2,7,1;3,8,4,9,1;5,10,6,1,1;7,2,8,3,1;9,4,10,5,1|L0",
    "L5a1": "1,4,2,5,1;3,8,4,9,1;5,7,6,10,-1;7,2,8,3,1;9,1,10,6,-1|L0",
    "L6a4": "1,5,2,6,1;2,9,3,10,1;6,10,7,11,1;7,3,8,4,1;11,4,12,1,1;12,8,9,5,1|L0",
    "T(2,6)": "1,7,2,8,1;3,9,4,10,1;5,11,6,12,1;8,2,9,3,1;10,4,11,5,1;12,6,7,1,1|L0",
    "K7a7": (
        "1,8,2,9,1;3,10,4,11,1;5,12,6,13,1;7,14,8,1,1;9,2,10,3,1;11,4,12,5,1;13,6,14,7,1|L0"
    ),
    "T(2,3) closure": "1,4,2,5,1;3,6,4,1,1;5,2,6,3,1|L0",
    "T(2,4) closure": "1,5,2,6,1;3,7,4,8,1;6,2,7,3,1;8,4,5,1,1|L0",
    "T(2,5) closure": "1,6,2,7,1;3,8,4,9,1;5,10,6,1,1;7,2,8,3,1;9,4,10,5,1|L0",
    "T(2,6) closure": "1,7,2,8,1;3,9,4,10,1;5,11,6,12,1;8,2,9,3,1;10,4,11,5,1;12,6,7,1,1|L0",
    "T(3,4) closure": (
        "1,6,2,7,1;4,15,5,16,1;5,10,6,11,1;8,3,9,4,1;"
        "9,14,10,15,1;12,7,13,8,1;13,2,14,3,1;16,11,1,12,1|L0"
    ),
    "T(3,5) closure": (
        "1,8,2,9,1;2,15,3,16,1;5,12,6,13,1;6,19,7,20,1;9,16,10,17,1;"
        "10,3,11,4,1;13,20,14,1,1;14,7,15,8,1;17,4,18,5,1;18,11,19,12,1|L0"
    ),
}


def test_canonical_codes_are_pinned():
    path = str(importlib.resources.files("skeindepth").joinpath("datasets/bundled.tsv"))
    got = {row.name: canonical_code(row.pd) for row in load_dataset(path)}
    assert len(got) == 15
    for p, q in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5)):
        word = "p=%d: " % p + " ".join(" ".join(map(str, range(1, p))) for _ in range(q))
        got["T(%d,%d) closure" % (p, q)] = canonical_code(braid_closure(parse_braid(word)))
    assert got == PINNED_CODES


# -- planar questions answered from the faces ----------------------------------


def _reference_cut_crossings(d):
    """Crossings whose removal splits their part of the crossing graph,
    by removing each crossing in turn."""
    cuts = set()
    for group in reference_groups(d):
        for i in group if len(group) > 2 else ():
            rest = tuple(d.crossings[k] for k in group if k != i)
            if len(reference_groups(OrientedDiagram(rest))) > 1:
                cuts.add(i)
    return cuts


# a generator used once joins the strands on its two sides at one crossing
CUT_WORDS = ["p=4: 1 1 1 2 3 3 3", "p=4: 1 -1 1 2 -3 -3", "p=5: 1 -1 1 2 3 4 -3 4 4"]


def test_faces_meet_twice_exactly_the_cut_and_kink_crossings():
    """A crossing separates its part exactly when some face meets it at
    two corners, and a kink crossing is met twice by the face around its
    loop; find_nugatory takes its candidates from this."""
    cut_seen = kink_seen = 0
    closures = [braid_closure(parse_braid(word)) for word in CUT_WORDS]
    extra = closures + [switch(d, i) for d in closures for i in range(d.crossing_count)]
    for d in kernel_battery() + finder_battery() + extra:
        twice = set()
        for face in faces(d):
            corners = [ci for ci, _ in face]
            twice.update(ci for ci in corners if corners.count(ci) > 1)
        cuts = _reference_cut_crossings(d)
        kinks = {i for i, cr in enumerate(d.crossings) if len(set(cr.arcs())) < 4}
        assert twice == cuts | kinks, d
        cut_seen += len(cuts)
        kink_seen += len(kinks)
    assert cut_seen > 20 and kink_seen > 40


def test_pd_text_parses_back_to_the_diagram():
    """Sign inference recovers every crossing of a diagram labeled 1..2c
    along its components, when every component runs under somewhere."""
    checked = 0
    for d in kernel_battery() + finder_battery():
        try:
            validate(d)
        except ValueError:
            continue  # labels off the 1..2c convention
        under = {cr.a for cr in d.crossings}
        if all(under & set(cycle) for cycle in component_cycles(d)):
            assert parse_pd(pd_text(d)) == d, d
            checked += 1
    assert checked > 300
