"""Parsing, validation, canonical codes, and diagram surgery."""

import itertools
import random

import pytest

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
from skeindepth.diagram import faces, validate

from conftest import FIXTURE_PDS, ORACLE_WORDS, scrambled


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
