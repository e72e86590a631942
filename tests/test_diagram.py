"""Parsing, validation, canonical codes, and diagram surgery."""

import dataclasses
import importlib.resources
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeindepth import (
    Crossing,
    OrientedDiagram,
    braid_closure,
    canonical_code,
    component_count,
    component_cycles,
    disjoint_union,
    homfly,
    insert_kink,
    is_split,
    mirror,
    parse_braid,
    parse_pd,
    pd_text,
    poke_moves,
    simplify,
    smooth,
    split_components,
    switch,
    triangle_moves,
    writhe,
)
from skeindepth import diagram
from skeindepth.cli import load_dataset
from skeindepth.diagram import (
    _block_index,
    _met_twice,
    _part_code,
    _parts,
    defects,
    faces,
    renormalize,
    switch_sheds,
    validate,
)
from skeindepth.poly import DELTA

from conftest import (
    FIXTURE_PDS,
    ORACLE_WORDS,
    SEARCH_WORDS,
    check_pokes_once,
    check_slides_once,
    closure_battery,
    finder_battery,
    four_five_strand_draw,
    occurrences,
    over_strand,
    reference_check_labels,
    reference_cycles,
    reference_parse,
    reference_signs,
    scrambled,
    walk_order_blocks,
)


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


# the trefoil with labels 2 and 3 swapped: sign inference reads the
# succession of labels, so text in other labels is rejected, not relabeled
SWAPPED_TREFOIL = "X[1,4,3,5];X[2,6,4,1];X[5,3,6,2]"
REJECT_MESSAGES = {
    SWAPPED_TREFOIL: "arc labels do not run in walk order at arc 2",
    "X[1,4,2,5];;X[3,6,4,1]": "empty PD item",
    "X[2,4,3,1];X[1,2,3,4]": "arc labels do not run in walk order at arc 4",
}


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
        SWAPPED_TREFOIL,
        "X[1,4,2,5];;X[3,6,4,1]",  # an empty item
        "X[2,4,3,1];X[1,2,3,4]",  # read in walk order, arc 4 continues twice
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError, match=REJECT_MESSAGES.get(bad)):
        parse_pd(bad)


def test_the_constructor_relabels_in_walk_order():
    """A diagram built with other labels comes out in walk order, each
    crossing where it was given, with the table a walk-order copy reads;
    crossings whose arcs do not close into components are rejected."""
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    # the left-handed trefoil, its arcs 7, 11, 9, 10, 8, 12 along the walk
    given = (Crossing(7, 8, 11, 10, -1), Crossing(9, 7, 10, 12, -1), Crossing(8, 9, 12, 11, -1))
    d = OrientedDiagram(given)
    assert d.crossings == (
        Crossing(1, 5, 2, 4, -1),
        Crossing(3, 1, 4, 6, -1),
        Crossing(5, 3, 6, 2, -1),
    )
    assert d._blocks == walk_order_blocks(d.crossings) == [1, 7]
    assert canonical_code(d) == canonical_code(mirror(tref))
    assert OrientedDiagram(d.crossings) == d
    renamed = OrientedDiagram(tuple(Crossing(*(x + 6 for x in cr[:4]), cr[4]) for cr in tref.crossings))
    assert renamed == tref and renamed._blocks == tref._blocks
    with pytest.raises(ValueError):
        OrientedDiagram((Crossing(1, 1, 1, 1, 1),))
    # label 1 renamed -7 where it arrives: no label below 1 runs in walk order
    with pytest.raises(ValueError):
        OrientedDiagram((Crossing(-7, 4, 2, 5, 1),) + tref.crossings[1:])


@pytest.mark.parametrize(
    "crossings, free_loops, message",
    [
        ((), -1, "free_loops must be >= 0"),
        ((Crossing(1, 4, 2, 5, 2), Crossing(3, 6, 4, 1, 1), Crossing(5, 2, 6, 3, 1)), 0, "crossing sign must be"),
        ((Crossing(1, 2, 3, 4, 1), Crossing(1, 3, 2, 4, 1)), 0, "arc 1 continues in two different ways"),
        # hand-built labels are walked by rank; the errors name the labels
        ((Crossing(10, 20, 30, 40, 1), Crossing(10, 30, 20, 40, 1)), 0, "arc 10 continues in two different ways"),
        ((Crossing(-5, 7, 6, 9, 1),), 0, "does not close into cycles at arc 6"),
    ],
)
def test_the_constructor_rejects(crossings, free_loops, message):
    with pytest.raises(ValueError, match=message):
        OrientedDiagram(crossings, free_loops)


def test_disjoint_union_of_a_renamed_diagram():
    """The union offsets the second diagram's labels by twice the first
    one's crossing count, which holds because the first one's labels are
    1..2c: a trefoil built with arcs 7..12 is relabeled so."""
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    renamed = OrientedDiagram(tuple(Crossing(*(x + 6 for x in cr[:4]), cr[4]) for cr in tref.crossings))
    u = disjoint_union(renamed, tref)
    assert component_count(u) == 2 and is_split(u)
    assert homfly(u) == homfly(tref) * homfly(tref) * DELTA
    assert canonical_code(u) == canonical_code(disjoint_union(tref, tref))


def test_signs_inferred_right_trefoil():
    d = parse_pd("X[1,4,2,5];X[3,6,4,1];X[5,2,6,3]")
    assert all(cr[4] == 1 for cr in d.crossings)
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


def switch_mask_texts(seed, over_only_wanted):
    """The texts of seeded 2-5 strand closures with a two-arc component,
    switched at every subset of their first six crossings, until the
    texts that have a two-arc component running only over number
    over_only_wanted; returns the texts and that count."""
    rng = random.Random(seed)
    texts, over_only = [], 0
    while over_only < over_only_wanted:
        p = rng.randint(2, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(2, 8))]
        d = braid_closure(parse_braid("p=%d: %s" % (p, " ".join(map(str, letters)))))
        pairs = [s for s, e in zip(d._blocks, d._blocks[1:]) if e - s == 2]
        if not pairs:
            continue
        n = min(d.crossing_count, 6)
        for mask in range(1 << n):
            e = d
            for i in range(n):
                if mask >> i & 1:
                    e = switch(e, i)
            under = {x for cr in e.crossings for x in (cr[0], cr[2])}
            over_only += any(s not in under and s + 1 not in under for s in pairs)
            texts.append(pd_text(e))
    return texts, over_only


def perturbed(text, rng):
    """text with one crossing's entries swapped, rotated or reversed, or
    with two labels exchanged throughout: most such texts are rejected,
    some read as another diagram."""
    items = text.split(";")
    rows = [[int(x) for x in item[2:-1].split(",")] for item in items if item != "O"]
    row = rng.choice(rows)
    kind = rng.randrange(4)
    if kind == 0:
        i, j = rng.sample(range(4), 2)
        row[i], row[j] = row[j], row[i]
    elif kind == 1:
        r = rng.randint(1, 3)
        row[:] = row[r:] + row[:r]
    elif kind == 2:
        row.reverse()
    else:
        x, y = rng.sample(range(1, 2 * len(rows) + 1), 2)
        rows = [[y if v == x else x if v == y else v for v in r] for r in rows]
    return ";".join(["X[%d,%d,%d,%d]" % tuple(r) for r in rows] + ["O"] * items.count("O"))


def test_parse_pd_reads_signs_as_the_worklist_does():
    """parse_pd reads each sign from label succession; the general
    worklist (conftest's reference_signs) propagates directions from the
    under-strands.  On walk-order texts, over 1,000 of them with a
    two-arc component that only runs over, both give the same signs, and
    on texts perturbed from them both accept or reject alike, the
    accepted ones parsing to the same crossings, free loops and
    label-block table."""
    texts, over_only = switch_mask_texts(32, 1000)
    assert over_only >= 1000 and len(texts) > 3000
    for text in texts:
        d = parse_pd(text)
        tuples = [cr[:4] for cr in d.crossings]
        assert [cr[4] for cr in d.crossings] == reference_signs(tuples), text
        assert d._blocks == walk_order_blocks(d.crossings), text
    rng = random.Random(33)
    accepted = rejected = 0
    for text in map(perturbed, rng.sample(texts, 3000), itertools.repeat(rng)):
        try:
            want = reference_parse(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_pd(text)
            rejected += 1
            continue
        got = parse_pd(text)
        assert (got.crossings, got.free_loops) == (want.crossings, want.free_loops), text
        assert got._blocks == want._blocks == walk_order_blocks(got.crossings), text
        accepted += 1
    assert accepted > 200 and rejected > 1000, (accepted, rejected)


def _message(f, *args):
    """The ValueError message f(*args) raises, or None."""
    try:
        f(*args)
    except ValueError as e:
        return str(e)
    return None


def test_label_count_names_what_the_places_reference_names():
    """The label-indexed count gives the message of the count over each
    label's places (conftest's reference_check_labels): the smallest bad
    label with its count, or the 1..2n message, on walk-order labels
    with one to three entries replaced by a label in 0..2n + 2, and on
    labels shifted by -1..2."""
    texts, _ = switch_mask_texts(35, 100)
    rng = random.Random(36)
    seen = set()
    for text in rng.sample(texts, min(len(texts), 1500)):
        tuples = [cr[:4] for cr in parse_pd(text).crossings]
        n = len(tuples)
        flat = [x for t in tuples for x in t]
        for _ in range(rng.randint(1, 3)):
            flat[rng.randrange(len(flat))] = rng.randint(0, 2 * n + 2)
        cases = [[tuple(flat[i : i + 4]) for i in range(0, len(flat), 4)]]
        cases += [[tuple(x + s for x in t) for t in tuples] for s in (-1, 0, 1, 2)]
        for case in cases:
            want = _message(reference_check_labels, occurrences(case), n)
            assert _message(diagram._check_label_counts, case) == want, case
            seen.add(want.split()[1] if want else None)
    # a count message, the 1..2n message, and no message all occur
    assert seen == {None, "label", "labels"}, seen


def test_validate_counts_the_faces_it_does_not_list():
    """validate's cycle count of the corner table is len(faces(d)): on
    walk-order diagrams and on copies with one or two crossings
    reflected (b and d exchanged, the sign flipped, which keeps the walk
    but not, as a rule, planarity) it raises exactly when that count
    misses Euler's, with the same numbers."""
    texts, _ = switch_mask_texts(37, 100)
    rng = random.Random(38)
    planar = nonplanar = 0
    for text in rng.sample(texts, min(len(texts), 600)):
        d = parse_pd(text)
        for _ in range(2):
            rows = list(d.crossings)
            for i in rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 2))):
                a, b, c, e, sign = rows[i]
                rows[i] = Crossing(a, e, c, b, -sign)
            x = OrientedDiagram(tuple(rows), d.free_loops)
            need = x.crossing_count + 2 * len(_parts(x.crossings, x._blocks))
            found = len(faces(x))
            want = None
            if found != need:
                want = "not planar: the Euler count needs %d faces, found %d" % (need, found)
            assert _message(validate, x) == want, x
            planar += want is None
            nonplanar += want is not None
        assert _message(validate, d) is None
    assert planar > 50 and nonplanar > 500, (planar, nonplanar)


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
                (mapping[a], mapping[b], mapping[c], mapping[e], s) for a, b, c, e, s in d.crossings
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
    marked_switches = 0
    for name in ("trefoil", "L5a1"):
        text = FIXTURE_PDS[name][0]
        coded, plain = parse_pd(text), parse_pd(text)
        before = (repr(coded), pd_text(coded), dict(vars(coded)))
        code = canonical_code(coded)
        # canonical_code stores nothing on the diagram it codes
        assert (repr(coded), pd_text(coded), vars(coded)) == before
        assert coded == plain and hash(coded) == hash(plain)
        assert len({coded, plain}) == 1
        for i in range(coded.crossing_count):
            for op in (switch, smooth):
                child = op(coded, i)
                assert canonical_code(child) == canonical_code(op(plain, i)) != code
        # the marks simplify and switch leave are just as invisible; only
        # a diagram simplify returned, and its switches that shed nothing,
        # carry the simple mark
        marked = simplify(parse_pd(text))
        assert marked._simple and not plain._simple
        sheds = switch_sheds(marked)
        for i in range(marked.crossing_count):
            child, twin = switch(marked, i), switch(plain, i)
            assert child._simple == (not sheds(i)) and not twin._simple
            marked_switches += child._simple
            for d, same in ((marked, plain), (child, twin)):
                assert d == same and hash(d) == hash(same) and len({d, same}) == 1
                assert (repr(d), pd_text(d)) == (repr(same), pd_text(same))
            for other in (switch(twin, i), smooth(marked, i)):
                assert not other._simple
            # switching back gives the simplified diagram, marked when the
            # switch was: then no move fires on either
            back = switch(child, i)
            assert back == marked and back._simple == child._simple
    assert marked_switches > 0


def test_the_marks_on_a_diagram_are_its_recomputed_state():
    """A diagram holds nothing beyond its crossings and free loops but
    its label-block table, _blocks, and the mark _simple, and each is
    what the crossings give: _blocks is the table a fresh copy reads,
    and the switch of a simplified diagram is marked exactly when
    simplify removes nothing from it.  Checked on the closure battery
    and the simplified finder battery, each also renamed and reordered,
    and on every switch of them."""
    hidden = {f.name for f in dataclasses.fields(OrientedDiagram) if not f.init}
    assert hidden == {"_blocks", "_simple"}
    rng = random.Random(7)
    walks = marked = unmarked = 0

    def fresh(d):
        return OrientedDiagram(d.crossings, d.free_loops)

    def check_walk(d):
        nonlocal walks
        assert d._blocks == fresh(d)._blocks == walk_order_blocks(d.crossings), pd_text(d)
        walks += 1

    for d in closure_battery() + [simplify(d) for d in finder_battery()]:
        for s in (d, simplify(scrambled(d, rng))):
            assert s._simple
            check_walk(s)
            for i in range(s.crossing_count):
                sw = switch(s, i)
                check_walk(sw)
                keeps = simplify(fresh(sw)).crossing_count == sw.crossing_count
                assert sw._simple == keeps, (pd_text(s), i)
                assert (simplify(sw).crossing_count == sw.crossing_count) == keeps, (pd_text(s), i)
                marked += keeps
                unmarked += not keeps
    assert walks > 900 and marked > 300 and unmarked > 1000


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
    # two crossings wired so labels are not contiguous along a component:
    # the text is rejected, and the diagram, which the constructor
    # relabels, is not planar
    crs = (Crossing(1, 4, 3, 2, 1), Crossing(3, 2, 1, 4, 1))
    with pytest.raises(ValueError, match="arc labels do not run in walk order at arc 4"):
        parse_pd("X[1,4,3,2];X[3,2,1,4]")
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
            nxt = next((y for y in cr[:4] if y not in label), None)
            if nxt is not None:
                break
            scan += 1


def reference_candidates(crossings):
    """{start arc: its sorted relabeled crossings}, for every a-slot arc."""
    succ, head = {}, {}
    for cr in crossings:
        over_in, over_out = over_strand(cr)
        succ[cr[0]] = cr[2]
        succ[over_in] = over_out
        head[cr[0]] = head[over_in] = cr
    out = {}
    for start in {cr[0] for cr in crossings}:
        label = _reference_labels(start, succ, head)
        out[start] = sorted((label[a], label[b], label[c], label[e], s) for a, b, c, e, s in crossings)
    return out


def reference_part_code(crossings):
    best = min(reference_candidates(crossings).values())
    return ";".join("%d,%d,%d,%d,%d" % t for t in best)


def reference_groups(d):
    """Crossing index groups joined by shared arcs, merged pairwise."""
    return _reference_groups(d.crossings)


def _reference_groups(crossings):
    """reference_groups on (a, b, c, d, sign) tuples, which need not make
    a diagram."""
    groups = []
    for ci, cr in enumerate(crossings):
        merged = ([ci], set(cr[:4]))
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
        for src, dst in ((cr[0], cr[2]), over_strand(cr)):
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
        Crossing(mapping[a], mapping[b], mapping[c], mapping[e], s) for a, b, c, e, s in crossings
    )
    return OrientedDiagram(tuple(relabeled), free_loops)


def smoothing_pairs(cr):
    """The arc pairs the oriented smoothing of cr joins, in-arc to out-arc."""
    a, b, c, d, sign = cr
    if sign > 0:
        return [(a, d), (b, c)]
    return [(a, b), (d, c)]


def reference_smooth(d, i):
    """The oriented smoothing at crossing i, glued by reference_rewire."""
    rest = d.crossings[:i] + d.crossings[i + 1 :]
    return reference_rewire(rest, smoothing_pairs(d.crossings[i]), d.free_loops)


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
    relabeled = [Crossing(find(a), find(b), find(c), find(e), s) for a, b, c, e, s in crossings]
    used = {arc for c in relabeled for arc in c.arcs()}
    loops = len({find(x) for pair in merges for x in pair} - used)
    return reference_renormalize(relabeled, free_loops + loops)


# -- simplify's moves one diagram at a time, kept as references -----------------


def is_kink(cr):
    """Do the over and under passages of cr share an arc?"""
    a, b, c, d, _ = cr
    return b == c or a == d or c == d or a == b


def find_kink(d):
    """Index of the first kink crossing."""
    return next((i for i, cr in enumerate(d.crossings) if is_kink(cr)), None)


def find_poke_pair(d):
    """A pair (i, j) joined by an over-over arc and an under-under arc,
    the first i in crossing order; an arc arrives at one crossing only,
    so j is one lookup."""
    by_over_in = {over_strand(cr)[0]: j for j, cr in enumerate(d.crossings)}
    for i, ci in enumerate(d.crossings):
        j = by_over_in.get(over_strand(ci)[1])
        if j is not None and j != i:
            cj = d.crossings[j]
            if ci[2] == cj[0] or cj[2] == ci[0]:
                return (i, j)
    return None


def kink_merges(d, i):
    """The arcs the kink at crossing i joins: in to out along its strand."""
    a, b, c, e, _ = d.crossings[i]
    if b == c:
        return [(a, e)]
    if a == e:
        return [(b, c)]
    if c == e:
        return [(a, b)]
    return [(e, c)]


def poke_merges(d, i, j):
    """The arcs lifting the strand poked through crossings i and j joins."""
    ci, cj = d.crossings[i], d.crossings[j]
    (over_in, e1), (_, over_out) = over_strand(ci), over_strand(cj)
    merges = [(over_in, e1), (e1, over_out)]
    if ci[2] == cj[0]:
        return merges + [(ci[0], ci[2]), (ci[2], cj[2])]
    return merges + [(cj[0], cj[2]), (cj[2], ci[2])]


def reference_flip(cr):
    """cr with its tangle turned over: cyclic order reversed, over and
    under exchanged, succession and sign kept."""
    a, b, c, d, sign = cr
    if sign > 0:
        return Crossing(b, a, d, c, 1)
    return Crossing(d, c, b, a, -1)


def remove_kink(d, i):
    return reference_rewire(d.crossings[:i] + d.crossings[i + 1 :], kink_merges(d, i), d.free_loops)


def remove_poke_pair(d, i, j):
    rest = [cr for k, cr in enumerate(d.crossings) if k not in (i, j)]
    return reference_rewire(rest, poke_merges(d, i, j), d.free_loops)


def remove_nugatory(d, i, flip_side):
    """Untwist crossing i by turning the crossings flip_side over."""
    cr = d.crossings[i]
    rest = [
        reference_flip(other) if k in flip_side else other for k, other in enumerate(d.crossings) if k != i
    ]
    return reference_rewire(rest, [(cr[0], cr[2]), over_strand(cr)], d.free_loops)


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


def reference_defects(d):
    """defects read per crossing: place each arc by (component, step)
    along the walk from each component's smallest arc, components in
    order of their smallest arcs; a crossing is a defect when its
    under-strand arrives before its over-strand, and the defects are met
    in the order their under-strands arrive."""
    place = {}
    for cycle in reference_cycles(d.crossings):
        m = cycle.index(min(cycle))
        place.update((arc, (min(cycle), step)) for step, arc in enumerate(cycle[m:] + cycle[:m]))
    found = [(place[cr[0]], i) for i, cr in enumerate(d.crossings) if place[cr[0]] < place[over_strand(cr)[0]]]
    return [i for _, i in sorted(found)]


def test_first_defect_matches_the_reference():
    """Each diagram of the kernel battery, its mirror and a renamed copy,
    switched at its first defect until it is descending, and at its last
    defect on the way: the walk-order defects match the per-crossing
    reading, and switching any defect removes it and keeps the others,
    which ends the HOMFLY-PT expansion.
    The constructor gives a renamed copy other walk-order labels, with
    its crossings where they were; the components and the split test,
    read from the same table, match the cycles and the reference parts."""
    rng = random.Random(19)
    descending = renamed = 0
    for d in kernel_battery():
        copy = scrambled(d, rng)
        renamed += sorted(copy.crossings) != sorted(d.crossings)
        for e in (d, mirror(d), copy):
            assert component_count(e) == len(component_cycles(e)) + e.free_loops, pd_text(e)
            assert is_split(e) == (len(reference_groups(e)) + e.free_loops > 1), pd_text(e)
            while True:
                found = defects(e)
                assert found == reference_defects(e), pd_text(e)
                if not found:
                    break
                assert defects(switch(e, found[-1])) == found[:-1], pd_text(e)
                e = switch(e, found[0])
            descending += e.crossing_count > 0
    assert descending > 1500 and renamed > 400


def test_every_diagram_the_library_builds_is_labeled_in_walk_order():
    """The fast readers take the walk from the labels, and the library
    builds what it returns in walk order, with the label-block table of
    its labels, so no constructor relabels it.  Covered: parse_pd on the
    fixtures, braid_closure on the test words, renormalize of every
    kernel diagram, smooth and every remove_* through simplify, switch
    and mirror, over the kernel battery, the children of its simplified
    diagrams and their mirrors."""
    checked = 0

    def check(built):
        nonlocal checked
        for d in built + [mirror(d) for d in built]:
            want = walk_order_blocks(d.crossings)
            assert want is not None, pd_text(d)
            fresh = OrientedDiagram(d.crossings, d.free_loops)
            assert fresh.crossings == d.crossings and want == fresh._blocks == d._blocks, pd_text(d)
            checked += 1

    check([parse_pd(text) for text, _ in FIXTURE_PDS.values()])
    check([braid_closure(parse_braid(w)) for w in ORACLE_WORDS + MULTI_WORDS + SEARCH_WORDS])
    check(finder_battery())
    for d in kernel_battery():
        r = renormalize(d.crossings, d.free_loops)
        s = simplify(r)
        built = [r, s]
        for i in range(s.crossing_count):
            built += [switch(s, i), smooth(s, i), simplify(switch(s, i)), simplify(smooth(s, i))]
        check(built)
    assert checked > 15000


def _exact_tuples(built):
    """How many diagrams built holds, each crossing of each one checked
    to be an exact (a, b, c, d, sign) int tuple."""
    for d in built:
        for cr in d.crossings:
            assert type(cr) is tuple and len(cr) == 5 and all(type(x) is int for x in cr), (cr, pd_text(d))
    return len(built)


def test_every_diagram_holds_exact_int_tuples():
    """Each builder stores every crossing as an exact int tuple, never a
    Crossing, also when it is given Crossing instances: parse_pd,
    braid_closure, the constructor (in walk order and relabeled),
    renormalize, mirror, simplify, switch, smooth, disjoint_union,
    split_components, insert_kink, triangle_moves and poke_moves."""
    rng = random.Random(40)
    checked = _exact_tuples([parse_pd(text) for text, _ in FIXTURE_PDS.values()])
    closures = [braid_closure(parse_braid(w)) for w in ORACLE_WORDS + MULTI_WORDS]
    checked += _exact_tuples(closures)
    for d in closures + finder_battery():
        if not d.crossings:
            continue
        named = tuple(Crossing(*cr) for cr in d.crossings)
        s = simplify(d)
        built = [
            OrientedDiagram(named, d.free_loops),
            scrambled(d, rng),  # Crossing instances in other labels
            renormalize(named, d.free_loops),
            mirror(d),
            s,
            disjoint_union(d, s),
            *split_components(disjoint_union(d, s)),
            insert_kink(d, 1, rng.randrange(4)),
            *itertools.islice(triangle_moves(d), 4),
            *itertools.islice(poke_moves(d), 4),
        ]
        for i in range(d.crossing_count):
            built += [switch(d, i), smooth(d, i), simplify(switch(d, i)), simplify(smooth(d, i))]
        checked += _exact_tuples(built)
    assert checked > 3000


def test_a_diagram_of_crossing_instances_is_one_of_plain_tuples():
    """Tuple equality, order and hash ignore the Crossing subclass: a
    diagram built from Crossing instances equals, hashes and codes like
    one built from the same plain tuples, in walk-order labels and with
    its arcs renamed and its crossings shuffled."""
    rng = random.Random(41)
    checked = 0
    for d in kernel_battery():
        arcs = sorted({x for cr in d.crossings for x in cr[:4]})
        m = dict(zip(arcs, rng.sample(range(1, 10 * len(arcs) + 2), len(arcs))))
        renamed = [(m[a], m[b], m[c], m[e], s) for a, b, c, e, s in d.crossings]
        rng.shuffle(renamed)
        for rows in (d.crossings, renamed):
            named = OrientedDiagram(tuple(Crossing(*cr) for cr in rows), d.free_loops)
            plain = OrientedDiagram(tuple(rows), d.free_loops)
            assert named == plain and hash(named) == hash(plain), pd_text(d)
            assert named.crossings == plain.crossings and named._blocks == plain._blocks, pd_text(d)
            assert canonical_code(named) == canonical_code(plain) == canonical_code(d), pd_text(d)
            checked += 1
    assert checked > 1000


def _shed_battery():
    """The kernel battery simplified, the simplified switch and smoothing
    children of every fourth of them, and the mirrors of all these."""
    out = []
    for n, d in enumerate(kernel_battery()):
        s = simplify(d)
        out.append(s)
        if n % 4 == 0:
            for i in range(s.crossing_count):
                out += [simplify(switch(s, i)), simplify(smooth(s, i))]
    return out + [simplify(mirror(d)) for d in out]


def test_switch_sheds_exactly_when_simplify_shrinks_the_switch():
    """The O(1) test agrees with building and simplifying the switch at
    every crossing, and both poke directions of the switched crossing
    are met: its new over-strand running into a bigon and out of one."""
    pairs = shed = 0
    directions = set()
    for d in _shed_battery():
        sheds = switch_sheds(d)
        for j in range(d.crossing_count):
            want = simplify(switch(d, j)).crossing_count < d.crossing_count
            assert sheds(j) == want, (pd_text(d), j)
            pairs += 1
            if want:
                shed += 1
                pair = find_poke_pair(switch(d, j))
                directions.add(pair.index(j))
    assert directions == {0, 1}
    assert pairs > 10000 and shed > 5000


def _off_component_starts(crossings):
    """Start arcs whose head crossing has an over arc on another component."""
    comp = {}
    for k, cycle in enumerate(reference_cycles(crossings)):
        comp.update(dict.fromkeys(cycle, k))
    return [a for a, b, _, d, _ in crossings if comp[b] != comp[a] or comp[d] != comp[a]]


def _torus_closure(p, q):
    return braid_closure(parse_braid("p=%d: %s" % (p, " ".join([" ".join(map(str, range(1, p)))] * q))))


def symmetric_battery():
    """The closures of T(2,13), T(3,5), T(4,4) and T(5,7), whose parts
    have many symmetric starts, their simplified switch children and the
    mirrors of all these."""
    out = []
    for p, q in ((2, 13), (3, 5), (4, 4), (5, 7)):
        d = _torus_closure(p, q)
        out += [d] + [simplify(switch(d, i)) for i in range(d.crossing_count)]
    return out + [mirror(d) for d in out]


def split_battery():
    """Split unions of kernel-battery diagrams, some carrying free loops."""
    some = kernel_battery()[::40]
    loops = parse_pd("O;O")
    out = [disjoint_union(x, y) for x, y in zip(some, reversed(some))]
    return out + [disjoint_union(disjoint_union(x, loops), y) for x, y in zip(some[::2], some[1::2])]


def test_canonical_code_matches_the_all_starts_reference():
    """On the kernel and symmetric batteries, the 4-5 strand draw with its
    children raw and simplified, split unions with free loops, and
    scrambled relabelings of the last three."""
    rng = random.Random(37)
    draw = four_five_strand_draw()
    extra = draw + [simplify(d) for d in draw] + split_battery()
    battery = kernel_battery() + symmetric_battery() + extra + [scrambled(d, rng) for d in extra]
    off = 0
    for d in battery:
        groups = _parts(d.crossings, d._blocks)
        assert groups == reference_groups(d), d
        for g in groups:
            crs = [d.crossings[ci] for ci in g]
            assert _part_code(crs, d._blocks, _block_index(d._blocks)) == reference_part_code(crs), d
            off += bool(_off_component_starts(crs))
        assert canonical_code(d) == reference_code(d), d
    # the battery reaches the off-component labels
    assert off > 100


def _recording_labels(monkeypatch):
    """The start of every full labeling _part_code does, in a list."""
    labeled = []
    real = diagram._traversal_labels

    def recording(start, *table):
        labeled.append(start)
        return real(start, *table)

    monkeypatch.setattr(diagram, "_traversal_labels", recording)
    return labeled


def test_part_code_labels_only_the_starts_with_the_smallest_first_crossing(monkeypatch):
    """Each start's first relabeled crossing is computed exactly, so only
    the tied starts, whose candidates begin with the smallest one, are
    labeled, and each of them exactly once."""
    labeled = _recording_labels(monkeypatch)
    total = pruned_off = 0
    for d in kernel_battery() + symmetric_battery():
        for g in reference_groups(d):
            crs = [d.crossings[ci] for ci in g]
            cands = reference_candidates(crs)
            first = min(c[0] for c in cands.values())
            tied = {s for s, c in cands.items() if c[0] == first}
            labeled.clear()
            _part_code(crs, d._blocks, _block_index(d._blocks))
            assert sorted(labeled) == sorted(tied), crs
            total += len(cands)
            pruned_off += len(set(_off_component_starts(crs)) - tied)
    assert pruned_off > 100 and total > 2000


def test_a_lone_tied_start_is_labeled_once(monkeypatch):
    """A part whose smallest first crossing one start alone gives is
    labeled once, from that start, and so is a diagram of that one part
    coded whole, of one block or several."""
    labeled = _recording_labels(monkeypatch)
    lone = 0
    whole = [0, 0]  # one block, several
    for d in kernel_battery() + four_five_strand_draw():
        groups = reference_groups(d)
        for g in groups:
            crs = [d.crossings[ci] for ci in g]
            cands = reference_candidates(crs)
            first = min(c[0] for c in cands.values())
            tied = [s for s, c in cands.items() if c[0] == first]
            if len(tied) == 1:
                labeled.clear()
                _part_code(crs, d._blocks, _block_index(d._blocks))
                assert labeled == tied, crs
                lone += 1
                if len(groups) == 1:
                    labeled.clear()
                    canonical_code(d)
                    assert labeled == tied, d
                    whole[len(d._blocks) > 2] += 1
    assert lone > 800 and min(whole) > 100, (lone, whole)


@pytest.mark.parametrize("p, q, tied", [(2, 13, 13), (5, 7, 7)])
def test_a_torus_closure_is_labeled_once_per_turn(monkeypatch, p, q, tied):
    """The q tied starts of a torus closure, one per turn of the braid,
    have one candidate, and each of them is labeled."""
    d = _torus_closure(p, q)
    cands = reference_candidates(d.crossings)
    first = min(c[0] for c in cands.values())
    ties = [tuple(c) for c in cands.values() if c[0] == first]
    assert len(ties) == tied and len(set(ties)) == 1
    labeled = _recording_labels(monkeypatch)
    assert canonical_code(d) == reference_code(d)
    assert len(labeled) == q


def test_renormalize_matches_the_reference():
    rng = random.Random(5)
    for d in kernel_battery():
        for _ in range(2):
            s = scrambled(d, rng)
            assert renormalize(s.crossings, s.free_loops) == reference_renormalize(s.crossings, s.free_loops)
    assert renormalize([], 2) == OrientedDiagram((), 2)
    with pytest.raises(ValueError, match="empty diagram"):
        renormalize([], 0)


def test_rewire_matches_the_reference():
    """Every smoothing, joined by the removal rule, gives the diagram that
    gluing its arc pairs in a union-find and renumbering gives, with the
    label-block table of a fresh read."""
    battery = finder_battery() + multi_component_battery()
    for d in battery:
        for i in range(d.crossing_count):
            got = smooth(d, i)
            assert got == reference_smooth(d, i), (d, i)
            assert got._blocks == OrientedDiagram(got.crossings, got.free_loops)._blocks, (d, i)


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
# a slide whose two listings once simplified to different diagrams
@example(case=(4, [2, 3, 2, 1, 1], 0))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_references_on_random_closures(case):
    p, letters, seed = case
    d = braid_closure(parse_braid("p=%d: %s" % (p, " ".join(map(str, letters)))))
    rng = random.Random(seed)
    s = scrambled(d, rng)
    fl = d.free_loops  # a strand no letter touches closes into a free loop
    assert renormalize(s.crossings, fl) == reference_renormalize(s.crossings, fl)
    i = rng.randrange(d.crossing_count)
    assert smooth(d, i) == reference_smooth(d, i)
    assert smooth(s, i) == reference_smooth(s, i), s
    for x in (d, s, simplify(d), simplify(switch(d, i)), simplify(smooth(d, i))):
        assert canonical_code(x) == reference_code(x), x
    check_pokes_once(s)
    check_slides_once(s)


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
            rest = [d.crossings[k] for k in group if k != i]
            if len(_reference_groups(rest)) > 1:
                cuts.add(i)
    return cuts


# a generator used once joins the strands on its two sides at one crossing
CUT_WORDS = ["p=4: 1 1 1 2 3 3 3", "p=4: 1 -1 1 2 -3 -3", "p=5: 1 -1 1 2 3 4 -3 4 4"]


def _met_twice_by_faces(d):
    twice = set()
    for face in faces(d):
        corners = [ci for ci, _ in face]
        twice.update(ci for ci in corners if corners.count(ci) > 1)
    return twice


def test_faces_meet_twice_exactly_the_cut_and_kink_crossings():
    """A crossing separates its part exactly when some face meets it at
    two corners, and a kink crossing is met twice by the face around its
    loop; find_nugatory takes its candidates from this, by one walk of
    the corner table."""
    cut_seen = kink_seen = 0
    closures = [braid_closure(parse_braid(word)) for word in CUT_WORDS]
    extra = closures + [switch(d, i) for d in closures for i in range(d.crossing_count)]
    for d in kernel_battery() + finder_battery() + extra:
        twice = _met_twice_by_faces(d)
        assert _met_twice(d.crossings) == twice, d
        cuts = _reference_cut_crossings(d)
        kinks = {i for i, cr in enumerate(d.crossings) if len(set(cr[:4])) < 4}
        assert twice == cuts | kinks, d
        cut_seen += len(cuts)
        kink_seen += len(kinks)
    assert cut_seen > 20 and kink_seen > 40


@given(
    st.integers(2, 5).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(
                st.integers(1, p - 1).flatmap(lambda g: st.sampled_from((g, -g))),
                min_size=1,
                max_size=12,
            ),
            st.integers(0, 10**6),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_corner_walk_on_random_closures(case):
    p, letters, seed = case
    d = braid_closure(parse_braid("p=%d: %s" % (p, " ".join(map(str, letters)))))
    if d.is_crossingless():
        return
    i = random.Random(seed).randrange(d.crossing_count)
    for x in (d, switch(d, i), smooth(d, i), simplify(d), insert_kink(d, 1 + 2 * i, 1)):
        assert _met_twice(x.crossings) == _met_twice_by_faces(x), x


def test_pd_text_parses_back_to_the_diagram():
    """Sign inference recovers every crossing of a diagram labeled 1..2c
    along its components, as every diagram is, when every component runs
    under somewhere."""
    checked = 0
    for d in kernel_battery() + finder_battery():
        validate(d)
        under = {cr[0] for cr in d.crossings}
        if all(under & set(cycle) for cycle in component_cycles(d)):
            assert parse_pd(pd_text(d)) == d, d
            checked += 1
    assert checked > 300
