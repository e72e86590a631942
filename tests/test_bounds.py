"""Lower/upper depth estimates and their aggregation."""

import pytest

from skeindepth import (
    HomflyCache,
    aggregate_bounds,
    braid_closure,
    component_count,
    disjoint_union,
    genus_lower_bound,
    homfly,
    homfly_lower_bound,
    mirror,
    parse_braid,
    parse_pd,
    polynomial_lower_bound,
    simplify,
    skein_reach_lower_bound,
    skein_reachable,
    smooth,
    switch,
    unlink_value,
)
from skeindepth.bounds import REACH_DEPTH, polynomial_contributions
from skeindepth.poly import ONE

from conftest import CROSSED, FIXTURE_PDS, GAP_WORD, INF, ORACLE_WORDS, brute_min_height

# (fixture, genus) for the knowledge-assisted rows
GENERA = {
    "hopf+": 0,
    "trefoil": 1,
    "fig8": 1,
    "L4a1{0}": 0,
    "L4a1{1}": 1,
    "K5a1": 1,
    "K5a2": 2,
    "L5a1": 0,
}


def test_genus_lower_bound_formula():
    assert genus_lower_bound(0, 1) == 0
    assert genus_lower_bound(0, 2) == 1
    assert genus_lower_bound(1, 1) == 2
    assert genus_lower_bound(2, 1) == 4
    assert genus_lower_bound(1, 3) == 4
    with pytest.raises(ValueError):
        genus_lower_bound(-1, 1)
    with pytest.raises(ValueError):
        genus_lower_bound(0, 0)


def test_crossing_upper_bound():
    def crossing_bound(d):
        return {n: v for n, v, _ in aggregate_bounds(d).contributions}["crossing count"]

    assert crossing_bound(parse_pd(FIXTURE_PDS["trefoil"][0])) == 2
    assert crossing_bound(parse_pd(FIXTURE_PDS["K5a2"][0])) == 4
    # simplification happens first: a kinked trefoil still gives 2
    from skeindepth import insert_kink

    kinked = insert_kink(parse_pd(FIXTURE_PDS["trefoil"][0]), 1, 0)
    assert crossing_bound(kinked) == 2
    for trivial in ("O", "O;O", "X[2,2,1,1]"):
        with pytest.raises(ValueError):
            aggregate_bounds(parse_pd(trivial))


def test_homfly_lower_bound_values():
    expected = {
        "hopf+": 1,
        "trefoil": 2,
        "fig8": 2,
        "L4a1{0}": 1,
        "L4a1{1}": 3,
        "K5a1": 2,
        "K5a2": 4,
        "L5a1": 3,
    }
    cache = HomflyCache()
    for name, want in expected.items():
        d = parse_pd(FIXTURE_PDS[name][0])
        assert homfly_lower_bound(d, cache) == want, name
        # mirror invariance: z-degree is unchanged under a -> 1/a, z -> -z
        assert homfly_lower_bound(mirror(d), cache) == want, name
    with pytest.raises(ValueError):
        homfly_lower_bound(parse_pd("O"))


def test_skein_reachable_small_sets():
    for r in range(1, 5):
        assert skein_reachable(0, r) == {unlink_value(r)}
        for d in range(3):
            assert skein_reachable(d, r) <= skein_reachable(d + 1, r)
    # a knot of depth 1 switches to the unknot and smooths to the
    # two-component unlink: by the skein relation it is the unknot again
    assert skein_reachable(1, 1) == {ONE}
    with pytest.raises(ValueError):
        skein_reachable(0, 0)


def test_skein_reach_bound_is_sound_on_small_diagrams():
    """The reachability bound, and the polynomial bound the search prunes
    with, never exceed a tree height found by full enumeration, on every
    fixture with at most 4 crossings and on each of its simplified switch
    and smoothing children."""
    cache = HomflyCache()
    seen = {}
    for name, (text, _) in FIXTURE_PDS.items():
        d = simplify(parse_pd(text))
        if d.crossing_count > 4:
            continue
        seen[name] = d
        for i in range(d.crossing_count):
            seen[f"{name}/switch{i}"] = simplify(switch(d, i))
            seen[f"{name}/smooth{i}"] = simplify(smooth(d, i))
    assert len(seen) > 20
    for name, d in seen.items():
        height = brute_min_height(d, d.crossing_count)
        assert height < INF, name
        for e in (d, mirror(d)):
            p, r = homfly(e, cache), component_count(e)
            assert skein_reach_lower_bound(p, r) <= height, name
            assert polynomial_lower_bound(p, r) <= height, name


def _closure(word):
    return simplify(braid_closure(parse_braid(word)))


def test_leading_coefficient_bound_is_sound():
    """No resolution tree down to crossingless leaves is shorter than the
    leading-coefficient bound, or than the largest polynomial bound, on
    every fixture with at most 4 crossings, every ORACLE_WORDS closure,
    each of their simplified switch and smoothing children, and the
    mirrors of all of these."""
    cache = HomflyCache()
    roots = [simplify(parse_pd(text)) for text, _ in FIXTURE_PDS.values()]
    roots = [d for d in roots if d.crossing_count <= 4] + [_closure(w) for w in ORACLE_WORDS]
    battery = []
    for d in roots:
        battery.append(d)
        for i in range(d.crossing_count):
            battery += [simplify(switch(d, i)), simplify(smooth(d, i))]
    battery += [mirror(d) for d in battery]
    raised = 0
    for d in battery:
        if d.is_crossingless():
            continue
        p, r = homfly(d, cache), component_count(d)
        contributions = dict(polynomial_contributions(p, r))
        lead, best = contributions["leading coefficient"], polynomial_lower_bound(p, r)
        assert lead <= best, d
        # brute_min_height(d, best - 1) is INF exactly when no tree of
        # height below best exists
        assert best == 0 or brute_min_height(d, best - 1) >= INF, d
        raised += lead > contributions["homfly z-degree"]
    assert len(battery) > 150 and raised >= 6


def test_leading_coefficient_values():
    """The top coefficient of P at its z-degree d proves d only when it is
    the one signed monomial (-1)^((d - m)/2) a^m with |m| <= d."""
    tref = braid_closure(parse_braid("p=2: 1 1 1"))
    links = [
        # two terms: a^6 + a^4 at z^4
        (_closure(GAP_WORD), 4, {6: 1, 4: 1}, 5),
        # two terms: a^3 - a^5 at z^3
        (simplify(disjoint_union(tref, tref)), 3, {3: 1, 5: -1}, 4),
        # the wrong sign: -a^-4 at z^4, where (-1)^((4 + 4)/2) = 1
        (_closure("p=3: -1 -1 -2 1 -2 -1 -2 2 2 -1"), 4, {-4: -1}, 5),
        # the right sign, but |m| = 4 > 2: -a^4 at z^2
        (_closure("p=4: -2 2 -1 3 -1 3 2 1 -3 1 2"), 2, {4: -1}, 3),
        # the trefoil's a^2 at z^2 is the signed monomial
        (simplify(tref), 2, {2: 1}, 2),
        # and so is the figure eight's -1 at z^2
        (simplify(parse_pd(FIXTURE_PDS["fig8"][0])), 2, {0: -1}, 2),
    ]
    for d, degree, top, want in links:
        p = homfly(d)
        assert p.z_top() == (degree, top), d
        for e, q in ((d, p), (mirror(d), p.mirror())):
            assert dict(polynomial_contributions(q, component_count(e)))["leading coefficient"] == want
    # unlinks: the unknot's 1 is the signed monomial at z^0, and r > 1
    # components give the z-degree 1 - r < 0
    for r in (1, 2, 3):
        assert dict(polynomial_contributions(unlink_value(r), r))["leading coefficient"] == 0


def test_skein_reach_bound_closes_table_gaps():
    # with a free loop beside them, the z-degree and the leading
    # coefficient stop short on these rows (at 1, and at 1 and 2); the
    # reachability contribution alone sets the lower end.  No genus is
    # claimed: 2g + r - 1 would also reach it
    cache = HomflyCache()
    for name, want in {"L4a1{0}": 2, "K5a1": 3}.items():
        rep = aggregate_bounds(parse_pd(FIXTURE_PDS[name][0] + ";O"), cache=cache)
        lowers = {n: v for n, v, k in rep.contributions if k == "lower"}
        assert rep.lower == lowers["skein reachability"] == want, name
        assert all(v < want for n, v in lowers.items() if n != "skein reachability")


def test_aggregate_bounds_sane_on_fixtures():
    cache = HomflyCache()
    for name in CROSSED:
        if name == "kink+":
            continue
        rep = aggregate_bounds(
            parse_pd(FIXTURE_PDS[name][0]), genus=GENERA.get(name), cache=cache
        )
        assert rep.lower <= rep.upper, name
        assert rep.lower >= 1
        kinds = {k for _, _, k in rep.contributions}
        assert kinds == {"lower", "upper"}
        assert rep.lower == max(v for _, v, k in rep.contributions if k == "lower")
        assert rep.upper == min(v for _, v, k in rep.contributions if k == "upper")


def test_aggregate_bounds_braid_contributions():
    w = parse_braid("p=2: 1 1 1 1 1 1 1")
    from skeindepth import braid_closure

    rep = aggregate_bounds(braid_closure(w), genus=3, braid_words=[w])
    names = [n for n, _, _ in rep.contributions]
    assert "one-signed braid" in names and "mixed braid" in names
    assert rep.lower == rep.upper == 6

    # a mixed word cannot pin anything exactly
    wm = parse_braid("p=3: 1 -2 1 -2")
    rep2 = aggregate_bounds(parse_pd(FIXTURE_PDS["fig8"][0]), braid_words=[wm])
    assert "one-signed braid" not in [n for n, _, _ in rep2.contributions]
    assert rep2.upper == 3  # crossing bound beats the mixed-word 4


def test_aggregate_bounds_reads_the_braid_words_once():
    """Any iterable of words gives the list's report: a generator is read
    once, and an empty iterator adds nothing, as an empty list does."""
    w = parse_braid("p=2: 1 1 1")
    d = braid_closure(w)
    listed = aggregate_bounds(d, braid_words=[w])
    assert ("one-signed braid", 2, "lower") in listed.contributions
    assert ("one-signed braid", 2, "upper") in listed.contributions
    assert aggregate_bounds(d, braid_words=(x for x in [w])) == listed
    assert aggregate_bounds(d, braid_words=iter([])) == aggregate_bounds(d, braid_words=None)
    assert aggregate_bounds(d, braid_words=[]) == aggregate_bounds(d)


def test_aggregate_rejects_trivial():
    with pytest.raises(ValueError):
        aggregate_bounds(parse_pd("O;O"))
    with pytest.raises(ValueError):
        aggregate_bounds(parse_pd("X[2,2,1,1]"))


def test_contradictory_claims_are_an_input_error():
    """A genus or braid claim whose bound crosses a sound one names both."""
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    with pytest.raises(ValueError) as err:
        aggregate_bounds(tref, genus=5)
    assert "genus-components lower bound 10 exceeds crossing count upper bound 2" in str(err.value)
    with pytest.raises(ValueError) as err:
        aggregate_bounds(tref, braid_words=[parse_braid("p=3: 1 2")])
    assert "homfly z-degree lower bound 2 exceeds mixed braid upper bound 0" in str(err.value)


def test_tied_contradictions_name_the_first_of_equal_bounds():
    """Each end of the report is the first contribution listed with its
    value, lower or upper, and a contradiction names those two."""
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    # genus 2 and the one-signed T(2,5) word both claim 4 from below;
    # crossing count 2 is the least upper end
    with pytest.raises(ValueError) as err:
        aggregate_bounds(tref, genus=2, braid_words=[parse_braid("p=2: 1 1 1 1 1")])
    assert "genus-components lower bound 4 exceeds crossing count upper bound 2" in str(err.value)
    # the trefoil's own word ties crossing count, mixed braid and
    # one-signed braid at 2 from above
    rep = aggregate_bounds(tref, braid_words=[parse_braid("p=2: 1 1 1")])
    assert [v for n, v, k in rep.contributions if k == "upper"] == [2, 2, 2]
    with pytest.raises(ValueError) as err:
        aggregate_bounds(tref, genus=5, braid_words=[parse_braid("p=2: 1 1 1")])
    assert "genus-components lower bound 10 exceeds crossing count upper bound 2" in str(err.value)


def test_reachable_values_have_z_degree_at_most_their_depth():
    for d in range(3):
        for r in range(1, 6):
            assert max(p.z_degree() for p in skein_reachable(d, r)) <= d, (d, r)


def _reach_from_depth_zero(p, r):
    """skein_reach_lower_bound as a scan of every table from depth 0."""
    return next((d for d in range(REACH_DEPTH + 1) if p in skein_reachable(d, r)), REACH_DEPTH + 1)


def test_skein_reach_bound_is_the_scan_from_depth_zero():
    """Reading the tables from p's z-degree up gives the least depth the
    scan from 0 gives, on the fixtures, the ORACLE_WORDS closures, their
    simplified children, the mirrors of all of these, and the unlinks."""
    cache = HomflyCache()
    roots = [simplify(parse_pd(text)) for text, _ in FIXTURE_PDS.values()] + [_closure(w) for w in ORACLE_WORDS]
    battery = list(roots)
    for d in roots:
        for i in range(d.crossing_count):
            battery += [simplify(switch(d, i)), simplify(smooth(d, i))]
    battery += [mirror(d) for d in battery]
    cases = [(homfly(d, cache), component_count(d)) for d in battery]
    cases += [(unlink_value(r), r) for r in range(1, 5)] + [(unlink_value(r), r + 1) for r in range(1, 4)]
    found = set()
    for p, r in cases:
        want = _reach_from_depth_zero(p, r)
        assert skein_reach_lower_bound(p, r) == want, (p, r)
        assert skein_reach_lower_bound(p, r, p.z_degree()) == want, (p, r)
        assert dict(polynomial_contributions(p, r))["skein reachability"] == want, (p, r)
        found.add(want)
    assert len(cases) > 150 and found == {0, 1, 2, 3}, found


def test_z_degree_bound_compares_with_the_unlink_only_at_its_degree():
    """0 for the unlink value; 1 for another polynomial of the unlink's
    z-degree 1 - r, and for one of z-degree 0 with two components."""
    for r in range(1, 5):
        assert dict(polynomial_contributions(unlink_value(r), r))["homfly z-degree"] == 0
        other = unlink_value(r) + unlink_value(r)
        assert other.z_degree() == 1 - r
        assert dict(polynomial_contributions(other, r))["homfly z-degree"] == 1
    assert dict(polynomial_contributions(ONE, 2))["homfly z-degree"] == 1


def test_render_row():
    rep = aggregate_bounds(parse_pd(FIXTURE_PDS["trefoil"][0]), genus=1)
    row = rep.render_row("K3a1")
    cells = row.split("\t")
    assert cells[0] == "K3a1" and cells[1] == "2" and cells[2] == "2"
    assert "genus-components=2(lower)" in cells[3]
