"""Laurent arithmetic, the skein invariant, and its oracles.

The trefoil and Hopf values are re-derived here by hand from the
defining relation, completely independently of the traversal the
implementation uses.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeindepth import (
    HomflyCache,
    LaurentPoly2,
    braid_closure,
    canonical_code,
    conway,
    homfly,
    mirror,
    parse_braid,
    parse_pd,
    parse_poly,
    render_poly,
    simplify,
    smooth,
    specialize_conway,
    switch,
    unlink_value,
)
from skeindepth import poly
from skeindepth.diagram import OrientedDiagram, defects, pd_text, switch_sheds
from skeindepth.poly import DELTA, ONE, ZERO, monomial, skein_value

from conftest import A2, AZ, CROSSED, FIXTURE_PDS, Am2, AmZ, closure_battery, scrambled

A = monomial(1, 1, 0)
Ainv = monomial(1, -1, 0)
Z = monomial(1, 0, 1)
Zinv = monomial(1, 0, -1)


# -- ring laws -----------------------------------------------------------------

terms_st = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-9, 9),
    max_size=6,
)
poly_st = terms_st.map(LaurentPoly2)


@given(poly_st, poly_st, poly_st)
@settings(max_examples=150, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p * ZERO == ZERO


@given(poly_st, poly_st)
@settings(max_examples=100, deadline=None)
def test_mirror_map_is_ring_hom_and_involution(p, q):
    assert (p * q).mirror() == p.mirror() * q.mirror()
    assert (p + q).mirror() == p.mirror() + q.mirror()
    assert p.mirror().mirror() == p


@given(poly_st)
@settings(max_examples=100, deadline=None)
def test_render_parse_roundtrip(p):
    assert parse_poly(render_poly(p)) == p


@pytest.mark.parametrize(
    "text",
    [
        "-1*a^4*a^2 + 2*a^2 + 1*a^2*z^2",  # a repeated a^ factor
        "1*z^2*z^-1",  # a repeated z^ factor
        "2*3*a^2",  # a repeated coefficient
        "1*a^2 + 1*a^2",  # a repeated monomial
        "1*a^2*z^2 + 3*z^2*a^2",  # the same monomial, factors reordered
    ],
)
def test_parse_poly_rejects_text_render_poly_never_writes(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_parse_poly_names_a_term_without_a_coefficient():
    with pytest.raises(ValueError, match="malformed polynomial term: 'a\\^2'"):
        parse_poly("a^2")


def test_the_constructor_takes_int_exponents_and_coefficients():
    assert LaurentPoly2({(1, -2): 3, (0, 0): 0}).terms == {(1, -2): 3}
    for terms in ({(1.5, 0): 1}, {("2", 0): 3}, {(0, 2.0): 1}, {(0, 0): 1.5}):
        with pytest.raises(TypeError):
            LaurentPoly2(terms)
    # bool is an int, but True renders as "True", which parse_poly rejects
    with pytest.raises(TypeError, match="coefficients"):
        LaurentPoly2({(0, 0): True})
    for terms in ({(True, 0): 1}, {(0, False): 2}):
        with pytest.raises(TypeError, match="exponents"):
            LaurentPoly2(terms)


def test_polynomials_are_immutable_values_of_their_own_kind():
    with pytest.raises(AttributeError, match="immutable"):
        ONE._terms = {}
    with pytest.raises(AttributeError, match="immutable"):
        ONE.degree = 2
    assert ONE.terms == {(0, 0): 1}
    for op in (lambda: ONE + 1, lambda: ONE - 1, lambda: ONE * 1.5):
        with pytest.raises(TypeError):
            op()
    assert (ONE == 1) is False
    assert bool(ZERO) is False and bool(ONE) is True
    assert repr(ONE) == "LaurentPoly2(1)"


def test_pow():
    assert DELTA**0 == ONE
    assert DELTA**3 == DELTA * DELTA * DELTA
    with pytest.raises(ValueError):
        DELTA ** (-1)


def test_z_degree():
    assert (Z * Z + A).z_degree() == 2
    assert DELTA.z_degree() == -1
    with pytest.raises(ValueError):
        ZERO.z_degree()


def test_z_top():
    assert (Z * Z + A).z_top() == (2, {0: 1})
    assert (A * Z * Z - Ainv * Z * Z * 3 + Z).z_top() == (2, {1: 1, -1: -3})
    assert DELTA.z_top() == (-1, {-1: 1, 1: -1})
    with pytest.raises(ValueError):
        ZERO.z_top()


# -- hand-derived oracle values --------------------------------------------------


def hand_hopf_plus():
    # resolve one positive crossing of the Hopf link:
    #   a^-1 P(hopf) - a P(unlink2) = z P(unknot)
    # => P(hopf) = a z + a^2 * delta
    return A * Z + A * A * DELTA


def hand_trefoil():
    # resolve one positive crossing of the right trefoil:
    #   a^-1 P(tref) - a P(unknot) = z P(hopf+)
    # => P(tref) = a^2 + a z P(hopf+) = 2a^2 - a^4 + a^2 z^2
    return A * A + A * Z * hand_hopf_plus()


def test_trefoil_value_exact():
    got = homfly(parse_pd(FIXTURE_PDS["trefoil"][0]))
    assert got == hand_trefoil()
    assert got == monomial(2, 2, 0) + monomial(-1, 4, 0) + monomial(1, 2, 2)
    assert render_poly(got) == "-1*a^4 + 2*a^2 + 1*a^2*z^2"


def test_hopf_value_exact():
    assert homfly(parse_pd(FIXTURE_PDS["hopf+"][0])) == hand_hopf_plus()


def test_unlink_values():
    for r in range(1, 5):
        d = parse_pd(";".join(["O"] * r))
        assert homfly(d) == DELTA ** (r - 1)
        assert homfly(d) == unlink_value(r)


def test_kinked_unknot_normalizes():
    assert homfly(parse_pd("X[2,2,1,1]")) == ONE
    assert homfly(parse_pd("X[1,1,2,2]")) == ONE


def test_skein_relation_at_every_crossing():
    """a^-1 P(L+) - a P(L-) = z P(L0), checked literally everywhere."""
    cache = HomflyCache()
    for name in CROSSED:
        d = parse_pd(FIXTURE_PDS[name][0])
        for i in range(d.crossing_count):
            sw, sm = switch(d, i), smooth(d, i)
            if d.crossings[i].sign > 0:
                plus, minus = homfly(d, cache), homfly(sw, cache)
            else:
                plus, minus = homfly(sw, cache), homfly(d, cache)
            zero = homfly(sm, cache)
            assert Ainv * plus - A * minus == Z * zero, (name, i)


# -- the fast paths against the ring operations ------------------------------------


def assert_clean(p):
    """p's own term dict holds int coefficients and no zero."""
    assert all(type(c) is int and c != 0 for c in p._terms.values()), p._terms


def assert_same(got, want):
    assert got == want
    assert hash(got) == hash(want)
    assert_clean(got)


def reference_skein(sign, p_switch, p_smooth):
    if sign > 0:
        return A2 * p_switch + AZ * p_smooth
    return Am2 * p_switch - AmZ * p_smooth


@given(poly_st, poly_st, poly_st)
@settings(max_examples=150, deadline=None)
def test_skein_identities_match_the_ring_operations(p, q, r):
    for sign in (1, -1):
        assert_same(skein_value(sign, p, q), reference_skein(sign, p, q))
        # p_switch that cancels the smoothing's term, up to r: the merge
        # drops every cancelled term, and cancels to ZERO when r is ZERO
        cancel = -(Am2 * AZ * q) if sign > 0 else A2 * AmZ * q
        got = skein_value(sign, cancel + r, q)
        assert_same(got, reference_skein(sign, cancel + r, q))
        assert_same(got, (A2 if sign > 0 else Am2) * r)
        assert_same(skein_value(sign, cancel, q), ZERO)


@given(poly_st, poly_st)
@settings(max_examples=100, deadline=None)
def test_ring_operations_build_no_zero_coefficient(p, q):
    for got in (p + q, p - q, -p, p * q, p - p, p + (-p), p * ZERO, p * 0, p.mirror()):
        assert_clean(got)
    assert_same(p - p, ZERO)
    assert_same(p + (-p), ZERO)
    assert_same(p * 0, ZERO)
    assert_same(p - q, p + (-q))


def test_unlink_value_is_the_power_of_delta():
    for r in range(1, 13):
        assert_same(unlink_value(r), DELTA ** (r - 1))
    for r in (0, -1):
        with pytest.raises(ValueError):
            unlink_value(r)


def test_mirror_rule_on_fixtures():
    cache = HomflyCache()
    for name, (text, _) in FIXTURE_PDS.items():
        d = parse_pd(text)
        assert homfly(mirror(d), cache) == homfly(d, cache).mirror(), name


def test_invariance_under_simplify():
    cache = HomflyCache()
    for name, (text, _) in FIXTURE_PDS.items():
        d = parse_pd(text)
        assert homfly(simplify(d), cache) == homfly(d, cache), name


def test_split_diagram_factorizes():
    from skeindepth import disjoint_union

    cache = HomflyCache()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    u = disjoint_union(tref, hopf)
    assert homfly(u, cache) == DELTA * homfly(tref, cache) * homfly(hopf, cache)


def test_conway_values():
    assert conway(parse_pd(FIXTURE_PDS["trefoil"][0])) == {0: 1, 2: 1}
    assert conway(parse_pd(FIXTURE_PDS["fig8"][0])) == {0: 1, 2: -1}
    assert conway(parse_pd(FIXTURE_PDS["K5a1"][0])) == {0: 1, 2: 2}
    assert conway(parse_pd(FIXTURE_PDS["L5a1"][0])) == {3: -1}


def test_specialize_conway_rejects_poles():
    # delta itself cancels at a=1 (that is the point of the unlink values);
    # a bare 1/z term does not and must be rejected
    assert specialize_conway(DELTA) == {}
    with pytest.raises(ValueError):
        specialize_conway(Zinv)


def test_cache_counters():
    cache = HomflyCache()
    d = parse_pd(FIXTURE_PDS["trefoil"][0])
    homfly(d, cache)
    computed = cache.computed
    assert computed > 0
    homfly(d, cache)
    assert cache.computed == computed  # pure cache hit second time
    assert cache.hits > 0


def test_cache_counters_on_a_warm_table():
    """A call on a loaded code is a hit; a loaded child that an expansion
    re-derives counts as computed, as it does in a cold table, not as a
    hit, so the expansion's counters are those of a cold one."""
    d = simplify(braid_closure(parse_braid("p=2: 1 1 1 1 1")))  # T(2,5)
    root = canonical_code(d)
    cold = HomflyCache()
    p = homfly(d, cold)
    assert cold.computed > 2

    warm = HomflyCache()
    warm.table.update(cold.table)  # as load_into stores them: no trees
    assert homfly(d, warm) == p and (warm.computed, warm.hits) == (0, 1)

    warm = HomflyCache()
    warm.table.update((code, value) for code, value in cold.table.items() if code != root)
    assert homfly(d, warm) == p
    assert (warm.computed, warm.hits) == (cold.computed, cold.hits)
    assert warm.table == cold.table and set(warm.trees) == set(cold.trees)
    homfly(d, warm)
    assert (warm.computed, warm.hits) == (cold.computed, cold.hits + 1)


def test_code_of_codes_each_labeled_diagram_once(monkeypatch):
    """Distinct objects with the same crossings and free loops cost one
    canonical_code call between them, and code_of agrees with
    canonical_code on every diagram, relabeled or not."""
    calls = []
    real = poly.canonical_code

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(poly, "canonical_code", counted)
    d = parse_pd(FIXTURE_PDS["fig8"][0])
    twin = OrientedDiagram(d.crossings, d.free_loops)
    cache = HomflyCache()
    assert twin is not d and cache.code_of(d) == cache.code_of(twin)
    assert calls == [d]
    monkeypatch.undo()

    rng = random.Random(17)
    cache = HomflyCache()
    for d in closure_battery():
        want = canonical_code(OrientedDiagram(d.crossings, d.free_loops))
        for e in (d, OrientedDiagram(d.crossings, d.free_loops), scrambled(d, rng), scrambled(d, rng)):
            assert cache.code_of(e) == want, d


# -- the expansion's trees -----------------------------------------------------


def test_expansion_records_a_tree_over_loaded_children():
    """Each code the expansion resolves stores its tree, rooted at the
    crossing it resolved (here the first defect, whose switch sheds a
    bigon), and the tree's height; a child whose value was loaded from a
    cache file, with no tree, is expanded all the same, and its computed
    value replaces the loaded one, right or wrong."""
    d = simplify(braid_closure(parse_braid("p=2: 1 1 1 1 1")))  # T(2,5)
    i = defects(d)[0]
    assert switch_sheds(d)(i)
    sw, sm = simplify(switch(d, i)), simplify(smooth(d, i))
    cache = HomflyCache()
    p = homfly(d, cache)
    height, tree = cache.trees[canonical_code(d)]
    assert height == 4 and (tree.diagram, tree.crossing) == (d, i)
    assert {canonical_code(tree.switched.diagram), canonical_code(tree.smoothed.diagram)} == {
        canonical_code(sw),
        canonical_code(sm),
    }
    assert not sw.is_crossingless() and not sm.is_crossingless()

    for child in (sw, sm):
        code = canonical_code(child)
        for loaded in (homfly(child), homfly(child) + ONE):  # as load_into stores it
            known = HomflyCache()
            known.table[code] = loaded
            assert homfly(d, known) == p
            assert known.trees[canonical_code(d)][0] == height
            assert known.table[code] == cache.table[code] and known.trees[code][0] == cache.trees[code][0]
            assert set(known.table) == set(known.trees)


def test_expansion_resolves_the_first_defect_whose_switch_sheds():
    """Of this closure's six defects, the switches at the third and the
    fourth shed a poke pair; the expansion resolves the third, and its
    value is the one a first-defect expansion gives."""
    d = simplify(braid_closure(parse_braid("p=4: 2 3 -1 2 -3 2 -3 -3 -3 -3")))
    assert pd_text(d) == (
        "X[1,16,2,17];X[2,9,3,10];X[4,12,5,11];X[6,14,7,13];X[8,15,9,16];"
        "X[10,18,11,17];X[12,6,13,5];X[14,8,1,7];X[18,3,15,4]"
    )
    sheds = switch_sheds(d)
    assert defects(d) == [0, 1, 2, 3, 4, 5]
    assert [j for j in defects(d) if sheds(j)] == [2, 3]
    cache = HomflyCache()
    p = homfly(d, cache)
    assert cache.trees[canonical_code(d)][1].crossing == 2
    first = simplify(switch(d, 0)), simplify(smooth(d, 0))
    assert p == skein_value(d.crossings[0].sign, homfly(first[0]), homfly(first[1]))
