"""Laurent arithmetic, the skein invariant, and its oracles.

The trefoil and Hopf values are re-derived here by hand from the
defining relation, completely independently of the traversal the
implementation uses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeindepth import (
    HomflyCache,
    LaurentPoly2,
    conway,
    homfly,
    mirror,
    parse_pd,
    parse_poly,
    render_poly,
    simplify,
    smooth,
    specialize_conway,
    switch,
    unlink_value,
)
from skeindepth.poly import DELTA, ONE, ZERO, monomial, skein_value, switch_value

from conftest import CROSSED, FIXTURE_PDS, closure_battery

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


def test_switch_value_solves_the_skein_identity():
    """The switch child's value from the diagram's and the smoothing's
    equals its own expansion, at every crossing of the ORACLE_WORDS
    closures, of their simplified switch and smoothing children, and of
    T(3,5)."""
    cache = HomflyCache()
    signs = set()
    for d in closure_battery():
        p = homfly(d, cache)
        for i, cr in enumerate(d.crossings):
            got = switch_value(cr.sign, p, homfly(simplify(smooth(d, i)), cache))
            assert got == homfly(simplify(switch(d, i)), HomflyCache()), (d, i)
            signs.add(cr.sign)
    assert signs == {1, -1}


@given(poly_st, poly_st)
@settings(max_examples=100, deadline=None)
def test_switch_value_inverts_skein_value(p, q):
    for sign in (1, -1):
        assert switch_value(sign, skein_value(sign, p, q), q) == p


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
