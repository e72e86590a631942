"""Depth search: decision procedure, witnesses, and the exactness sweep."""

import time

import pytest

from skeindepth import (
    HomflyCache,
    SkeinBranch,
    SkeinLeaf,
    SolveContext,
    Verdict,
    braid_closure,
    canonical_code,
    component_count,
    compute_td,
    depth_at_most,
    disjoint_union,
    extract_tree,
    homfly,
    parse_braid,
    parse_pd,
    polynomial_lower_bound,
    simplify,
    smooth,
    switch,
    tree_depth,
    verify_tree,
)
from skeindepth import solver
from skeindepth.solver import ResultCache

from conftest import FIXTURE_PDS, ORACLE_WORDS, UNKNOT_7_PD, closure_battery

INF = 10**9


def brute_min_height(d, cap):
    """Minimum height over every resolution tree with crossingless
    leaves — no memo, no pruning, no recognizer.  The independent oracle
    for diagram_upper on small inputs."""
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


def test_depth_ladder_hopf():
    ctx = SolveContext()
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    assert depth_at_most(hopf, -1, ctx=ctx) is False
    assert depth_at_most(hopf, 0, ctx=ctx) is False
    assert depth_at_most(hopf, 1, ctx=ctx) is True
    assert depth_at_most(hopf, 7, ctx=ctx) is True


def test_depth_ladder_trefoil():
    ctx = SolveContext()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    assert depth_at_most(tref, 1, ctx=ctx) is False
    assert depth_at_most(tref, 2, ctx=ctx) is True


def test_crossingless_is_depth_zero():
    ctx = SolveContext()
    assert depth_at_most(parse_pd("O"), 0, ctx=ctx) is True
    assert depth_at_most(parse_pd("O;O;O"), 0, ctx=ctx) is True
    assert depth_at_most(parse_pd("X[2,2,1,1]"), 0, ctx=ctx) is True


def test_budget_exhaustion_returns_none_and_is_not_cached():
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    ctx = SolveContext()
    assert depth_at_most(tref, 2, budget=0, ctx=ctx) is None
    # the same context must still be able to answer once given budget
    assert depth_at_most(tref, 2, ctx=ctx) is True


def test_failed_search_memoizes_refutation():
    ctx = SolveContext()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    assert depth_at_most(tref, 1, ctx=ctx) is False
    code = canonical_code(simplify(tref))
    lo, hi = ctx.memo[code]
    assert lo >= 2


def test_extract_and_verify_trefoil_witness():
    ctx = SolveContext()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    tree = extract_tree(tref, 2, ctx=ctx)
    assert tree_depth(tree) == 2
    assert verify_tree(tree) == 2
    assert isinstance(tree, SkeinBranch)
    # the recorded crossing really resolves this diagram
    assert 0 <= tree.crossing < tree.diagram.crossing_count


def test_extract_tree_without_witness_raises():
    ctx = SolveContext()
    hopf = parse_pd(FIXTURE_PDS["hopf+"][0])
    with pytest.raises(LookupError):
        extract_tree(hopf, 0, ctx=ctx)


def test_verify_tree_rejects_tampering():
    ctx = SolveContext()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    tree = extract_tree(tref, 2, ctx=ctx)
    # a leaf claiming the wrong component count
    bad_leaf = SkeinLeaf(parse_pd("O;O"), 1)
    with pytest.raises(ValueError):
        verify_tree(bad_leaf)
    # a branch whose children were swapped
    swapped = SkeinBranch(tree.diagram, tree.crossing, tree.smoothed, tree.switched)
    with pytest.raises(ValueError):
        verify_tree(swapped)
    # a leaf that is not an unlink at all
    with pytest.raises(ValueError):
        verify_tree(SkeinLeaf(parse_pd(FIXTURE_PDS["trefoil"][0]), 1))


def test_compute_td_trivial_cases():
    for text in ("O", "O;O", "O;O;O;O", "X[2,2,1,1]"):
        res = compute_td(parse_pd(text))
        assert res.status == "Exact(0)"
        assert isinstance(res.witness, SkeinLeaf)
        assert verify_tree(res.witness) == 0


def test_calls_without_a_context_share_no_state():
    """A call without ctx solves in a fresh context and leaves no
    module-level context behind."""
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    assert depth_at_most(tref, 1) is False
    assert depth_at_most(tref, 2) is True
    assert verify_tree(extract_tree(tref, 2)) == 2
    assert compute_td(tref).status == "Exact(2)"
    assert solver._shared_context is None


def test_compute_td_exact_rows():
    expected = {
        "hopf+": 1,
        "trefoil": 2,
        "fig8": 2,
        "L4a1{1}": 3,
        "K5a2": 4,
        "L5a1": 3,
    }
    ctx = SolveContext()
    for name, want in expected.items():
        res = compute_td(parse_pd(FIXTURE_PDS[name][0]), ctx=ctx)
        assert res.is_exact and res.value == want, (name, res.status)
        assert verify_tree(res.witness) == want == res.diagram_upper


def test_compute_td_interval_rows():
    # the bounds stop at 4 (z-degree) and the search refutes height 4
    # for this diagram, which says nothing about the link's other
    # diagrams; the result must stay an honest interval with a verified
    # witness upper
    from skeindepth import braid_closure

    w = parse_braid("p=3: 1 1 2 2 2 -1 2 1")
    lo, hi = 4, 5
    res = compute_td(braid_closure(w), braid_words=[w], ctx=SolveContext())
    assert not res.is_exact
    assert not res.budget_exhausted
    assert (res.link_lower, res.diagram_upper) == (lo, hi)
    assert verify_tree(res.witness) == hi
    assert res.render() == f"[{lo}, {hi}]"
    with pytest.raises(ValueError):
        res.value


def test_compute_td_brute_oracle_small():
    """diagram_upper agrees with full-tree enumeration on every fixture
    with at most 4 crossings."""
    ctx = SolveContext()
    for name, (text, _) in FIXTURE_PDS.items():
        d = parse_pd(text)
        if d.crossing_count > 4:
            continue
        s = simplify(d)
        cap = max(s.crossing_count - 1, 0)
        want = brute_min_height(d, cap)
        res = compute_td(d, ctx=ctx)
        assert res.diagram_upper == want, name


@pytest.mark.parametrize(
    "left, right, wrong",
    [
        ("p=2: 1 1 1", "p=2: 1 1 1", "2"),  # trefoil and trefoil
        ("p=2: 1 1", "p=2: 1 1 1", "0"),  # Hopf link and trefoil
    ],
)
def test_split_links_keep_their_crossings(left, right, wrong):
    """Simplifying a split diagram must not untwist one part against
    another; doing so once answered `wrong` for these links."""
    d = disjoint_union(braid_closure(parse_braid(left)), braid_closure(parse_braid(right)))
    p = homfly(d)
    assert homfly(simplify(d)) == p
    res = compute_td(d, ctx=SolveContext())
    assert res.render() != wrong
    assert res.link_lower >= polynomial_lower_bound(p, component_count(d)) == 3
    assert verify_tree(res.witness) == res.diagram_upper


def test_formula_path_survives_starved_budget():
    w = parse_braid("p=2: 1 1 1 1 1 1 1")
    from skeindepth import braid_closure

    res = compute_td(braid_closure(w), braid_words=[w], budget=3, ctx=SolveContext())
    assert res.is_exact and res.value == 6
    assert not res.budget_exhausted


def test_starved_budget_flags_interval():
    res = compute_td(
        parse_pd(FIXTURE_PDS["K5a1"][0]), budget=2, ctx=SolveContext()
    )
    assert not res.is_exact
    assert res.budget_exhausted
    # exhaustion widens, never falsifies: the honest answer fits inside
    assert res.link_lower <= 3 <= res.diagram_upper


def test_max_depth_caps_search_not_claim():
    res = compute_td(
        parse_pd(FIXTURE_PDS["K5a2"][0]), max_depth=1, ctx=SolveContext()
    )
    assert (res.link_lower, res.diagram_upper) == (4, 4)  # bounds already meet


def test_timeout_produces_interval():
    res = compute_td(
        parse_pd(FIXTURE_PDS["K5a1"][0]), timeout_secs=0.0, ctx=SolveContext()
    )
    assert res.budget_exhausted and not res.is_exact


def test_recognizer_stops_at_the_deadline_and_keeps_no_verdict():
    d = simplify(parse_pd(UNKNOT_7_PD))
    code = canonical_code(d)
    ctx = SolveContext(deadline=time.monotonic() - 1.0)
    assert ctx.verdict_of(code, d).is_unknown
    assert code not in ctx.verdicts
    ctx.deadline = None
    assert ctx.verdict_of(code, d) == Verdict.unlink(1)
    assert ctx.verdicts[code] == Verdict.unlink(1)


def test_deadline_passing_mid_search_refutes_nothing():
    # Hopf u U7 has depth 1, but only through children that need the
    # move search: O u O u U7 and O u U7
    d = simplify(disjoint_union(parse_pd(FIXTURE_PDS["hopf+"][0]), parse_pd(UNKNOT_7_PD)))
    root = canonical_code(d)

    class DeadlineAfterRoot(SolveContext):
        def verdict_of(self, code, diagram):
            if code != root:
                self.deadline = time.monotonic() - 1.0
            return super().verdict_of(code, diagram)

    ctx = DeadlineAfterRoot()
    assert depth_at_most(d, 1, ctx=ctx) is None
    assert root not in ctx.memo
    assert depth_at_most(d, 1, ctx=SolveContext()) is True


@pytest.mark.parametrize(
    "word, depth",
    [
        ("p=4: " + " ".join(["1 2 3"] * 4), 9),  # (s1 s2 s3)^4
        ("p=3: " + " ".join(["1 2"] * 6), 10),  # T(3,6)
    ],
)
def test_hard_torus_closures_are_exact(word, depth):
    d = braid_closure(parse_braid(word))
    res = compute_td(d, timeout_secs=60, ctx=SolveContext())
    assert res.status == f"Exact({depth})"
    assert verify_tree(res.witness) == depth


def test_switch_child_values_are_derived_and_counted_apart():
    """derive_switch_poly stores the switch child's own value, only when
    the child has crossings and no stored value, and counts it in derived;
    it returns the simplified smoothing exactly when it stored a value.
    The search stores switch children's values this way."""
    ctx = SolveContext()
    cache = ctx.homfly_cache
    for d in closure_battery():
        p = ctx.poly_of(d)
        for i in range(d.crossing_count):
            sw = simplify(switch(d, i))
            fresh = not sw.is_crossingless() and canonical_code(sw) not in cache.table
            derived = cache.derived
            sm = ctx.derive_switch_poly(d, i, p, sw)
            assert cache.derived == derived + fresh
            assert (sm is not None) == fresh
            if fresh:
                assert canonical_code(sm) == canonical_code(simplify(smooth(d, i)))
            # every stored value is counted once, as computed or as derived
            assert len(cache) == cache.computed + cache.derived
            if not sw.is_crossingless():
                assert cache.table[canonical_code(sw)] == homfly(sw, HomflyCache()), (d, i)
    ctx = SolveContext()
    for w in ORACLE_WORDS:
        compute_td(braid_closure(parse_braid(w)), ctx=ctx)
    assert ctx.homfly_cache.derived > 0
    assert len(ctx.homfly_cache) == ctx.homfly_cache.computed + ctx.homfly_cache.derived


@pytest.mark.parametrize(
    "link, render, nodes, computed, derived",
    [
        (FIXTURE_PDS["trefoil"][0], "2", 2, 2, 0),
        ("p=3: 2 2 2 1 -2 1 2", "[3, 4]", 5, 9, 4),
        ("p=4: 2 1 3 2 2 3 2 -3 3", "4", 7, 6, 0),
    ],
)
def test_search_work_is_pinned(link, render, nodes, computed, derived):
    """Search nodes and polynomial work of a fresh solve, as before the
    smoothings were built on demand."""
    d = parse_pd(link) if link.startswith("X") else braid_closure(parse_braid(link))
    ctx = SolveContext()
    assert compute_td(d, ctx=ctx).render() == render
    cache = ctx.homfly_cache
    assert (ctx.nodes, cache.computed, cache.derived) == (nodes, computed, derived)


def test_search_builds_a_smoothing_only_when_it_is_needed(monkeypatch):
    """With every polynomial known, the search builds the smoothing at a
    crossing only after the switch child there succeeds; a switch child
    that fails ends its branch with no smoothing built."""
    d = braid_closure(parse_braid("p=3: 2 2 2 1 -2 1 2"))
    warm = SolveContext()
    assert compute_td(d, ctx=warm).render() == "[3, 4]"
    cache = warm.homfly_cache
    known = (cache.computed, cache.derived)

    events = []  # [kind, (code, crossing), outcome of the switch child]
    real_search = solver._search

    def search(node, k, ctx, limit):
        pending = events[-1] if events and events[-1][2] == "pending" else None
        result = real_search(node, k, ctx, limit)
        if pending is not None:
            pending[2] = result
        return result

    def recorder(kind, op):
        def call(node, i):
            events.append([kind, (canonical_code(node), i), "pending" if kind == "switch" else None])
            return op(node, i)

        return call

    monkeypatch.setattr(solver, "_search", search)
    monkeypatch.setattr(solver, "switch", recorder("switch", switch))
    monkeypatch.setattr(solver, "smooth", recorder("smooth", smooth))
    ctx = SolveContext(cache)
    assert depth_at_most(d, 3, ctx=ctx) is False
    assert (cache.computed, cache.derived) == known and ctx.nodes == 3
    switched = [(key, outcome) for kind, key, outcome in events if kind == "switch"]
    smoothed = [key for kind, key, _ in events if kind == "smooth"]
    assert sorted(smoothed) == sorted(key for key, outcome in switched if outcome is True)
    # every one of the 10 branches built its smoothing before
    assert (len(switched), len(smoothed)) == (10, 6)


def test_persisted_interval_answers_without_witness():
    ctx1 = SolveContext()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    assert depth_at_most(tref, 2, ctx=ctx1) is True
    code = canonical_code(simplify(tref))
    ctx2 = SolveContext()
    ctx2.memo[code] = ctx1.memo[code]
    assert depth_at_most(tref, 2, budget=0, ctx=ctx2) is True
    res = compute_td(tref, ctx=ctx2)
    assert res.is_exact and res.value == 2 and res.witness is None


def test_warm_cache_answers_match_cold(tmp_path):
    words = [
        parse_braid(w)
        for w in (
            "p=2: 1 1 1 1 1",
            "p=2: 1 1 1 1 1 1",
            "p=3: 1 2 1 2 1 2",
            "p=3: -2 -2 1 2 1 -2 1 -2",
            "p=4: -1 -1 2 -3 -3 1 -2",
            "p=3: 1 2 -1 -1 -1 1 -2 1 -2",
            "p=4: -2 1 3 -1 1 -2 -1 1 3",
            "p=3: 1 -2 1 -2",
        )
    ]

    def solve(ws, ctx):
        return [compute_td(braid_closure(w), braid_words=[w], ctx=ctx).render() for w in ws]

    cold = [solve([w], SolveContext())[0] for w in words]
    path = str(tmp_path / "cache.tsv")
    ctx = SolveContext()
    solve(words[::2], ctx)
    ResultCache(path).save_from(ctx)
    warm = SolveContext()
    ResultCache(path).load_into(warm)
    assert solve(words, warm) == cold


def test_result_rendering():
    res = compute_td(parse_pd(FIXTURE_PDS["trefoil"][0]), ctx=SolveContext())
    assert res.render() == "2"
    assert res.status == "Exact(2)"
