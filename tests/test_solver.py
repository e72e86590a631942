"""Depth search: decision procedure, witnesses, and the exactness sweep."""

import random
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
    recognize_unlink,
    simplify,
    smooth,
    switch,
    tree_depth,
    verify_tree,
)
from skeindepth import poly, solver
from skeindepth.diagram import switch_sheds
from skeindepth.solver import ResultCache

from conftest import (
    DEPTH2_WORD,
    FIXTURE_PDS,
    GAP_WORD,
    INF,
    INNER_BOUND_WORDS,
    INTERVAL_WORD,
    ORACLE_WORDS,
    SEARCH_WORDS,
    UNKNOT_7_PD,
    brute_min_height,
    closure_battery,
    expanded_codes,
    inner_records,
    load_values,
    values_of,
)

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
    # depth 2, but the HOMFLY-PT expansion's tree has height 6
    d = braid_closure(parse_braid(DEPTH2_WORD))
    ctx = SolveContext()
    assert depth_at_most(d, 2, budget=0, ctx=ctx) is None
    # the same context must still be able to answer once given budget
    assert depth_at_most(d, 2, ctx=ctx) is True


def test_failed_search_memoizes_refutation():
    ctx = SolveContext()
    tref = parse_pd(FIXTURE_PDS["trefoil"][0])
    code = canonical_code(simplify(tref))
    # a polynomial loaded from a cache file comes with no expansion tree;
    # the search expands it for one, and the refutation raises lo
    load_values(ctx.homfly_cache, {code: homfly(tref)})
    assert depth_at_most(tref, 1, ctx=ctx) is False
    lo, hi, tree = ctx.memo[code]
    assert lo >= 2 and hi == 2 and verify_tree(tree) == 2


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
    # a branch at a crossing the diagram does not have
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"branch crossing index {i} out of range"):
            verify_tree(SkeinBranch(tree.diagram, i, tree.switched, tree.smoothed))


def test_verify_tree_trusts_nothing_stored_on_a_diagram():
    """A T(2,5) witness whose switch child is replaced by a kinked unknot
    leaf, the kinked unknot carrying the real child's label-block table
    and code, is rejected: the replay reads a fresh copy of each
    diagram, not what a diagram object has stored."""
    res = compute_td(braid_closure(parse_braid("p=2: 1 1 1 1 1")))
    tree = res.witness
    assert res.status == "Exact(4)" and verify_tree(tree) == 4
    assert isinstance(tree.switched, SkeinBranch)
    real = tree.switched.diagram
    kinked = parse_pd(FIXTURE_PDS["kink+"][0])
    object.__setattr__(kinked, "_blocks", real._blocks)
    object.__setattr__(kinked, "_code", canonical_code(real))
    planted = SkeinBranch(tree.diagram, tree.crossing, SkeinLeaf(kinked, 1), tree.smoothed)
    with pytest.raises(ValueError, match="switch child does not match"):
        verify_tree(planted)


def test_a_root_record_at_the_lower_end_is_not_probed(monkeypatch):
    """The trefoil's expansion tree already has the height 2 its lower
    end proves, so compute_td reads the root's record and makes no
    depth_at_most probe; its witness replays at height 2."""
    probes = []

    def counted(*args, **kwargs):
        probes.append(args[1])
        return depth_at_most(*args, **kwargs)

    monkeypatch.setattr(solver, "depth_at_most", counted)
    res = compute_td(braid_closure(parse_braid("p=2: 1 1 1")))
    assert res.status == "Exact(2)" and not res.budget_exhausted
    assert probes == []
    assert verify_tree(res.witness) == 2
    # a record above the lower end is still swept from the lower end up
    res = compute_td(braid_closure(parse_braid(DEPTH2_WORD)))
    assert probes and probes[0] == res.link_lower


def _share_leaves(tree, leaves):
    """tree with one leaf object per leaf code, taken from or put into
    leaves."""
    if isinstance(tree, SkeinLeaf):
        return leaves.setdefault(canonical_code(tree.diagram), tree)
    return SkeinBranch(
        tree.diagram,
        tree.crossing,
        _share_leaves(tree.switched, leaves),
        _share_leaves(tree.smoothed, leaves),
    )


def test_verify_tree_checks_a_shared_subtree_once(monkeypatch):
    tree = extract_tree(parse_pd(FIXTURE_PDS["trefoil"][0]), 2, ctx=SolveContext())
    leaves = {}
    shared = _share_leaves(tree, leaves)
    unknot = canonical_code(parse_pd("O"))
    # the unknot ends both the switch at the root and a smoothing below it
    assert shared.switched is leaves[unknot] is shared.smoothed.smoothed

    calls = []

    def counted(d, **kwargs):
        calls.append(d)
        return recognize_unlink(d, **kwargs)

    monkeypatch.setattr(solver, "recognize_unlink", counted)
    assert verify_tree(shared) == 2 and len(calls) == len(leaves) == 2
    # the same leaf object tampered with, in both places
    tampered = _share_leaves(tree, {unknot: SkeinLeaf(parse_pd("O"), 2)})
    with pytest.raises(ValueError):
        verify_tree(tampered)


@pytest.mark.parametrize("word, calls", [("p=2: 1 1 1", 0), ("p=2: 1 1 1 1 1", 2)])
def test_a_replay_codes_only_a_relabeled_child(monkeypatch, word, calls):
    """verify_tree compares each child's crossings and free loops with
    those of the replayed move before it codes either: a child that is
    exactly the move's result is not coded, a relabeled one is coded
    with the move's result, two codes per such child."""
    res = compute_td(braid_closure(parse_braid(word)))
    coded = []

    def counted(d):
        coded.append(d)
        return canonical_code(d)

    monkeypatch.setattr(solver, "canonical_code", counted)
    assert verify_tree(res.witness) == res.value
    assert len(coded) == calls


def test_a_replay_recognizes_each_leaf_code_once(monkeypatch):
    """Distinct leaf objects with one code cost one recognizer call: the
    replay's verdicts are kept per code, in a context of its own call."""
    tree = extract_tree(parse_pd(FIXTURE_PDS["trefoil"][0]), 2, ctx=SolveContext())
    leaves = []

    def walk(t):
        if isinstance(t, SkeinLeaf):
            leaves.append(t)
        else:
            walk(t.switched)
            walk(t.smoothed)

    walk(tree)
    codes = {canonical_code(leaf.diagram) for leaf in leaves}
    assert len({id(leaf) for leaf in leaves}) == 3 and len(codes) == 2
    calls = []

    def counted(d, **kwargs):
        calls.append(d)
        return recognize_unlink(d, **kwargs)

    monkeypatch.setattr(solver, "recognize_unlink", counted)
    assert verify_tree(tree) == 2 and len(calls) == 2
    # a second replay trusts nothing the first one kept
    assert verify_tree(tree) == 2 and len(calls) == 4


def test_expansion_trees_are_upper_ends():
    """An expansion tree is a resolution tree of its diagram, split or
    not: its height is at least the fewest any tree needs."""
    cache = HomflyCache()
    for text, _ in FIXTURE_PDS.values():
        d = simplify(parse_pd(text))
        if d.is_crossingless():
            continue
        homfly(d, cache)
        _, height, tree = cache.table[canonical_code(d)]
        assert verify_tree(tree) == height
        if d.crossing_count <= 4:
            assert height >= brute_min_height(d, d.crossing_count)
    tref = braid_closure(parse_braid("p=2: 1 1 1"))
    # the top coefficients a^3 - a^5 and a^2 - a^4 are not one signed
    # monomial, so the lower bound is one above the z-degree
    for d, lower in (
        (disjoint_union(tref, tref), 4),
        (disjoint_union(parse_pd(FIXTURE_PDS["hopf+"][0]), tref), 3),
    ):
        d = simplify(d)
        p = homfly(d, cache)
        _, height, tree = cache.table[canonical_code(d)]
        assert verify_tree(tree) == height >= polynomial_lower_bound(p, component_count(d)) == lower


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
    # the bounds stop at 6 (leading coefficient) and the search refutes
    # height 6 for this diagram, which says nothing about the link's
    # other diagrams; the result must stay an honest interval with a
    # verified witness upper
    from skeindepth import braid_closure

    w = parse_braid(INTERVAL_WORD)
    lo, hi = 6, 7
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
    "left, right, wrong, lower",
    [
        # trefoil and trefoil; the top coefficient a^3 - a^5 proves 4
        pytest.param("p=2: 1 1 1", "p=2: 1 1 1", "2", 4, id="p=2: 1 1 1-p=2: 1 1 1-2"),
        # Hopf link and trefoil
        pytest.param("p=2: 1 1", "p=2: 1 1 1", "0", 3, id="p=2: 1 1-p=2: 1 1 1-0"),
    ],
)
def test_split_links_keep_their_crossings(left, right, wrong, lower):
    """Simplifying a split diagram must not untwist one part against
    another; doing so once answered `wrong` for these links."""
    d = disjoint_union(braid_closure(parse_braid(left)), braid_closure(parse_braid(right)))
    p = homfly(d)
    assert homfly(simplify(d)) == p
    res = compute_td(d, ctx=SolveContext())
    assert res.render() != wrong
    assert res.link_lower >= polynomial_lower_bound(p, component_count(d)) == lower
    assert verify_tree(res.witness) == res.diagram_upper


def test_formula_path_survives_starved_budget():
    w = parse_braid("p=2: 1 1 1 1 1 1 1")
    from skeindepth import braid_closure

    res = compute_td(braid_closure(w), braid_words=[w], budget=3, ctx=SolveContext())
    assert res.is_exact and res.value == 6
    assert not res.budget_exhausted


def test_starved_budget_flags_interval():
    # [6, 7] with budget; the HOMFLY-PT expansion's tree has height 9
    res = compute_td(braid_closure(parse_braid(INTERVAL_WORD)), budget=2, ctx=SolveContext())
    assert not res.is_exact
    assert res.budget_exhausted
    # exhaustion widens, never falsifies: the honest answer fits inside
    assert res.link_lower <= 6 and 7 <= res.diagram_upper


@pytest.mark.parametrize(
    "limits", [{"budget": 2}, {"max_depth": 6}, {"max_depth": 0}, {"max_depth": 5}]
)
def test_cut_short_sweep_answers_the_root_record(limits):
    """However the sweep ends, even before its first probe when max_depth
    is below the lower end, the upper end is the root's record, and the
    witness returned with it replays at that height: here the HOMFLY-PT
    expansion's tree, of height 9."""
    d = braid_closure(parse_braid(INTERVAL_WORD))
    ctx = SolveContext()
    res = compute_td(d, ctx=ctx, **limits)
    lo, hi, tree = ctx.memo[canonical_code(simplify(d))]
    assert (res.link_lower, res.diagram_upper) == (6, 9) == (6, hi)
    assert res.witness is tree
    assert verify_tree(res.witness) == res.diagram_upper
    assert res.bounds.upper == 10  # the bound report alone says [6, 10]


@pytest.mark.parametrize("loaded", [(1, 3), (10, INF)])
def test_a_root_record_the_solve_contradicts_gives_way(loaded):
    """A loaded root record below the lower end 6, or above the
    expansion's height 9, gives way to what the solve proves, even when
    max_depth stops the sweep before its first probe: the record is
    [6, 9] with the expansion's tree, as in a cold solve."""
    d = braid_closure(parse_braid(INTERVAL_WORD))
    ctx = SolveContext()
    code = canonical_code(simplify(d))
    homfly(d, ctx.homfly_cache)
    load_values(ctx.homfly_cache, values_of(ctx.homfly_cache))  # a loaded polynomial has no tree
    ctx.memo[code] = (*loaded, None)
    res = compute_td(d, max_depth=0, ctx=ctx)
    lo, hi, tree = ctx.memo[code]
    assert (res.link_lower, res.diagram_upper) == (6, 9) == (lo, hi)
    assert res.witness is tree and verify_tree(tree) == 9


@pytest.mark.parametrize("word", INNER_BOUND_WORDS)
def test_an_inner_record_the_solve_contradicts_gives_way(tmp_path, word):
    """A cache line claiming [1, 1] for a node below the root whose
    polynomial bound is at least 2 gives way where the search reaches
    that node, as a root record does: the answer is the cold one, not the
    empty interval [3, 2], and the node's record opens at its bound."""
    d = braid_closure(parse_braid(word))
    for code, value, bound in inner_records(d):
        path = tmp_path / "cache.tsv"
        path.write_text(f"v2\t{code}\t{poly.render_poly(value)}\t1,1\n")
        ctx = SolveContext()
        ResultCache(str(path)).load_into(ctx)
        assert compute_td(d, ctx=ctx).render() == "3"
        lo, hi, _ = ctx.memo[code]
        assert bound <= lo <= hi


def test_every_record_opens_at_its_polynomial_bound():
    """After cold solves of the benchmark's pool in one context, no
    record with a polynomial claims a lower end below that polynomial's
    bound: every node the search reaches opens its record with it."""
    ctx = SolveContext()
    for word in _pool_words():
        compute_td(braid_closure(parse_braid(word)), ctx=ctx)
    below, checked = [], 0
    for code, (lo, _, tree) in ctx.memo.items():
        if code not in ctx.homfly_cache.table:
            continue
        value = ctx.homfly_cache.table[code][0]
        assert tree is not None  # a cold solve records a tree with each value
        checked += 1
        if lo < polynomial_lower_bound(value, component_count(tree.diagram)):
            below.append(code)
    assert checked > 90 and below == []


def test_max_depth_caps_search_not_claim():
    res = compute_td(
        parse_pd(FIXTURE_PDS["K5a2"][0]), max_depth=1, ctx=SolveContext()
    )
    assert (res.link_lower, res.diagram_upper) == (4, 4)  # bounds already meet


def test_timeout_produces_interval():
    res = compute_td(
        braid_closure(parse_braid(INTERVAL_WORD)), timeout_secs=0.0, ctx=SolveContext()
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

    # with the root's polynomial loaded from a cache file, the search
    # expands the root for its tree, which proves only its hi
    ctx = DeadlineAfterRoot()
    load_values(ctx.homfly_cache, {root: homfly(d)})
    assert depth_at_most(d, 1, ctx=ctx) is None
    assert ctx.memo[root][:2] == (1, 4)
    assert depth_at_most(d, 1, ctx=SolveContext()) is True


@pytest.mark.parametrize(
    "word, depth",
    [
        ("p=4: " + " ".join(["1 2 3"] * 4), 9),  # (s1 s2 s3)^4
        ("p=3: " + " ".join(["1 2"] * 6), 10),  # T(3,6)
        # the frontier: the HOMFLY-PT expansion's trees meet the lower end
        ("p=4: " + " ".join(["1 2 3"] * 6), 15),  # T(4,6)
        ("p=3: " + " ".join(["1 2"] * 9), 16),  # T(3,9)
        ("p=4: " + " ".join(["1 2 3"] * 7), 18),  # T(4,7)
        ("p=5: " + " ".join(["1 2 3 4"] * 5), 16),  # T(5,5)
    ],
)
def test_hard_torus_closures_are_exact(word, depth):
    d = braid_closure(parse_braid(word))
    res = compute_td(d, timeout_secs=60, ctx=SolveContext())
    assert res.status == f"Exact({depth})"
    assert verify_tree(res.witness) == depth


def test_leading_coefficient_closes_a_gap_without_search():
    """The top coefficient of this closure's polynomial proves 10, which
    its HOMFLY-PT expansion's tree meets: no search node is spent on the
    depth 9 that the z-degree alone leaves open."""
    d = braid_closure(parse_braid("p=4: -3 2 2 2 3 1 -2 1 2 3 2 3 2 3 2 3"))
    ctx = SolveContext()
    res = compute_td(d, ctx=ctx)
    assert res.status == "Exact(10)" and ctx.nodes == 0
    assert verify_tree(res.witness) == 10


@pytest.mark.parametrize(
    "link, render, nodes, computed",
    [
        (FIXTURE_PDS["trefoil"][0], "2", 0, 2),
        # the top coefficient a^5 + a^3 proves 4, the expansion's height
        ("p=3: 2 2 2 1 -2 1 2", "4", 0, 4),
        ("p=4: -2 2 -1 3 -1 3 2 1 -3 1 2", "[3, 4]", 1, 15),
        ("p=4: 2 1 3 2 2 3 2 -3 3", "4", 0, 6),
        # the switches that shed, tried first, spare 4 expansions
        ("p=4: 2 3 -1 2 -3 2 -3 -3 -3 -3", "3", 5, 28),
    ],
)
def test_search_work_is_pinned(link, render, nodes, computed):
    """Search nodes and polynomial work of a fresh solve, which tries the
    crossings whose switch sheds first, keeps one record per code and
    starts each record from the HOMFLY-PT expansion's tree: a solve whose
    expansion meets the lower end searches no node."""
    d = parse_pd(link) if link.startswith("X") else braid_closure(parse_braid(link))
    ctx = SolveContext()
    assert compute_td(d, ctx=ctx).render() == render
    cache = ctx.homfly_cache
    assert (ctx.nodes, cache.computed) == (nodes, computed)


def _tree_nodes(t):
    return 1 if isinstance(t, SkeinLeaf) else 1 + _tree_nodes(t.switched) + _tree_nodes(t.smoothed)


@pytest.mark.parametrize(
    "word, nodes",
    [("p=3: 2 2 1 1 -2 -1 -2 -1 -1 -1", 15), ("p=4: 2 3 -1 2 -3 2 -3 -3 -3 -3", 11)],
)
def test_a_branch_keeps_the_shallower_switch_subtree(word, nodes):
    """The smoothing's search can find a shallower tree for the switch
    child's code after the switch child's own search returned; the
    branch takes the child's record then, so in the witness every
    branch below the root is as tall as its code's record says.  Each
    word's witness kept a switch subtree of height 2 where its record
    held 1, with 4 nodes more than these."""
    w = parse_braid(word)
    ctx = SolveContext()
    res = compute_td(braid_closure(w), braid_words=[w], ctx=ctx)
    assert verify_tree(res.witness) == res.diagram_upper
    assert _tree_nodes(res.witness) == nodes
    todo = [res.witness]
    while todo:
        t = todo.pop()
        if isinstance(t, SkeinBranch):
            assert t is res.witness or tree_depth(t) == ctx.memo[canonical_code(t.diagram)][1]
            todo += [t.switched, t.smoothed]


def test_search_builds_a_smoothing_only_when_it_is_needed(monkeypatch):
    """Whether the polynomials are known or not, the search builds the
    smoothing at a crossing only after the switch child there succeeds;
    a switch child that fails ends its branch with no smoothing built."""
    d = braid_closure(parse_braid("p=4: -2 3 -3 1 -1 -1 -1 -2 1 1 1"))
    warm = SolveContext()
    assert compute_td(d, ctx=warm).render() == "[3, 4]"
    known = warm.homfly_cache.computed

    events = []  # [kind, (code, crossing), outcome of the switch child]
    real_search = solver._search

    def search(node, k, ctx, limit):
        pending = events[-1] if events and events[-1][2] == "pending" else None
        result = real_search(node, k, ctx, limit)
        if pending is not None:
            pending[2] = result
        return result

    def recorder(kind, op):
        def call(node, i, *sheds):
            events.append([kind, (canonical_code(node), i), "pending" if kind == "switch" else None])
            return op(node, i, *sheds)

        return call

    monkeypatch.setattr(solver, "_search", search)
    monkeypatch.setattr(solver, "switch", recorder("switch", switch))
    monkeypatch.setattr(solver, "smooth", recorder("smooth", smooth))
    for cache in (warm.homfly_cache, HomflyCache()):
        events.clear()
        ctx = SolveContext(cache)
        assert depth_at_most(d, 3, ctx=ctx) is False
        assert ctx.nodes == 1
        switched = [(key, outcome) for kind, key, outcome in events if kind == "switch"]
        smoothed = [key for kind, key, _ in events if kind == "smooth"]
        # a switch child that succeeded returned its proof, (height, tree)
        assert sorted(smoothed) == sorted(key for key, outcome in switched if isinstance(outcome, tuple))
        assert (len(switched), len(smoothed)) == (7, 3)
    assert warm.homfly_cache.computed == known


def test_search_builds_the_switch_test_once_per_node(monkeypatch):
    """_search builds switch_sheds once per node it expands, and passes it
    to every switch there; a probe its record or its bounds answer builds
    none."""
    calls = []

    def counted(d):
        calls.append(d)
        return switch_sheds(d)

    monkeypatch.setattr(solver, "switch_sheds", counted)
    ctx = SolveContext()
    for word in SEARCH_WORDS + [INTERVAL_WORD]:
        compute_td(braid_closure(parse_braid(word)), ctx=ctx)
    assert ctx.nodes > 0 and len(calls) == ctx.nodes
    # the known-table rows, whose expansions meet their lower ends
    calls.clear()
    fresh = SolveContext()
    for name in ("trefoil", "K5a1", "K5a2", "L5a1"):
        compute_td(parse_pd(FIXTURE_PDS[name][0]), ctx=fresh)
    assert fresh.nodes == 0 and not calls


def _index_order_search(d, k, ctx, limit):
    """The search as it was before the switches that shed went first: a
    node's crossings in index order, each switch testing for itself
    whether it sheds.  Kept as the reference the ordered search is held
    to."""
    if k < 0:
        return False
    if d.is_crossingless():
        return 0, SkeinLeaf(d, component_count(d))
    code = ctx.homfly_cache.code_of(d)
    v = ctx.verdict_of(code, d)
    if v.is_unlink:
        return 0, SkeinLeaf(d, v.components)
    if v.is_unknown and ctx.out_of_time():
        return None
    solver._merge_expansion(ctx, d, code, 1, k)
    lo, hi, tree = ctx.memo[code]
    if hi <= k:
        return hi, tree
    if k < lo:
        return False
    self_lb = polynomial_lower_bound(homfly(d, ctx.homfly_cache), component_count(d))
    if self_lb > k:
        solver._record(ctx, code, lo=self_lb)
        return False
    if ctx.nodes >= limit or ctx.out_of_time():
        return None
    ctx.nodes += 1
    saw_unknown = False
    for i in range(d.crossing_count):
        p_sw = _index_order_search(simplify(switch(d, i)), k - 1, ctx, limit)
        if not p_sw:
            saw_unknown |= p_sw is None
            continue
        p_sm = _index_order_search(simplify(smooth(d, i)), k - 1, ctx, limit)
        if not p_sm:
            saw_unknown |= p_sm is None
            continue
        (h_sw, t_sw), (h_sm, t_sm) = p_sw, p_sm
        tree = SkeinBranch(d, i, t_sw, t_sm) if t_sw is not None and t_sm is not None else None
        solver._record(ctx, code, hi=1 + max(h_sw, h_sm), tree=tree)
        return ctx.memo[code][1:]
    if saw_unknown:
        return None
    solver._record(ctx, code, lo=k + 1)
    return False


def _pool_words():
    """The benchmark's random-mixed pool: 160 mixed-sign words on 3 or 4
    strands, of length 7-10, that use every generator, drawn from
    random.Random(1)."""
    rng = random.Random(1)
    words = []
    while len(words) < 160:
        p = rng.choice((3, 4))
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(7, 10))]
        if {abs(g) for g in letters} == set(range(1, p)) and min(letters) < 0 < max(letters):
            words.append(f"p={p}: " + " ".join(map(str, letters)))
    return words


def _closure_words(seed, count, strands, lengths):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        p = rng.randint(*strands)
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(*lengths))]
        words.append(f"p={p}: " + " ".join(map(str, letters)))
    return words


def test_the_search_order_changes_no_answer(monkeypatch):
    """Trying the switches that shed first changes the witness found and
    the work spent, never an answer: a True needs some crossing to work
    and a False needs every one to fail.  Against the index-order
    reference, in fresh contexts at the default budget: the same
    depth_at_most answers from the lower end - 1 to the upper end, the
    same results and witness heights, and no more expansions in all."""
    words = (
        _pool_words()
        + _closure_words(2028, 250, (3, 5), (8, 13))
        + _closure_words(5, 60, (4, 5), (12, 16))
    )
    links = [braid_closure(parse_braid(w)) for w in words]

    def solve_all():
        out, expansions = [], 0
        for d in links:
            ctx = SolveContext()
            res = compute_td(d, ctx=ctx)
            expansions += ctx.homfly_cache.computed
            height = None if res.witness is None else verify_tree(res.witness)
            ks = range(res.link_lower - 1, res.diagram_upper + 1)
            probes = [depth_at_most(d, k, ctx=SolveContext()) for k in ks]
            out.append((res.render(), res.status, res.budget_exhausted, height, probes))
        return out, expansions

    ordered, ordered_expansions = solve_all()
    monkeypatch.setattr(solver, "_search", _index_order_search)
    reference, reference_expansions = solve_all()
    assert ordered == reference
    assert sum(r[3] is not None for r in ordered) > 400
    assert ordered_expansions < reference_expansions


def test_persisted_interval_answers_without_witness():
    # depth 2; the HOMFLY-PT expansion's tree, of height 6, is no witness
    ctx1 = SolveContext()
    d = braid_closure(parse_braid(DEPTH2_WORD))
    assert depth_at_most(d, 2, ctx=ctx1) is True
    code = canonical_code(simplify(d))
    ctx2 = SolveContext()
    lo, hi, _ = ctx1.memo[code]
    ctx2.memo[code] = (lo, hi, None)  # as ResultCache loads it
    assert depth_at_most(d, 2, budget=0, ctx=ctx2) is True
    res = compute_td(d, ctx=ctx2)
    assert res.is_exact and res.value == 2 and res.witness is None


class TighteningMemo(dict):
    """A memo that fails on any write lowering a record's lo or raising
    its hi."""

    def __setitem__(self, code, record):
        if code in self:
            (lo, hi), (new_lo, new_hi) = self[code][:2], record[:2]
            assert new_lo >= lo and new_hi <= hi, (code, (lo, hi), (new_lo, new_hi))
        super().__setitem__(code, record)


def test_no_record_is_loosened():
    """Switching one crossing twice gives the node back, so a deeper visit
    of a code can tighten its record while the outer visit is open; the
    outer visit's write must keep what the deeper one proved."""
    ctx = SolveContext()
    ctx.memo = TighteningMemo()
    # the HOMFLY-PT expansions of both miss the lower end, so both are
    # searched
    for word, render in (("p=4: 2 1 3 2 2 3 2 -3", "3"), ("p=4: 2 3 -1 2 -3 2 -3 -3 -3 -3", "3")):
        assert compute_td(braid_closure(parse_braid(word)), ctx=ctx).render() == render
    assert len(ctx.memo) > 10


def _replay_every_tree(ctx):
    """Replay every record's tree and every expansion tree of ctx; the
    numbers of each.

    verify_tree checks each subtree of a tree it replays, so a tree
    inside another recorded tree is replayed as part of that one; every
    tree's height is read from one walk over them all.
    """
    trees = [(code, hi, tree) for code, (_, hi, tree) in ctx.memo.items() if tree is not None]
    expanded = [(code, h, tree) for code, (_, h, tree) in ctx.homfly_cache.table.items() if tree is not None]
    heights: dict[int, int] = {}
    inner: set[int] = set()

    def height(t):
        h = heights.get(id(t))
        if h is None:
            h = 0
            if isinstance(t, SkeinBranch):
                inner.update((id(t.switched), id(t.smoothed)))
                h = 1 + max(height(t.switched), height(t.smoothed))
            heights[id(t)] = h
        return h

    for code, hi, tree in trees + expanded:
        assert canonical_code(tree.diagram) == code
        assert height(tree) == hi
    for code, hi, tree in trees + expanded:
        if id(tree) not in inner:
            assert verify_tree(tree) == hi
    return len(trees), len(expanded)


def test_every_recorded_tree_replays(tmp_path):
    """A record's tree proves its hi for the diagram its code names, and
    so does each expansion tree its height; a record loaded from a cache
    file has no tree."""
    # alone in its context, this closure's search replaces its expansion
    # tree, of height 6, by a tree of height 2
    depth2 = simplify(braid_closure(parse_braid(DEPTH2_WORD)))
    root = canonical_code(depth2)
    ctx = SolveContext()
    compute_td(depth2, ctx=ctx)
    assert (ctx.homfly_cache.table[root][1], ctx.memo[root][1]) == (6, 2)
    records, expanded = _replay_every_tree(ctx)
    assert records > 5 and expanded > 5

    words = ORACLE_WORDS + SEARCH_WORDS + ["p=4: 2 1 3 2 2 3 2 -3", "p=4: 1 -2 1 1 -2 -1 3 2"]
    words.append("p=4: " + " ".join(["1 2 3"] * 7))  # T(4,7)
    ctx = SolveContext()
    for d in closure_battery() + [braid_closure(parse_braid(w)) for w in words]:
        compute_td(d, ctx=ctx)
    records, expanded = _replay_every_tree(ctx)
    assert records > 20 and expanded > 2000
    path = str(tmp_path / "cache.tsv")
    ResultCache(path).save_from(ctx)
    warm = SolveContext()
    ResultCache(path).load_into(warm)
    assert warm.memo == {
        code: (lo, hi, None) for code, (lo, hi, _) in ctx.memo.items() if (lo, hi) != (1, INF)
    }


def _cold_half_cache(links, path):
    """A warm context loaded from a cache file that a cold solve of every
    other link of links saved to path."""
    half = SolveContext()
    for d in links[::2]:
        compute_td(d, ctx=half)
    ResultCache(path).save_from(half)
    warm = SolveContext()
    ResultCache(path).load_into(warm)
    return warm


def test_a_polynomial_without_a_tree_came_from_a_cache_file(tmp_path, monkeypatch):
    """Every polynomial a solve computes comes from the HOMFLY-PT
    expansion, with its tree.  After a cache file is loaded, a code has
    no tree only when its value was loaded and no expansion met it as a
    child: a loaded child is expanded again, to the loaded value."""
    links = [braid_closure(parse_braid(w)) for w in SEARCH_WORDS + [GAP_WORD]] + closure_battery()
    ctx = SolveContext()
    for d in links:
        compute_td(d, ctx=ctx)
    assert set(ctx.homfly_cache.table) == expanded_codes(ctx.homfly_cache)

    warm = _cold_half_cache(links, str(tmp_path / "cache.tsv"))
    cache = warm.homfly_cache
    loaded = values_of(cache)
    assert loaded and not expanded_codes(cache)

    children: set[str] = set()  # codes an expansion met as a child
    depth = [0]
    expand = poly.expansion

    def spy(d, cache):
        if depth[0] and not d.is_crossingless():
            children.add(canonical_code(d))
        depth[0] += 1
        try:
            return expand(d, cache)
        finally:
            depth[0] -= 1

    # the recursion's own calls, and the search's calls from solver
    monkeypatch.setattr(poly, "expansion", spy)
    monkeypatch.setattr(solver, "expansion", spy)
    for d in links:
        compute_td(d, ctx=warm)
    treeless = set(cache.table) - expanded_codes(cache)
    assert treeless and treeless <= set(loaded) and not treeless & children
    assert children <= expanded_codes(cache)
    rederived = set(loaded) & children
    assert rederived
    for code in rederived:
        value = cache.table[code][0]
        assert value == loaded[code] and value is not loaded[code], code


def _random_words(seed, count):
    """The braid words among count drawn from random.Random(seed), on 3
    or 4 strands and of length 7-9, that use every generator."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        p = rng.choice((3, 4))
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(7, 9))]
        if {abs(g) for g in letters} == set(range(1, p)):
            words.append(f"p={p}: " + " ".join(map(str, letters)))
    return words


def test_a_warm_context_searches_no_more_than_a_cold_one(tmp_path):
    """A context loaded from half a cache searches no more nodes than a
    fresh one on the same links in the same order: a loaded value that
    an expansion meets as a child, or that a search node has while no
    loaded record answers it, is expanded again for its tree, as a cold
    solve expands it."""
    words = SEARCH_WORDS + [GAP_WORD] + [
        "p=4: 2 1 3 2 2 3 2 -3",
        "p=4: -2 2 -1 3 -1 3 2 1 -3 1 2",
        "p=4: -2 3 -3 1 -1 -1 -1 -2 1 1 1",
        "p=4: 1 -2 1 1 -2 -1 3 2",
    ]
    drawn = _random_words(107, 60)
    # the search of this closure meets a node below its root whose
    # polynomial the file gives and no record answers; without that
    # node's tree, the warm context searches one node more than the cold
    assert "p=3: -1 1 -1 2 -1 -2 1 2" in drawn
    inputs = (
        [braid_closure(parse_braid(w)) for w in words] + closure_battery(),
        [braid_closure(parse_braid(w)) for w in drawn],
    )
    for i, links in enumerate(inputs):
        cold = SolveContext()
        answers = [compute_td(d, ctx=cold).render() for d in links]
        warm = _cold_half_cache(links, str(tmp_path / f"cache-{i}.tsv"))
        assert [compute_td(d, ctx=warm).render() for d in links] == answers
        assert cold.nodes > 0 and warm.nodes <= cold.nodes


def test_a_solve_expands_its_loaded_diagram_unless_a_record_answers():
    """A solve whose diagram has a loaded polynomial and no loaded record
    expands the diagram for its tree, as a cold solve does: the same
    answer, witness height and polynomial work, and no search.  A loaded
    record that reaches the lower end answers with no expansion."""
    d = simplify(braid_closure(parse_braid("p=2: 1 1 1 1 1")))  # T(2,5)
    code = canonical_code(d)
    cold = SolveContext()
    want = compute_td(d, ctx=cold)
    assert (want.render(), cold.nodes) == ("4", 0)
    value = cold.homfly_cache.table[code][0]

    warm = SolveContext()
    load_values(warm.homfly_cache, {code: value})
    got = compute_td(d, ctx=warm)
    assert (got.render(), warm.nodes) == ("4", 0) and verify_tree(got.witness) == 4
    assert warm.homfly_cache.computed == cold.homfly_cache.computed

    warm = SolveContext()
    load_values(warm.homfly_cache, {code: value})
    warm.memo[code] = (4, 4, None)
    got = compute_td(d, ctx=warm)
    assert (got.render(), got.witness, warm.nodes, warm.homfly_cache.computed) == ("4", None, 0, 0)


def test_a_wrong_loaded_polynomial_is_replaced_and_saved(tmp_path):
    """A cache line with a parseable but wrong polynomial for a code the
    root's expansion meets: the warm answer is the cold one, and the
    saved file's last line for that code carries the computed value."""
    d = simplify(braid_closure(parse_braid(GAP_WORD)))
    cold = SolveContext()
    want = compute_td(d, ctx=cold)
    tree = cold.homfly_cache.table[canonical_code(d)][2]
    child = tree.switched.diagram
    assert not child.is_crossingless()
    code = canonical_code(child)
    right = cold.homfly_cache.table[code][0]
    wrong = right + poly.ONE
    path = tmp_path / "cache.tsv"
    path.write_text(f"{solver.CACHE_FORMAT}\t{code}\t{poly.render_poly(wrong)}\t-\n")

    warm = SolveContext()
    store = ResultCache(str(path))
    store.load_into(warm)
    assert warm.homfly_cache.table[code] == (wrong, None, None)
    got = compute_td(d, ctx=warm)
    assert (got.render(), got.status) == (want.render(), want.status)
    assert verify_tree(got.witness) == verify_tree(want.witness)
    assert warm.homfly_cache.table[code][0] == right
    store.save_from(warm)
    lines = [line.split("\t") for line in path.read_text().splitlines()]
    assert [fields[2] for fields in lines if fields[1] == code][-1] == poly.render_poly(right)
    again = SolveContext()
    ResultCache(str(path)).load_into(again)
    assert again.homfly_cache.table[code] == (right, None, None)


def test_a_loaded_line_never_replaces_a_computed_value(tmp_path):
    """A cache line for a code the context has expanded already leaves
    the computed value and tree in place: homfly answers the computed
    value, and a save appends it over the wrong line."""
    d = simplify(braid_closure(parse_braid("p=3: 1 1 1 -2 1 -2 -2")))
    ctx = SolveContext()
    compute_td(d, ctx=ctx)
    child = simplify(switch(d, 0))
    assert not child.is_crossingless()
    code = canonical_code(child)
    right = homfly(child, ctx.homfly_cache)
    entry = ctx.homfly_cache.table[code]
    path = tmp_path / "cache.tsv"
    path.write_text(f"{solver.CACHE_FORMAT}\t{code}\t{poly.render_poly(right + poly.ONE)}\t-\n")
    store = ResultCache(str(path))
    store.load_into(ctx)
    assert homfly(child, ctx.homfly_cache) == right
    assert ctx.homfly_cache.table[code] is entry and entry[2] is not None
    store.save_from(ctx)
    lines = [line.split("\t") for line in path.read_text().splitlines()]
    assert [fields[2] for fields in lines if fields[1] == code][-1] == poly.render_poly(right)


def test_a_later_loaded_line_replaces_an_earlier_one(tmp_path):
    """Of two lines for one code that no solve has expanded, the later
    one's polynomial is the one loaded, in either order."""
    child = simplify(braid_closure(parse_braid("p=2: 1 1 1")))
    code = canonical_code(child)
    right = homfly(child)
    wrong = right + poly.ONE
    path = tmp_path / "cache.tsv"
    for first, last in ((wrong, right), (right, wrong)):
        path.write_text(
            "".join(f"{solver.CACHE_FORMAT}\t{code}\t{poly.render_poly(p)}\t-\n" for p in (first, last))
        )
        ctx = SolveContext()
        ResultCache(str(path)).load_into(ctx)
        assert homfly(child, ctx.homfly_cache) == last
        assert ctx.homfly_cache.computed == 0


@pytest.mark.parametrize(
    "text",
    [
        "2*a^2 + -1*a^4 + 1*a^2*z^2",  # terms out of order
        "1*a^2*z^2 + -1*a^4 + 2*a^2",
        "+2*a^2",  # a sign render_poly does not write
        "02*a^2",  # a leading zero
        "2*a^02",
        "2*a^0*z^2",  # an exponent 0 factor
        "2*z^2*a^2",  # factors out of order
        "2 * a^2",  # spaces inside a term
        " 2*a^2",
        "2*a^2 +  1*z^2",
        "1*a^2 + 0*z^2",  # a zero coefficient
        "2*a^\u0662",  # a digit outside 0-9
    ],
)
def test_a_save_appends_only_what_was_not_loaded_as_written(tmp_path, text):
    """save_from writes every polynomial as render_poly writes it, and
    appends a line only for a code whose loaded line differs: a line in
    another form, a later line without a polynomial and a loaded value
    the expansion replaced.  A line render_poly wrote is not appended
    again."""
    words = [GAP_WORD, DEPTH2_WORD, "p=4: 2 1 3 2 2 3 2 -3"]
    links = [braid_closure(parse_braid(w)) for w in words]
    path = tmp_path / "cache.tsv"
    _cold_half_cache(links, str(path))
    lines = path.read_text().splitlines()
    store, warm = ResultCache(str(path)), SolveContext()
    store.load_into(warm)
    store.save_from(warm)
    assert path.read_text().splitlines() == lines

    # a child of the expansion of links[1], which the file does not answer
    cold = SolveContext()
    compute_td(links[1], ctx=cold)
    child = cold.homfly_cache.table[canonical_code(simplify(links[1]))][2].switched.diagram
    replaced = canonical_code(child)
    right = poly.render_poly(cold.homfly_cache.table[replaced][0])
    first, second = (line.split("\t") for line in lines[:2])
    terms = first[2].split(" + ")
    assert len(terms) > 1
    edited = ["\t".join(first[:2] + [" + ".join(terms[::-1])] + first[3:])] + lines[1:]  # out of order
    edited.append("\t".join(second[:2] + ["-", "1,-"]))  # a later line without a polynomial
    wrong = poly.render_poly(cold.homfly_cache.table[replaced][0] + poly.ONE)
    edited.append("\t".join([solver.CACHE_FORMAT, replaced, wrong, "-"]))
    # text in another form, and render_poly's text of it, under codes no
    # diagram has, so no solve replaces their values
    as_rendered = poly.render_poly(poly.parse_poly(text))
    assert as_rendered != text
    edited += [f"{solver.CACHE_FORMAT}\tno-diagram-{i}\t{t}\t-" for i, t in enumerate((text, as_rendered))]
    path.write_text("\n".join(edited) + "\n", encoding="utf-8")
    warm = SolveContext()
    store = ResultCache(str(path))
    store.load_into(warm)
    for d in links:
        compute_td(d, ctx=warm)
    store.save_from(warm)
    appended = {}
    for line in path.read_text(encoding="utf-8").splitlines()[len(edited) :]:
        fields = line.split("\t")
        appended[fields[1]] = fields[2:]
    assert appended[first[1]][0] == first[2] and appended[second[1]][0] == second[2]
    assert appended[replaced][0] == right
    assert appended["no-diagram-0"] == [as_rendered, "-"] and "no-diagram-1" not in appended


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
