"""The braid-state expansion of one-signed braid closures, its
word-level witnesses and their replay."""

import random
from dataclasses import replace
from itertools import permutations

import pytest

from skeindepth import (
    BraidBranch,
    BraidLeaf,
    BraidStates,
    BraidWord,
    HomflyCache,
    SkeinBranch,
    SolveContext,
    braid_closure,
    canonical_code,
    compute_td,
    homfly,
    parse_braid,
    simplify,
    tree_depth,
    verify_tree,
)
from skeindepth.braid import reduced_word, word_permutation
from skeindepth.cli import load_dataset

from test_cli import bundled_dataset

# the torus closures of the benchmark's known-table workload: T(p, q) as
# the closure of (s1 ... s_{p-1})^q
TORUS = [(2, q) for q in range(3, 14)] + [(3, 3), (3, 4), (3, 5), (4, 2), (4, 3)]


def one_signed_words(seed, count):
    """count one-signed words on 2-6 strands, of both signs, each using
    every generator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.randint(2, 6)
        sign = rng.choice((1, -1))
        letters = tuple(sign * rng.randint(1, p - 1) for _ in range(rng.randint(p - 1, p + 7)))
        if len({abs(g) for g in letters}) == p - 1:
            out.append(BraidWord(p, letters))
    return out


def _nodes(tree):
    """Each distinct node of tree once."""
    seen, todo = {}, [tree]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, SkeinBranch):
                todo += [t.switched, t.smoothed]
    return list(seen.values())


def test_seeded_one_signed_words_match_homfly_and_the_formula():
    """On 1,000 seeded one-signed words the states' polynomial is the
    diagram expansion's, their height is length - strands + 1, and the
    witness compute_td returns replays at that height."""
    words = one_signed_words(41, 1000)
    assert {w.strands for w in words} == {2, 3, 4, 5, 6}
    assert {w.positives > 0 for w in words} == {True, False}
    states, cache, ctx = BraidStates(), HomflyCache(), SolveContext()
    for w in words:
        value, height, tree = states.expand(w)
        assert value == homfly(braid_closure(w), cache), w
        assert height == tree_depth(tree) == w.length - w.strands + 1, w
        res = compute_td(braid_closure(w), braid_words=[w], ctx=ctx)
        if res.value:
            # the witness of a code solved before with another word has
            # that word at its root
            assert isinstance(res.witness, BraidBranch), w
            assert verify_tree(res.witness) == res.value == height, w


def _known_table():
    """(name, diagram, genus, words, expected) of the known-table links."""
    rows = [(r.name, r.pd, r.genus, r.braid_words, r.expected) for r in load_dataset(bundled_dataset())]
    for p, q in TORUS:
        w = BraidWord(p, tuple(range(1, p)) * q)
        rows.append((f"T({p},{q})", braid_closure(w), None, [w], (w.length - p + 1,) * 2))
    return rows


def test_the_eligible_known_table_rows_get_braid_word_witnesses():
    """23 of the 31 known-table links come with a one-signed word whose
    simplified closure has the diagram's code.  Each is answered as
    expected, from a braid-word witness that replays, with the states'
    polynomial, which is the diagram expansion's; its solve expands no
    diagram."""
    ctx, cache = SolveContext(), HomflyCache()
    eligible = 0
    for name, d, genus, words, expected in _known_table():
        work = simplify(d)
        signed = [w for w in words or () if not (w.positives and w.negatives)]
        if not any(canonical_code(simplify(braid_closure(w))) == canonical_code(work) for w in signed):
            compute_td(d, genus=genus, braid_words=words, ctx=ctx)
            continue
        eligible += 1
        expanded = ctx.homfly_cache.computed
        res = compute_td(d, genus=genus, braid_words=words, ctx=ctx)
        assert ctx.homfly_cache.computed == expanded, name
        assert (res.value, res.value) == expected, name
        assert isinstance(res.witness, BraidBranch), name
        assert canonical_code(res.witness.diagram) == canonical_code(work), name
        assert verify_tree(res.witness) == tree_depth(res.witness) == res.value, name
        value, height, tree = ctx.homfly_cache.table[canonical_code(work)]
        assert isinstance(tree, BraidBranch) and height == res.value, name
        assert value == homfly(d, cache) == ctx.braid_states.expand(signed[0])[0], name
    assert eligible == 23


def test_a_negative_word_is_read_as_the_mirror():
    w = parse_braid("p=3: 1 2 1 2 1 2 1 2")
    m = BraidWord(3, tuple(-g for g in w.letters))
    states = BraidStates()
    (p, h, _), (pm, hm, tm) = states.expand(w), states.expand(m)
    assert pm == p.mirror() and hm == h == 6
    assert all(g < 0 for t in _nodes(tm) for g in t.word)


def test_minimal_classes_end_in_leaves_without_repeated_letters():
    """Every permutation of up to 6 strands whose cyclic-shift class has
    no length-reducing conjugation traces to an unlink leaf, one
    component per cycle, whose word repeats no letter: simplify
    unknots its closure letter by letter."""
    states = BraidStates()
    for n in range(2, 7):
        for w in permutations(range(n)):
            value, height, tree = states._trace(w, 1)
            if states.shift_class(w)[1] is None:
                assert isinstance(tree, BraidLeaf) and height == 0
                assert len(set(tree.word)) == len(tree.word)
                if tree.word:
                    assert simplify(braid_closure(BraidWord(n, tree.word))).is_crossingless()


def test_reduced_words_spell_their_permutation():
    for n in range(1, 6):
        for w in permutations(range(n)):
            word = reduced_word(w)
            assert word_permutation(word, n) == w
            assert len(word) == sum(a > b for i, a in enumerate(w) for b in w[i + 1 :])
    assert word_permutation((1, 2, 1, 1), 3) is None


def test_the_frontier_torus_closures_with_their_words():
    """T(5,8) and T(6,6) with their words, which the diagram expansion
    takes tens of seconds or more on."""
    for p, q, depth in ((5, 8, 28), (6, 6, 25)):
        w = BraidWord(p, tuple(range(1, p)) * q)
        res = compute_td(braid_closure(w), braid_words=[w])
        assert res.status == f"Exact({depth})"
        assert verify_tree(res.witness) == depth


# -- the replay of mutated witnesses --------------------------------------------


T34 = parse_braid("p=3: 1 2 1 2 1 2 1 2")


def _witness(word=T34):
    return compute_td(braid_closure(word), braid_words=[word], ctx=SolveContext()).witness


def _first(tree, pred):
    return next(t for t in _nodes(tree) if pred(t))


def _swap(tree, old, new):
    """tree with the node object old replaced by new wherever it sits."""
    memo = {}

    def walk(t):
        if t is old:
            return new
        if not isinstance(t, SkeinBranch):
            return t
        if id(t) not in memo:
            sw, sm = walk(t.switched), walk(t.smoothed)
            memo[id(t)] = t if sw is t.switched and sm is t.smoothed else replace(t, switched=sw, smoothed=sm)
        return memo[id(t)]

    return walk(tree)


def test_the_unmutated_witness_replays():
    tree = _witness()
    assert verify_tree(tree) == 6
    # a switch and a smoothing at a letter, a reduced-prefix swap, a
    # conjugation and both kinds of leaf all occur in it
    assert any(isinstance(t, BraidLeaf) and t.components > 1 for t in _nodes(tree))
    assert any(isinstance(t, BraidLeaf) and t.components == 1 for t in _nodes(tree))


def test_a_resolved_letter_not_preceded_by_its_equal_is_refused():
    tree = _witness()
    node = _first(tree, lambda t: isinstance(t, BraidBranch) and t.diagram is None)
    c = next(i for i in range(1, len(node.word)) if node.word[i - 1] != node.word[i])
    with pytest.raises(ValueError, match="not the second of two equal letters"):
        verify_tree(_swap(tree, node, replace(node, crossing=c)))


def _branch_with_prefix(tree):
    """A branch below the root whose switch child's word starts with two
    distinct letters and, like the word it is reached from, is not a
    reduced word: so the child can only be reached by a prefix swap."""
    for t in _nodes(tree):
        if isinstance(t, BraidBranch) and t.diagram is None:
            before, child = t.word[: t.crossing - 1] + t.word[t.crossing + 1 :], t.switched.word
            reduced = word_permutation(before, 3), word_permutation(child, 3)
            if len(set(child[:2])) == 2 and reduced == (None, None):
                return t
    raise AssertionError("no such branch")


def test_a_child_prefix_of_another_permutation_is_refused():
    tree = _witness()
    node = _branch_with_prefix(tree)
    child = node.switched
    # two distinct adjacent letters swapped: a reduced word of another
    # permutation, the rest unchanged
    word = (child.word[1], child.word[0]) + child.word[2:]
    assert word_permutation(word[:2], 3) != word_permutation(child.word[:2], 3)
    with pytest.raises(ValueError, match="not reached"):
        verify_tree(_swap(tree, node, replace(node, switched=replace(child, word=word))))


def test_a_non_reduced_prefix_is_refused():
    tree = _witness()
    node = _branch_with_prefix(tree)
    child = node.switched
    g = child.word[0]
    # g g g for g: two strands cross three times, which no reduced word does
    word = (g, g) + child.word
    with pytest.raises(ValueError, match="not reached"):
        verify_tree(_swap(tree, node, replace(node, switched=replace(child, word=word))))


def test_a_conjugation_that_changes_the_length_is_refused():
    w = parse_braid("p=4: 1 2 3 1 2 3 1 2 3")
    tree = _witness(w)
    # a branch whose child is a leaf with a reduced word: conjugating
    # that word by a letter adds two to its length and leaves its class
    node = _first(
        tree,
        lambda t: isinstance(t, BraidBranch) and isinstance(t.smoothed, BraidLeaf) and t.smoothed.word,
    )
    leaf = node.smoothed
    s = next(j for j in range(1, 4) if word_permutation((j,) + leaf.word + (j,), 4) is not None)
    word = (s,) + leaf.word + (s,)
    with pytest.raises(ValueError, match="not reached"):
        verify_tree(_swap(tree, node, replace(node, smoothed=replace(leaf, word=word))))


def test_a_leaf_with_the_wrong_component_count_is_refused():
    tree = _witness()
    leaf = _first(tree, lambda t: isinstance(t, BraidLeaf))
    with pytest.raises(ValueError, match="components"):
        verify_tree(_swap(tree, leaf, replace(leaf, components=leaf.components + 1)))


def test_a_root_word_whose_closure_is_another_diagram_is_refused():
    tree = _witness()
    # the closure of T(3,5)'s word, one letter pair more
    with pytest.raises(ValueError, match="is not the root diagram"):
        verify_tree(replace(tree, given=T34.letters + (1, 2)))
    # a word node below the root carries neither
    with pytest.raises(ValueError, match="without a diagram"):
        verify_tree(tree.switched)


def test_a_diagram_branch_over_a_braid_word_root_replays():
    """The trefoil solved with its word leaves a braid-word root as its
    code's entry; the expansion of T(2,5), solved without a word in the
    same context, reaches that code and takes the entry's tree as a
    child of a diagram branch."""
    ctx = SolveContext()
    w = parse_braid("p=2: 1 1 1")
    compute_td(braid_closure(w), braid_words=[w], ctx=ctx)
    res = compute_td(braid_closure(parse_braid("p=2: 1 1 1 1 1")), ctx=ctx)
    assert not isinstance(res.witness, BraidBranch)
    under = [
        t
        for t in _nodes(res.witness)
        if type(t) is SkeinBranch and (isinstance(t.switched, BraidBranch) or isinstance(t.smoothed, BraidBranch))
    ]
    assert under
    assert verify_tree(res.witness) == res.value == 4


# -- given words that present another link ----------------------------------------


MIXED = "p=4: 2 3 -2 3 -1 3 1 -2 3 2 -1 2 -2 1"
WRONG = "p=4: 1 2 3 1 2 3 1"


def test_a_one_signed_word_of_another_link_is_refused():
    """Trusted, the positive word's formula made this Interval(4, 5)
    Exact(4) with no witness; its polynomial is not the diagram's."""
    d = braid_closure(parse_braid(MIXED))
    assert compute_td(d, ctx=SolveContext()).render() == "[4, 5]"
    with pytest.raises(ValueError, match=WRONG):
        compute_td(d, braid_words=[parse_braid(WRONG)], ctx=SolveContext())
    # mixed words stay trusted
    assert compute_td(d, braid_words=[parse_braid(MIXED)], ctx=SolveContext()).render() == "[4, 5]"


def test_a_one_signed_word_of_the_link_with_another_code_is_kept():
    """The trefoil's word on three strands has a closure with another
    code; its polynomial is the trefoil's, so it is trusted as before."""
    d = braid_closure(parse_braid("p=2: 1 1 1"))
    w = parse_braid("p=3: 1 2 1 2")
    assert canonical_code(simplify(braid_closure(w))) != canonical_code(simplify(d))
    res = compute_td(d, braid_words=[w], ctx=SolveContext())
    assert res.render() == "2" and verify_tree(res.witness) == 2
    assert not isinstance(res.witness, BraidBranch)
