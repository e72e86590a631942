"""Braid parsing, closures, and the word-level depth formulas."""

import itertools
import random

import pytest

from skeindepth import (
    BraidWord,
    Crossing,
    HomflyCache,
    SolveContext,
    braid_closure,
    canonical_code,
    component_count,
    compute_td,
    homfly,
    mixed_braid_upper,
    parse_braid,
    parse_pd,
    positive_braid_td,
    simplify,
    writhe,
)

from conftest import FIXTURE_PDS, walk_order_blocks
from test_diagram import reference_rewire

K11N183 = "p=4: -1 2 -1 -3 -2 -2 -1 -3 -2 -2 -3"


def test_parse_and_str_roundtrip():
    w = parse_braid("p=3: 1 -2 1 -2")
    assert w.strands == 3 and w.letters == (1, -2, 1, -2)
    assert parse_braid(str(w)) == w
    assert parse_braid("p = 2 :  1   1 ") == BraidWord(2, (1, 1))


@pytest.mark.parametrize(
    "bad",
    ["", "1 2 1", "p=2:", "p=2: 0", "p=2: 2", "p=2: -2", "p=1: 1", "p=2: 1 x"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_braid(bad)


def test_stats():
    def stats(text):
        w = parse_braid(text)
        return (w.length, w.positives, w.negatives, w.strands, w.all_indices_used())

    assert stats("p=2: 1 1 1") == (3, 3, 0, 2, True)
    assert stats("p=3: 1 -2 1 -2") == (4, 2, 2, 3, True)
    assert stats("p=3: 1 1") == (2, 2, 0, 3, False)
    assert stats(K11N183) == (11, 1, 10, 4, True)


def test_closure_oracles():
    # sigma1^3 closes to the right trefoil: the polynomial must agree
    cache = HomflyCache()
    tref = braid_closure(parse_braid("p=2: 1 1 1"))
    assert writhe(tref) == 3 and component_count(tref) == 1
    assert homfly(tref, cache) == homfly(parse_pd(FIXTURE_PDS["trefoil"][0]), cache)
    # sigma1^4 closes to the expected 2-component torus diagram
    t4 = braid_closure(parse_braid("p=2: 1 1 1 1"))
    assert canonical_code(t4) == canonical_code(
        parse_pd("X[5,1,6,2];X[2,6,3,7];X[7,3,8,4];X[4,8,1,5]")
    )
    # a single letter closes to an unknot, negative letters carry writhe
    assert simplify(braid_closure(parse_braid("p=2: 1"))).is_crossingless()
    assert writhe(braid_closure(parse_braid("p=2: -1"))) == -1
    # an untouched strand closes to a free loop
    d = braid_closure(parse_braid("p=3: 1"))
    assert component_count(d) == 2 and d.free_loops == 1


def reference_closure(w):
    """The closure glued in a union-find: each position's bottom arc is
    merged onto its provisional top label -q, and the result renumbered."""
    cur = {q: -q for q in range(1, w.strands + 1)}
    crossings = []
    for g in w.letters:
        i = abs(g)
        left, right = cur[i], cur[i + 1]
        n1, n2 = 2 * len(crossings) + 1, 2 * len(crossings) + 2
        if g > 0:
            crossings.append(Crossing(right, left, n1, n2, 1))
        else:
            crossings.append(Crossing(left, n1, n2, right, -1))
        cur[i], cur[i + 1] = n1, n2
    return reference_rewire(crossings, [(cur[q], -q) for q in cur], 0)


def test_closure_matches_the_reference():
    """braid_closure gives the union-find closure crossing for crossing,
    with its free loops and the label-block table of a fresh read, on
    seeded words of 2-5 strands, some leaving strands untouched."""
    rng = random.Random(25)
    words = [parse_braid("p=4: 1 1 1"), parse_braid("p=5: -2 3"), parse_braid("p=2: -1")]
    for _ in range(400):
        p = rng.randint(2, 5)
        letters = [rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(rng.randint(1, 9))]
        words.append(BraidWord(p, tuple(letters)))
    loops = 0
    for w in words:
        d, want = braid_closure(w), reference_closure(w)
        assert (d.crossings, d.free_loops) == (want.crossings, want.free_loops), w
        assert d._blocks == walk_order_blocks(want.crossings), w
        loops += d.free_loops
    assert braid_closure(parse_braid("p=4: 1 1 1")).free_loops == 2
    assert loops > 100, loops


def test_closure_matches_fixture_diagrams():
    cache = HomflyCache()
    for word, fixture in [
        ("p=3: 1 -2 1 -2", "fig8"),
        ("p=3: 1 -2 1 -2 1", "L5a1"),
        ("p=2: 1 1 1 1 1", "K5a2"),
    ]:
        d = braid_closure(parse_braid(word))
        assert homfly(d, cache) == homfly(parse_pd(FIXTURE_PDS[fixture][0]), cache), word


def test_mirror_word_mirrors_closure():
    cache = HomflyCache()
    w = parse_braid("p=2: 1 1 1")
    wm = parse_braid("p=2: -1 -1 -1")
    assert homfly(braid_closure(wm), cache) == homfly(braid_closure(w), cache).mirror()


def test_positive_braid_td_values_and_errors():
    assert positive_braid_td(parse_braid("p=2: 1 1")) == 1
    assert positive_braid_td(parse_braid("p=2: 1 1 1")) == 2
    assert positive_braid_td(parse_braid("p=2: -1 -1 -1")) == 2
    assert positive_braid_td(parse_braid("p=3: 1 2 1 2 1 2")) == 4
    with pytest.raises(ValueError):
        positive_braid_td(parse_braid("p=2: 1 -1"))
    with pytest.raises(ValueError):
        positive_braid_td(parse_braid("p=3: 1 1"))


def test_mixed_braid_upper():
    assert mixed_braid_upper([parse_braid(K11N183)]) == 9
    # minimum over words wins
    words = [parse_braid("p=2: 1 1 1"), parse_braid("p=3: 1 -2 1 -2 1 1")]
    assert mixed_braid_upper(words) == 2
    with pytest.raises(ValueError):
        mixed_braid_upper([])
    with pytest.raises(ValueError):
        mixed_braid_upper([parse_braid("p=3: 1 1")])


def test_positive_words_solver_agreement():
    """Exactness of length - strands + 1 for every one-signed word with
    all indices used, length <= 6, strands <= 3, against the solver."""
    ctx = SolveContext()
    for strands in (2, 3):
        for length in range(1, 7):
            for letters in itertools.product(range(1, strands), repeat=length):
                if set(letters) != set(range(1, strands)):
                    continue
                w = BraidWord(strands, letters)
                res = compute_td(braid_closure(w), ctx=ctx)
                assert res.is_exact and res.value == positive_braid_td(w), w


def test_solver_lower_respects_word_upper():
    ctx = SolveContext()
    for word in ["p=2: 1 1 1", "p=3: 1 -2 1 -2", "p=3: 1 -2 1 -2 1"]:
        w = parse_braid(word)
        res = compute_td(braid_closure(w), braid_words=[w], ctx=ctx)
        assert res.link_lower <= mixed_braid_upper([w]), word
