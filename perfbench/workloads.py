"""Seeded benchmark inputs, with expected values worked out here.

Nothing in this module imports skeindepth: words are plain
``(strands, letters)`` tuples and the expected values come from the
bundled table's ``expected`` column and from the braid formulas, so the
checker compares the solver against numbers it did not produce.

Workloads (the solver sees only the diagrams and words):

* ``known-table`` -- the bundled rows plus positive torus closures, each
  with a known value.  Fixed inputs; the seed changes nothing.
* ``random-mixed`` -- a fixed pool of mixed-sign 3- and 4-strand words,
  in an order drawn from the seed, one ``SolveContext`` per pass; every
  second pass reverses the order of the pass before it.
* ``warm-extend`` -- the same draw; a fixed seeded half is solved cold
  in set-up and persisted, then the whole draw is solved from that cache.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

BUNDLED_PATH = os.path.join("src", "skeindepth", "datasets", "bundled.tsv")
# per-pass input datasets and warm-extend cache files, under the checkout
WORK_DIR = ".perfbench_work"

# T(p, q) as the closure of (s1 ... s_{p-1})^q.  T(3,6), T(3,7) and
# (s1 s2 s3)^4 are left out as too slow at this commit: see README.md.
TORUS = [(2, q) for q in range(3, 14)] + [(3, 3), (3, 4), (3, 5), (4, 2), (4, 3)]

RANDOM_STRANDS = (3, 4)
RANDOM_LENGTHS = (7, 10)
WORKLOADS = ("known-table", "random-mixed", "warm-extend")
# random-mixed solves these words of random_mixed_words(POOL_SEED, .) in
# every pass.  Each took under 2.5 s to solve and replay at the commit
# that defined the benchmark; fresh draws per seed hit single words that
# ran for minutes (canonical_code inside the unlink BFS).
POOL_SEED = 1
POOL_SIZE = 160
# draws warm-extend's cached half, the same in every run
HALF_SEED = 0

Word = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Link:
    """One solve request and what is known about its answer.

    ``pd`` is the bundled PD text, or None when the diagram is the
    closure of ``words[0]``.  ``expected`` is a closed interval that
    holds the true depth; ``formula_upper`` is the braid-word bound
    ``min(length - strands + 1 + min(c+, c-))`` over ``words``.
    """

    name: str
    pd: str | None
    genus: int | None
    words: tuple[Word, ...]
    expected: tuple[int, int] | None
    formula_upper: int | None


def word_text(w: Word) -> str:
    strands, letters = w
    return f"p={strands}: " + " ".join(str(g) for g in letters)


def parse_word(text: str) -> Word:
    head, _, body = text.partition(":")
    strands = int(head.strip().removeprefix("p").strip().removeprefix("=").strip())
    return strands, tuple(int(t) for t in body.split())


def formula(w: Word) -> tuple[int, bool]:
    """(upper bound, exact?) from a word that uses every generator index.

    One-signed: exactly ``length - strands + 1``.  Mixed: at most that
    plus the minority-sign count.
    """
    strands, letters = w
    pos = sum(1 for g in letters if g > 0)
    neg = len(letters) - pos
    base = len(letters) - strands + 1
    if pos == 0 or neg == 0:
        return base, True
    return base + min(pos, neg), False


def _uses_every_generator(w: Word) -> bool:
    strands, letters = w
    return {abs(g) for g in letters} == set(range(1, strands))


def _link_from_words(name, pd, genus, words, expected) -> Link:
    usable = [w for w in words if _uses_every_generator(w)]
    upper = min((formula(w)[0] for w in usable), default=None)
    if expected is None:
        exact = [formula(w)[0] for w in usable if formula(w)[1]]
        if exact:
            expected = (min(exact), min(exact))
    return Link(name, pd, genus, tuple(words), expected, upper)


def _parse_expected(cell: str) -> tuple[int, int] | None:
    cell = cell.strip()
    if not cell:
        return None
    if cell.startswith("["):
        lo, hi = cell.strip("[]").split(",")
        return int(lo), int(hi)
    return int(cell), int(cell)


def bundled_rows(root: str) -> list[Link]:
    """The bundled table's rows with their own ``expected`` column."""
    links = []
    with open(os.path.join(root, BUNDLED_PATH), encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cells = line.rstrip("\n").split("\t") + [""] * 5
            name, pd, genus, braids, expected = (c.strip() for c in cells[:5])
            words = [parse_word(t) for t in braids.split(";") if t.strip()]
            links.append(
                _link_from_words(
                    name,
                    pd or None,
                    int(genus) if genus else None,
                    words,
                    _parse_expected(expected),
                )
            )
    return links


def torus_links() -> list[Link]:
    links = []
    for p, q in TORUS:
        w = (p, tuple(range(1, p)) * q)
        links.append(_link_from_words(f"T({p},{q}) closure", None, None, [w], None))
    return links


def random_mixed_word(rng: random.Random) -> Word:
    """A mixed-sign word on 3 or 4 strands, length 7-10, using every generator."""
    while True:
        strands = rng.choice(RANDOM_STRANDS)
        length = rng.randint(*RANDOM_LENGTHS)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        )
        w = (strands, letters)
        if _uses_every_generator(w) and min(letters) < 0 < max(letters):
            return w


def random_mixed_words(seed: int, count: int) -> list[Word]:
    rng = random.Random(seed)
    return [random_mixed_word(rng) for _ in range(count)]


def pool() -> list[Word]:
    return random_mixed_words(POOL_SEED, POOL_SIZE)


def random_draw(seed: int, pass_index: int) -> list[Link]:
    """Every pool word once, in an order drawn from (seed, pass_index // 2).

    Each pass solves the whole pool: per-word times span three orders of
    magnitude, so a seeded subset would change a run's total by more
    than the benchmark's bounds.

    An odd pass solves the order of the even pass before it reversed.
    In one context a word is solved in about 1 ms when a word before it
    left the polynomials it needs, and in 4-10 ms when it comes first,
    so with independent orders per pass the p50 sat in a gap that moved
    with the draw.  Reversing puts each word of a pair before the other
    once.  Drawn from 12 recorded passes, the spread of p50 over ten runs
    was 0.12-0.14 for three or four independent orders and 0.035 for two
    reversed pairs.
    """
    words = pool()
    order = list(range(len(words)))
    random.Random(seed * 1_000_003 + pass_index // 2).shuffle(order)
    if pass_index % 2:
        order.reverse()
    return [
        _link_from_words(f"pool[{i}] {word_text(words[i])}", None, None, [words[i]], None)
        for i in order
    ]


def cold_half(links: list[Link]) -> list[int]:
    """Positions in ``links`` that warm-extend solves cold in set-up.

    The half is drawn once, from HALF_SEED, so every run caches the same
    words.  Which words are cached decides which warm solves hit the
    persisted-interval ``KeyError``; a half drawn from the run's seed
    moved ``links_per_s`` by a third between seeds.
    """
    cached = set(random.Random(HALF_SEED).sample(pool(), POOL_SIZE // 2))
    return [i for i, link in enumerate(links) if link.words[0] in cached]


def links_for(workload: str, seed: int, pass_index: int, root: str) -> list[Link]:
    if workload == "known-table":
        return bundled_rows(root) + torus_links()
    if workload in ("random-mixed", "warm-extend"):
        return random_draw(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")
