"""Braid words, their closures, and depth bounds read off the word.

A word on p strands is written ``p=3: 1 -2 1 -2`` — positive integer k
for the generator crossing strands k and k+1 with strand k passing over,
negative for the inverse.  Closures are built directly as oriented
diagrams: each letter contributes one crossing, and the plat-free wiring
glues each strand's bottom end back to its top, keeping the top arc's
label as simplify's removals keep the label of the arc leaving a run,
before one renumbering in walk order.

For a one-signed word using every generator index the closure's depth is
the exact value ``length - strands + 1``; for mixed words that quantity
plus the minority-sign count is an upper bound, and taking the minimum
over several words for the same link tightens it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .diagram import OrientedDiagram, renormalize


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_strands; letters are nonzero generator indices."""

    strands: int
    letters: tuple[int, ...]
    # counted once, from the letters: not part of equality, hash or repr
    positives: int = field(init=False, repr=False, compare=False)
    negatives: int = field(init=False, repr=False, compare=False)
    _indices_used: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.strands < 2:
            raise ValueError(f"braid needs at least 2 strands, got {self.strands}")
        if not self.letters:
            raise ValueError("empty braid word")
        for g in self.letters:
            if g == 0 or abs(g) > self.strands - 1:
                raise ValueError(
                    f"generator index {g} out of range for {self.strands} strands"
                )
        positives = sum(g > 0 for g in self.letters)
        object.__setattr__(self, "positives", positives)
        object.__setattr__(self, "negatives", len(self.letters) - positives)
        object.__setattr__(self, "_indices_used", len({abs(g) for g in self.letters}))

    @property
    def length(self) -> int:
        return len(self.letters)

    def all_indices_used(self) -> bool:
        return self._indices_used == self.strands - 1

    def __str__(self) -> str:
        return f"p={self.strands}: " + " ".join(str(g) for g in self.letters)


_HEAD_RE = re.compile(r"^p\s*=\s*(\d+)\s*:\s*(.*)$")


def parse_braid(text: str) -> BraidWord:
    """Parse ``p=N: g1 g2 ...``; raises ValueError with the offending token."""
    m = _HEAD_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed braid word (expected 'p=N: ...'): {text!r}")
    strands = int(m.group(1))
    letters = []
    for tok in m.group(2).split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"bad braid letter {tok!r} in {text!r}") from None
    return BraidWord(strands, tuple(letters))


def braid_closure(w: BraidWord) -> OrientedDiagram:
    """Oriented diagram of the braid closure, all strands running downward.

    Strand positions carry the label of the arc currently entering them;
    position q starts with the provisional label strands + 1 - q, and the
    letters' fresh arcs are labeled from strands + 2 up, so every label
    is positive and below the first one left unused, which bounds the
    renumbering's lists.  The arc leaving position q at the bottom runs
    round the closure into its top, and the two join as simplify's
    removals join a run of arcs: the run keeps the label of the arc
    leaving it, position q's provisional one, written back where the
    bottom arc left its last crossing.  A position never visited by a
    letter closes to a free loop.  The result is renumbered once, in
    walk order.

    For a positive letter at positions (q, q+1) the left strand passes
    over; with L/R the incoming labels and n1/n2 = the two fresh arcs
    leaving at south-west/south-east, the crossing reads (R, L, n1, n2)
    with positive sign.  For a negative letter the left strand dives
    under: (L, n1, n2, R) with negative sign.
    """
    base = w.strands + 1
    cur = {q: base - q for q in range(1, w.strands + 1)}
    nxt = base + 1
    crossings = []
    for g in w.letters:
        i = abs(g)
        left, right = cur[i], cur[i + 1]
        n1, n2 = nxt, nxt + 1
        nxt += 2
        if g > 0:
            crossings.append((right, left, n1, n2, 1))
        else:
            crossings.append((left, n1, n2, right, -1))
        cur[i], cur[i + 1] = n1, n2
    top = {cur[q]: base - q for q in cur if cur[q] != base - q}  # bottom label -> its top label
    get = top.get
    crossings = [(a, get(b, b), get(c, c), get(d, d), sign) for a, b, c, d, sign in crossings]
    return renormalize(crossings, w.strands - len(top), nxt)


def positive_braid_td(w: BraidWord) -> int:
    """Exact depth of a one-signed braid closure: length - strands + 1.

    Rejects mixed-sign words (no exactness there) and words skipping a
    generator index (the closure splits and the count is off).
    """
    if w.positives and w.negatives:
        raise ValueError("mixed-sign braid word: exact formula needs one sign")
    if not w.all_indices_used():
        raise ValueError("braid word skips a generator index; closure is split")
    return w.length - w.strands + 1


def mixed_braid_upper(words: list[BraidWord]) -> int:
    """Depth upper bound from braid presentations: min over the given words
    of length - strands + 1 + min(positives, negatives).

    All words must present the same link for the minimum to mean anything;
    that is the caller's promise.
    """
    if not words:
        raise ValueError("empty word list")
    for w in words:
        if not w.all_indices_used():
            raise ValueError(
                f"braid word skips a generator index; closure is split: {w}"
            )
    return min(w.length - w.strands + 1 + min(w.positives, w.negatives) for w in words)
