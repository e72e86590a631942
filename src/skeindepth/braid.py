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

:class:`BraidStates` computes the HOMFLY-PT polynomial of a one-signed
word's closure, and a skein tree of the word's closures, from the
states of the word, with no diagram built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .diagram import OrientedDiagram, renormalize
from .poly import LaurentPoly2, skein_value, unlink_value
from .tree import BraidBranch, BraidLeaf, SkeinTree


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


# -- the braid-state expansion -------------------------------------------------

# a permutation of the strand positions 0..p-1: the starting position of
# the strand at each position
Perm = tuple[int, ...]


def word_permutation(letters: tuple[int, ...], strands: int) -> Perm | None:
    """The permutation the letters' indices spell; None when two
    strands cross twice in the word.  A word of one sign without a
    double crossing is reduced, and the permutation braid it spells
    depends on this permutation alone: any two reduced words of one
    permutation are related by braid relations (Matsumoto's theorem)."""
    w = list(range(strands))
    for g in letters:
        i = abs(g) - 1
        a, b = w[i], w[i + 1]
        if a > b:
            return None
        w[i], w[i + 1] = b, a
    return tuple(w)


def reduced_word(perm: Perm) -> tuple[int, ...]:
    """The reduced word of perm, as positive generator indices, read off
    an insertion sort: each swap of an inverted adjacent pair is one
    letter, and the word is the sort's letters in reverse order."""
    w = list(perm)
    out = []
    i = 0
    while i < len(w) - 1:
        if w[i] > w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
            out.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(reversed(out))


def _conjugated(u: Perm, s: int) -> tuple[Perm, int]:
    """s u s for the 0-based generator s, and its length less u's (-2, 0
    or 2): u s swaps positions s and s + 1, s (u s) the values s and
    s + 1, and each swap adds or removes the one inversion between the
    two it swaps."""
    v = list(u)
    a, b = v[s], v[s + 1]
    delta = -1 if a > b else 1
    v[s], v[s + 1] = b, a
    p, q = v.index(s), v.index(s + 1)
    delta += -1 if q < p else 1
    v[p], v[q] = s + 1, s
    return tuple(v), delta


def _cycles(perm: Perm) -> int:
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


Entry = tuple[LaurentPoly2, int, SkeinTree]


class BraidStates:
    """The braid-state expansion of one-signed braid closures, with its
    tables, which a SolveContext owns.

    A state is (w, unread letters): w is the permutation of the
    permutation braid read so far, beta_w, all of the word's sign.  A
    letter whose strands have not crossed in w extends w.  A letter whose
    strands have crossed is the second of sigma sigma, as beta_w is
    beta_(w s) sigma; that second letter is resolved into (w s, rest),
    its switch, which cancels the pair, and (w, rest), its smoothing,
    which deletes it.  At the end of the word the closure of beta_w is
    left, and its trace is read off w's cyclic-shift class, the
    conjugations s u s that keep the length: where some u in it has
    l(s u s) = l(u) - 2, beta_u is conjugate to beta_v sigma_s sigma_s
    with v = s u s, which resolves into the traces of v and v s.  Where
    none has, w has minimal length in its conjugacy class (Geck and
    Pfeiffer, "Characters of finite Coxeter groups and Iwahori-Hecke
    algebras", 2000, ch. 3), and the closure is the unlink with one
    component per cycle of w.  A negative word is the mirror of a
    positive one, read by the same rules with the negative skein
    identity.

    Each node of the tree is a word-level node (:class:`.tree.BraidBranch`,
    :class:`.tree.BraidLeaf`) whose word depends on its state alone, so
    a state's subtree is shared by every parent.  states maps (w,
    suffix), the suffix starting at the resolved letter, to the state's
    entry ``(value, height, tree)``; traces maps (w, sign) to the entry
    of the closure of beta_w, one entry per cyclic-shift class; classes
    maps each permutation met to its class.
    """

    def __init__(self):
        self.states: dict[tuple[Perm, tuple[int, ...]], Entry] = {}
        self.traces: dict[tuple[Perm, int], Entry] = {}
        self.classes: dict[Perm, tuple[frozenset, tuple[Perm, int] | None]] = {}

    def expand(self, w: BraidWord) -> Entry:
        """The entry of the closure of the one-signed word w: its
        HOMFLY-PT value, and the height and tree of its expansion.  The
        tree's root carries neither a diagram nor w."""
        return self._read(tuple(range(w.strands)), w.letters, 1 if w.positives else -1)

    def _read(self, perm: Perm, suffix: tuple[int, ...], sign: int) -> Entry:
        """The entry of state (perm, suffix): the letters that extend
        perm are read, up to the first whose strands have crossed."""
        w = list(perm)
        for k, g in enumerate(suffix):
            i = abs(g) - 1
            a, b = w[i], w[i + 1]
            if a > b:
                return self._branch(tuple(w), suffix[k:], sign)
            w[i], w[i + 1] = b, a
        return self._trace(tuple(w), sign)

    def _branch(self, w: Perm, suffix: tuple[int, ...], sign: int) -> Entry:
        """The entry of a state whose next letter, suffix[0], is resolved;
        its node word is a reduced word of w ending in that letter, then
        suffix."""
        entry = self.states.get((w, suffix))
        if entry is None:
            g = suffix[0]
            i = abs(g) - 1
            ws = list(w)
            ws[i], ws[i + 1] = ws[i + 1], ws[i]
            ws = tuple(ws)
            p_sw, h_sw, t_sw = self._read(ws, suffix[1:], sign)
            p_sm, h_sm, t_sm = self._read(w, suffix[1:], sign)
            prefix = tuple(sign * j for j in reduced_word(ws)) + (g,)
            tree = BraidBranch(None, len(prefix), t_sw, t_sm, len(w), prefix + suffix)
            entry = self.states[w, suffix] = skein_value(sign, p_sw, p_sm), 1 + max(h_sw, h_sm), tree
        return entry

    def _trace(self, w: Perm, sign: int) -> Entry:
        """The entry of the closure of beta_w, stored for w's whole
        cyclic-shift class.  A branch's word is a reduced word of v, then
        sigma_s twice; a leaf's is a reduced word of an element of the
        class in which no letter repeats, where there is one, which
        simplify unknots letter by letter."""
        entry = self.traces.get((w, sign))
        if entry is None:
            cls, found = self.shift_class(w)
            n = len(w)
            if found is None:
                words = map(reduced_word, sorted(cls))
                word = next((r for r in words if len(set(r)) == len(r)), reduced_word(w))
                r = _cycles(w)
                entry = unlink_value(r), 0, BraidLeaf(None, r, n, tuple(sign * j for j in word))
            else:
                u, s = found
                v = _conjugated(u, s)[0]
                vs = list(v)
                vs[s], vs[s + 1] = vs[s + 1], vs[s]
                p_sw, h_sw, t_sw = self._trace(v, sign)
                p_sm, h_sm, t_sm = self._trace(tuple(vs), sign)
                word = tuple(sign * j for j in reduced_word(v) + (s + 1, s + 1))
                tree = BraidBranch(None, len(word) - 1, t_sw, t_sm, n, word)
                entry = skein_value(sign, p_sw, p_sm), 1 + max(h_sw, h_sm), tree
            for u in cls:
                self.traces[u, sign] = entry
        return entry

    def shift_class(self, w: Perm) -> tuple[frozenset, tuple[Perm, int] | None]:
        """w's cyclic-shift class, every permutation reached from w by
        conjugations s u s that keep the length, and the least (u, s) in
        it with l(s u s) = l(u) - 2, or None.  The closures of the class's
        permutation braids of one sign are isotopic: where l(s u) < l(u),
        beta_u = sigma_s beta_(s u) and beta_(s u s) = beta_(s u) sigma_s,
        and the other case is its mirror image."""
        known = self.classes.get(w)
        if known is None:
            seen = {w}
            todo = [w]
            found = None
            while todo:
                u = todo.pop()
                for s in range(len(u) - 1):
                    v, delta = _conjugated(u, s)
                    if delta == 0 and v not in seen:
                        seen.add(v)
                        todo.append(v)
                    elif delta < 0 and (found is None or (u, s) < found):
                        found = u, s
            known = frozenset(seen), found
            for u in seen:
                self.classes[u] = known
        return known

    def reaches(self, before: tuple[int, ...], after: tuple[int, ...], strands: int) -> bool:
        """Is after reached from before, two words of one sign on strands
        strands, by braid moves that keep the closure's link?  Either:

        * after ends as before does, and what comes before that common
          suffix is in both a reduced word of one permutation: the
          prefix is swapped for an equal permutation braid; or
        * before is a reduced word, and after, or after with its last
          letter moved to the front (a conjugation), is a reduced word
          of a permutation in before's cyclic-shift class.
        """
        if before == after:
            return True
        k = 0
        while k < len(before) and k < len(after) and before[-1 - k] == after[-1 - k]:
            k += 1
        x = word_permutation(before[: len(before) - k], strands)
        if x is not None and x == word_permutation(after[: len(after) - k], strands):
            return True
        w = word_permutation(before, strands)
        if w is None:
            return False
        cls = self.shift_class(w)[0]
        rotated = after[-1:] + after[:-1]
        return word_permutation(after, strands) in cls or word_permutation(rotated, strands) in cls
