"""Certified lower and upper estimates for the resolution depth of a link.

Lower bounds read off the polynomial live in one place,
:func:`polynomial_contributions`: the top z-degree (with a floor of 1
unless the polynomial is the unlink value) and skein reachability (the
polynomial is not one that any link of depth <= d with the same
component count can have, see :func:`skein_reachable`).  The bound
report lists each of them, and the search in :mod:`.solver` prunes with
their maximum, :func:`polynomial_lower_bound`.  Genus and component
count give 2g + r - 1.  Upper bounds come from the simplified crossing
number minus one and from braid presentations.  ``aggregate_bounds``
collects every applicable estimate into one report; the search then
only has to close the gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .braid import mixed_braid_upper, positive_braid_td
from .diagram import OrientedDiagram, component_count, simplify
from .poly import HomflyCache, LaurentPoly2, homfly, skein_value, unlink_value

# deepest reachability table consulted: depth 2 builds in milliseconds,
# depth 3 takes about 70 times longer for little extra reach
REACH_DEPTH = 2


@dataclass(frozen=True)
class BoundsReport:
    """Best lower/upper depth estimates plus every contributing bound.

    contributions holds (bound name, value, "lower"|"upper") triples in
    the order they were considered; lower is their max, upper their min.
    """

    lower: int
    upper: int
    contributions: tuple[tuple[str, int, str], ...]

    def render_row(self, name: str) -> str:
        parts = ",".join(f"{n}={v}({kind})" for n, v, kind in self.contributions)
        return f"{name}\t{self.lower}\t{self.upper}\t{parts}"


def genus_lower_bound(genus: int, components: int) -> int:
    """Depth is at least 2g + r - 1 for a nontrivial link of genus g with r components."""
    if genus < 0:
        raise ValueError(f"negative genus {genus}")
    if components < 1:
        raise ValueError(f"need at least one component, got {components}")
    return 2 * genus + components - 1


def homfly_lower_bound(d: OrientedDiagram, cache: HomflyCache | None = None) -> int:
    """The z-degree bound of :func:`polynomial_contributions` for the link of d.

    Crossingless inputs are rejected outright.
    """
    s = simplify(d)
    if s.is_crossingless():
        raise ValueError("diagram simplifies to an unlink; lower bound floor does not apply")
    return _z_degree_bound(homfly(s, cache), component_count(s))


@functools.cache
def skein_reachable(depth: int, components: int) -> frozenset[LaurentPoly2]:
    """Every HOMFLY-PT value a link of r = components components and
    depth <= depth can have.

    A tree of height 0 is an unlink.  Resolving a crossing of a link L
    gives P(L) from P(switch) and P(smooth) by the skein identity
    (:func:`.poly.skein_value`) of the crossing's sign; the switch child
    keeps the r components and the smoothing child has r - 1 or r + 1.
    So the set for depth d is the set for d - 1 plus both skein
    combinations of a depth d - 1 value with r components and one with
    r +- 1 components, the r - 1 term only when r > 1.  The recursion
    reaches component counts up to r + depth, never truncated.
    """
    if components < 1:
        raise ValueError(f"need at least one component, got {components}")
    if depth == 0:
        return frozenset((unlink_value(components),))
    same = skein_reachable(depth - 1, components)
    other = skein_reachable(depth - 1, components + 1)
    if components > 1:
        other = other | skein_reachable(depth - 1, components - 1)
    out = set(same)
    for p in same:
        for q in other:
            out.add(skein_value(1, p, q))
            out.add(skein_value(-1, p, q))
    return frozenset(out)


def skein_reach_lower_bound(p: LaurentPoly2, components: int) -> int:
    """Least d <= REACH_DEPTH with p in skein_reachable(d, components),
    else REACH_DEPTH + 1.

    A link with polynomial p and that many components has depth at least
    this value: a tree of height d would put p in the depth-d set.
    """
    for d in range(REACH_DEPTH + 1):
        if p in skein_reachable(d, components):
            return d
    return REACH_DEPTH + 1


def _z_degree_bound(p: LaurentPoly2, components: int) -> int:
    # the floor of 1 needs a nontriviality certificate, which the
    # polynomial itself supplies unless it matches the unlink value
    floor = 1 if p != unlink_value(components) else 0
    return max(p.z_degree(), floor)


def polynomial_contributions(p: LaurentPoly2, components: int) -> tuple[tuple[str, int], ...]:
    """Named lower bounds on the depth of a link with polynomial p and
    that many components, in the order the bound report lists them."""
    return (
        ("homfly z-degree", _z_degree_bound(p, components)),
        ("skein reachability", skein_reach_lower_bound(p, components)),
    )


def polynomial_lower_bound(p: LaurentPoly2, components: int) -> int:
    """The best lower bound the polynomial alone proves: the largest of
    :func:`polynomial_contributions`."""
    return max(value for _, value in polynomial_contributions(p, components))


def aggregate_bounds(
    d: OrientedDiagram,
    genus: int | None = None,
    braid_words=None,
    cache: HomflyCache | None = None,
) -> BoundsReport:
    """Combine every applicable depth estimate for the link of d.

    genus, when given, is the caller's knowledge of the genus of the
    link; braid_words, when given, is a list of BraidWord presentations
    of the same link.  Both are trusted as stated.  A one-signed word
    using all its generator indices pins the depth exactly, so it enters
    on both sides.
    """
    s = simplify(d)
    if s.is_crossingless():
        raise ValueError("diagram simplifies to an unlink; every tree has depth 0")
    r = component_count(s)
    p = homfly(s, cache)

    contribs: list[tuple[str, int, str]] = []
    lowers: list[int] = []
    uppers: list[int] = []

    def add(name: str, value: int, kind: str):
        contribs.append((name, value, kind))
        (lowers if kind == "lower" else uppers).append(value)

    for name, value in polynomial_contributions(p, r):
        add(name, value, "lower")
    if genus is not None:
        add("genus-components", genus_lower_bound(genus, r), "lower")
    add("crossing count", s.crossing_count - 1, "upper")
    if braid_words:
        add("mixed braid", mixed_braid_upper(list(braid_words)), "upper")
        exact = None
        for w in braid_words:
            if w.all_indices_used() and (w.positives == 0 or w.negatives == 0):
                v = positive_braid_td(w)
                exact = v if exact is None else min(exact, v)
        if exact is not None:
            add("one-signed braid", exact, "lower")
            add("one-signed braid", exact, "upper")
    return BoundsReport(max(lowers), min(uppers), tuple(contribs))
