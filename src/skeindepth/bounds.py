"""Certified lower and upper estimates for the resolution depth of a link.

Lower bounds read off the polynomial live in one place,
:func:`polynomial_contributions`, and the bound report lists each of
them; the search in :mod:`.solver` prunes with their maximum,
:func:`polynomial_lower_bound`.  With d the z-degree of P:

* homfly z-degree: max(d, 1), or 0 when P is the unlink value.  A tree
  of height h gives P a z-degree of at most h, since each skein step
  raises it by at most one and an unlink leaf has z-degree <= 0.
* leading coefficient: d when ``[z^d]P`` is the single term
  ``(-1)^((d - m)/2) a^m`` with |m| <= d (so m = d mod 2), d + 1 for any
  other coefficient, and 0 when d < 0.  In a tree of height <= h the
  switch child of the root has height <= h - 1 and so adds nothing to
  ``[z^h]P``; the smoothing child adds ``a z`` (positive crossing) or
  ``-a^-1 z`` (negative) times its own ``[z^(h-1)]``, and so on down to
  a leaf, which leaves 1 (the unknot at h = 0) or 0.  So ``[z^h]P`` of a
  link of depth <= h is 0 or that signed monomial, and a link of depth
  exactly d has the monomial on top.  This is the leading-term
  bookkeeping of Morton, "Seifert circles and knot polynomials" (1986),
  which also gives the z-degree bound.
* skein reachability: the polynomial is not one that any link of depth
  <= d with the same component count can have, see
  :func:`skein_reachable`.  The values of depth <= d have z-degree
  <= d, so the tables are read from P's z-degree up, and a P of
  z-degree above REACH_DEPTH reads none.

The z-degree bound compares P with the unlink value only when P has
the unlink's z-degree, 1 - r.  ``aggregate_bounds`` keeps its two ends
as the contributions are listed, and a contradiction names the first
listed contribution of each end's value.

Genus and component count give 2g + r - 1.  Upper bounds come from the
simplified crossing number minus one and from braid presentations.
``aggregate_bounds`` collects every applicable estimate into one
report; the search then only has to close the gap.
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
    p = homfly(s, cache)
    return _z_degree_bound(p, p.z_degree(), component_count(s))


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


def skein_reach_lower_bound(p: LaurentPoly2, components: int, degree: int | None = None) -> int:
    """Least d <= REACH_DEPTH with p in skein_reachable(d, components),
    else REACH_DEPTH + 1.

    A link with polynomial p and that many components has depth at least
    this value: a tree of height d would put p in the depth-d set.  Every
    value in the depth-d set has z-degree <= d (an unlink's is 1 - r,
    and each skein step raises it by at most one), so the tables are
    read from p's z-degree up, degree when the caller has it already: a
    p of z-degree above REACH_DEPTH reads none.
    """
    if degree is None:
        degree = p.z_degree()
    for d in range(max(degree, 0), REACH_DEPTH + 1):
        if p in skein_reachable(d, components):
            return d
    return REACH_DEPTH + 1


def _z_degree_bound(p: LaurentPoly2, degree: int, components: int) -> int:
    # the floor of 1 needs a nontriviality certificate, which the
    # polynomial itself supplies unless it matches the unlink value,
    # whose z-degree is 1 - components
    if degree >= 1:
        return degree
    if degree != 1 - components:
        return 1
    return 0 if p == unlink_value(components) else 1


def _leading_coefficient_bound(degree: int, top: dict[int, int]) -> int:
    """The leading-coefficient bound of a polynomial with z-degree degree
    and coefficient top of z^degree, as {a exponent: coefficient}."""
    if degree < 0:
        return 0
    if len(top) == 1:
        ((m, c),) = top.items()
        if abs(m) <= degree and (degree - m) % 2 == 0 and c == (-1) ** ((degree - m) // 2):
            return degree
    return degree + 1


def polynomial_contributions(p: LaurentPoly2, components: int) -> tuple[tuple[str, int], ...]:
    """Named lower bounds on the depth of a link with polynomial p and
    that many components, in the order the bound report lists them."""
    degree, top = p.z_top()
    return (
        ("homfly z-degree", _z_degree_bound(p, degree, components)),
        ("leading coefficient", _leading_coefficient_bound(degree, top)),
        ("skein reachability", skein_reach_lower_bound(p, components, degree)),
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
    of the same link.  Both are trusted as stated here; the solver and
    the CLI's bounds verb check each one-signed word against the link
    first (:func:`.solver.check_braid_words`).  Each word must use
    all its generator indices (:func:`.braid.mixed_braid_upper` raises
    otherwise); a one-signed word pins the depth exactly, so it enters
    on both sides.  Sound bounds never cross, so a largest lower bound
    above the smallest upper bound raises ValueError naming both.
    """
    s = simplify(d)
    if s.is_crossingless():
        raise ValueError("diagram simplifies to an unlink; every tree has depth 0")
    r = component_count(s)
    p = homfly(s, cache)

    # no depth bound is negative; a contradiction names the first listed
    # contribution of each end's value
    contribs = []
    lower = 0
    for name, value in polynomial_contributions(p, r):
        contribs.append((name, value, "lower"))
        if value > lower:
            lower = value
    if genus is not None:
        contribs.append(("genus-components", genus_lower_bound(genus, r), "lower"))
        lower = max(lower, contribs[-1][1])
    upper = s.crossing_count - 1
    contribs.append(("crossing count", upper, "upper"))
    words = list(braid_words or ())
    if words:
        contribs.append(("mixed braid", mixed_braid_upper(words), "upper"))
        upper = min(upper, contribs[-1][1])
        signed = [positive_braid_td(w) for w in words if w.positives == 0 or w.negatives == 0]
        if signed:
            exact = min(signed)
            contribs.append(("one-signed braid", exact, "lower"))
            contribs.append(("one-signed braid", exact, "upper"))
            lower, upper = max(lower, exact), min(upper, exact)
    if lower > upper:
        lo = next(n for n, v, kind in contribs if kind == "lower" and v == lower)
        hi = next(n for n, v, kind in contribs if kind == "upper" and v == upper)
        raise ValueError(f"contradictory bounds: {lo} lower bound {lower} exceeds {hi} upper bound {upper}")
    return BoundsReport(lower, upper, tuple(contribs))
