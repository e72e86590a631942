"""Exact Laurent polynomial arithmetic in the variables a and z.

Everything downstream (HOMFLY-PT values, Conway specializations, degree
bounds) is built on :class:`LaurentPoly2`: a sparse map from exponent
pairs ``(a_exp, z_exp)`` to nonzero integer coefficients.  No floats
anywhere; equality is exact map equality.  Instances are immutable and
hashable, so they can be shared freely between threads and used as cache
values.  The public constructor checks its coefficients and drops zeros;
the arithmetic here builds its term dicts without zeros itself and wraps
them with the private ``LaurentPoly2._of``, which checks nothing.

The skein identity at a crossing multiplies its two known values by
monomials only, so :func:`skein_value` computes one merge of two
exponent-shifted term dicts, with no polynomials in between.
:func:`unlink_value` is the binomial expansion of ``DELTA ** (r - 1)``.

:func:`homfly` computes the HOMFLY-PT polynomial by a skein expansion
that resolves each diagram, split or not, at a defect crossing into
simplified children, down to descending diagrams.  The defect is the
first, in walk order, whose simplified switch sheds crossings, or the
first defect when none does, so the switch child is smaller where it
can be.  That expansion is a skein resolution tree, and
:class:`HomflyCache` keeps one entry per code, ``(value, height,
tree)``.  A value has one of two sources: the expansion, which records
its tree, or a cache file, which records none: a loaded value is an
entry without a tree.  It answers a call of :func:`homfly` on its code,
but :func:`expansion`, the one recursion, resolves a code whose entry
has no tree as it would any other, a child included: the depth search
calls it on each node it reaches with a loaded value that no loaded
record answers.  So every value the expansion computes has its tree.
"""

from __future__ import annotations

from math import comb
from typing import Mapping

from .diagram import (
    OrientedDiagram,
    canonical_code,
    component_count,
    defects,
    simplify,
    smooth,
    switch,
    switch_sheds,
)
from .tree import SkeinBranch, SkeinLeaf, SkeinTree


def _merged(
    out: dict[tuple[int, int], int], terms: Mapping[tuple[int, int], int], da: int, dz: int, sign: int
) -> dict[tuple[int, int], int]:
    """out plus sign * a^da z^dz * terms, merged into out, which is returned.

    Both are term dicts without zeros, and so is the result: a sum that
    cancels drops its key.  sign is any nonzero int, so a product is one
    merge per term of a factor.
    """
    for (ae, ze), c in terms.items():
        key = (ae + da, ze + dz)
        s = out.get(key, 0) + sign * c
        if s:
            out[key] = s
        else:
            del out[key]  # c is not zero, so key was in out
    return out


class LaurentPoly2:
    """Integer Laurent polynomial in a and z (exponents may be negative)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] = {}):  # the default is only read
        clean: dict[tuple[int, int], int] = {}
        for (ae, ze), coeff in terms.items():
            # exactly int: a bool would render as True, which parse_poly rejects
            if type(coeff) is not int:
                raise TypeError("coefficients must be ints, got %r" % (coeff,))
            if type(ae) is not int or type(ze) is not int:
                raise TypeError("exponents must be ints, got %r" % ((ae, ze),))
            if coeff:
                clean[ae, ze] = coeff
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, terms: dict[tuple[int, int], int]) -> "LaurentPoly2":
        """The private constructor: wraps terms as they are.

        For term dicts this module built itself, with int exponents, int
        coefficients and no zero among them; the dict is not copied.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("LaurentPoly2 is immutable")

    # -- container-ish access -------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def coeff(self, a_exp: int, z_exp: int) -> int:
        return self._terms.get((a_exp, z_exp), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return LaurentPoly2._of(_merged(dict(self._terms), other._terms, 0, 0, 1))

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return LaurentPoly2._of(_merged(dict(self._terms), other._terms, 0, 0, -1))

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._of(_merged({}, self._terms, 0, 0, -1))

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            # other is the sign of one merge; times 0 is the zero polynomial
            return LaurentPoly2._of(_merged({}, self._terms, 0, 0, other) if other else {})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (ae, ze), c in self._terms.items():
            _merged(out, other._terms, ae, ze, c)
        return LaurentPoly2._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly2":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return "LaurentPoly2(%s)" % render_poly(self)

    # -- structure queries ----------------------------------------------------

    def z_degree(self) -> int:
        """Top z-exponent carrying a nonzero coefficient.

        The zero polynomial has no terms; callers must check is_zero()
        first (we raise to avoid silently inventing a degree).
        """
        return self.z_top()[0]

    def z_top(self) -> tuple[int, dict[int, int]]:
        """The z-degree and the coefficient of z to that power, as
        {a_exp: coeff}, from one pass over the terms.

        Raises ValueError on the zero polynomial, as z_degree does.
        """
        if not self._terms:
            raise ValueError("z_degree of the zero polynomial is undefined")
        degree = None
        top: dict[int, int] = {}
        for (ae, ze), c in self._terms.items():
            if degree is None or ze > degree:
                degree, top = ze, {ae: c}
            elif ze == degree:
                top[ae] = c
        return degree, top

    def mirror(self) -> "LaurentPoly2":
        """The substitution a -> 1/a, z -> -z.

        Exchanging all crossings of a diagram (its mirror image) acts on
        the invariant exactly this way.
        """
        return LaurentPoly2({(-ae, ze): (c if ze % 2 == 0 else -c) for (ae, ze), c in self._terms.items()})


ZERO = LaurentPoly2()
ONE = LaurentPoly2({(0, 0): 1})


def monomial(coeff: int, a_exp: int = 0, z_exp: int = 0) -> LaurentPoly2:
    return LaurentPoly2({(a_exp, z_exp): coeff})


# Value of the r-component unlink: ((1/a - a) / z) ** (r - 1).  The kinked
# unknot forces the 1/z normalization: resolving its crossing relates the
# unknot to the two-component unlink with a z factor in between.
DELTA = LaurentPoly2({(-1, -1): 1, (1, -1): -1})


def unlink_value(components: int) -> LaurentPoly2:
    """DELTA ** (components - 1), from the binomial expansion: with
    n = components - 1, the sum over k of (-1)^k C(n, k) a^(2k-n) z^-n."""
    if components < 1:
        raise ValueError("an unlink has at least one component")
    n = components - 1
    return LaurentPoly2._of({(2 * k - n, -n): (-1) ** k * comb(n, k) for k in range(n + 1)})


def specialize_conway(p: LaurentPoly2) -> dict[int, int]:
    """Substitute a := 1, giving the Conway polynomial as {z_exp: coeff}.

    Raises ValueError if any nonzero term survives at a negative z power;
    for genuine link invariants the 1/z poles cancel at a = 1.
    """
    out: dict[int, int] = {}
    for (_, ze), c in p.terms.items():
        s = out.get(ze, 0) + c
        if s:
            out[ze] = s
        elif ze in out:
            del out[ze]
    bad = [ze for ze in out if ze < 0]
    if bad:
        raise ValueError("residual negative z-exponents after substitution: %s" % sorted(bad))
    return out


# -- canonical text form ------------------------------------------------------
#
# Terms sorted by z-degree ascending, ties broken by a-degree descending,
# matching the fixture form "-1*a^4 + 2*a^2 + 1*a^2*z^2" for the right
# trefoil.  Coefficients keep their sign; exponent 0 factors are omitted.


def _render_term(a_exp: int, z_exp: int, coeff: int) -> str:
    parts = [str(coeff)]
    if a_exp:
        parts.append("a^%d" % a_exp)
    if z_exp:
        parts.append("z^%d" % z_exp)
    return "*".join(parts)


def render_poly(p: LaurentPoly2) -> str:
    if p.is_zero():
        return "0"
    keys = sorted(p.terms, key=lambda k: (k[1], -k[0]))
    return " + ".join(_render_term(a, z, p.coeff(a, z)) for a, z in keys)


def parse_poly(text: str) -> LaurentPoly2:
    """Inverse of render_poly (used when reloading cached results).

    Raises ValueError on text that render_poly never writes and that
    would read as some other polynomial: a term that repeats its
    coefficient, its a^ or its z^ factor, or a monomial in two terms.
    """
    text = text.strip()
    if text == "0":
        return ZERO
    terms: dict[tuple[int, int], int] = {}
    for chunk in text.split(" + "):
        coeff = a = z = None
        for factor in chunk.split("*"):
            factor = factor.strip()
            head = factor[:2]
            if head == "a^":
                if a is not None:
                    raise ValueError("repeated a^ factor in polynomial term: %r" % chunk)
                a = int(factor[2:])
            elif head == "z^":
                if z is not None:
                    raise ValueError("repeated z^ factor in polynomial term: %r" % chunk)
                z = int(factor[2:])
            elif coeff is None:
                coeff = int(factor)
            else:
                raise ValueError("repeated coefficient factor in polynomial term: %r" % chunk)
        if coeff is None:
            raise ValueError("malformed polynomial term: %r" % chunk)
        key = (a or 0, z or 0)
        if key in terms:
            raise ValueError("repeated monomial in polynomial: %r" % chunk)
        terms[key] = coeff
    # the ints read are exactly what the private constructor takes, once
    # a zero coefficient, which render_poly never writes, is dropped
    if 0 in terms.values():
        terms = {key: c for key, c in terms.items() if c}
    return LaurentPoly2._of(terms)


# -- the skein invariant -------------------------------------------------------
#
# Computed by repairing descending order: resolve the diagram at one of
# its defects (diagram.defects), the crossings its walk first enters on
# the under-strand.  Defect-free diagrams are unlinks.  At a positive
# defect  P = a^2 * P(switched) + a*z * P(smoothed),  at a negative one
# P = a^-2 * P(switched) - a^-1*z * P(smoothed).  A split diagram is
# resolved like any other: its defects lie in its parts.
#
# The defect resolved is the first, in walk order, whose switch
# simplify shrinks (diagram.switch_sheds reads that in O(1) per
# defect), or else the first defect; only the chosen switch is built.
# P does not depend on which crossing is resolved.
#
# Both children are simplified before they are expanded, so the
# expansion meets the same diagrams, under the same keys, as the search.
# P is a link invariant, so no value changes.  The recursion still ends:
# smoothing drops a crossing; switching any defect keeps the arcs, hence
# the walk, so it lowers the number of defects by one; and simplify
# either drops crossings or returns its input unchanged.
#
# The expansion is itself a skein resolution tree with descending
# leaves, so each code's entry also holds that tree and its height, an
# upper bound on the code's depth that the search starts from.  A value
# loaded from a cache file comes without a tree, so a child with such a
# value is expanded all the same; the entry it computes replaces the
# loaded one, whose value a correct file gives equal.


class HomflyCache:
    """Memo table keyed by canonical diagram code, with usage counters.

    table holds one entry per code, ``(value, height, tree)``: the
    HOMFLY-PT value, and the height and tree of the expansion that
    computed it.  A value loaded from a cache file is an entry without a
    tree, ``(value, None, None)``, until an expansion or the depth search
    expands its code.  computed counts the entries stored by a skein
    expansion, a loaded value it re-derives included; hits counts the
    calls of :func:`homfly` answered from table and the children an
    expansion found expanded already.  codes holds the canonical code of
    each labeled diagram met, for :meth:`code_of`.
    """

    def __init__(self):
        self.table: dict[str, tuple[LaurentPoly2, int | None, SkeinTree | None]] = {}
        self.codes: dict[tuple[tuple, int], str] = {}
        self.hits = 0
        self.computed = 0

    def code_of(self, d: OrientedDiagram) -> str:
        """canonical_code(d), computed once per labeled diagram: distinct
        objects with the same crossings and free loops share one
        computation.  The code is a function of exactly these two."""
        key = (d.crossings, d.free_loops)
        code = self.codes.get(key)
        if code is None:
            code = self.codes[key] = canonical_code(d)
        return code


def _shifted_sum(
    p: LaurentPoly2, dp: int, q: LaurentPoly2, dq: int, sign: int
) -> LaurentPoly2:
    """a^dp P + sign a^dq z Q, as one merge of the two shifted term dicts."""
    out = {(ae + dp, ze): c for (ae, ze), c in p._terms.items()}
    return LaurentPoly2._of(_merged(out, q._terms, dq, 1, sign))


def skein_value(sign: int, p_switch: LaurentPoly2, p_smooth: LaurentPoly2) -> LaurentPoly2:
    """P of a diagram from P of its switch and of its smoothing at a
    crossing of the given sign.

    The skein identity: at a positive crossing P = a^2 P(switch) +
    a z P(smooth), at a negative one P = a^-2 P(switch) - a^-1 z
    P(smooth).
    """
    if sign > 0:
        return _shifted_sum(p_switch, 2, p_smooth, 1, 1)
    return _shifted_sum(p_switch, -2, p_smooth, -1, -1)


def homfly(d: OrientedDiagram, cache: HomflyCache | None = None) -> LaurentPoly2:
    """The two-variable skein invariant of the link of d.

    The skein expansion recurses on the simplified switch and smoothing
    children of a defect crossing, chosen as the module says.  Results
    are memoized on canonical codes in `cache`, so repeated and nested
    calls stay cheap; without one, the call uses a fresh table of its
    own.  An entry in the table answers at once, loaded or computed.
    """
    if cache is None:
        cache = HomflyCache()
    if not d.is_crossingless():
        entry = cache.table.get(cache.code_of(d))
        if entry is not None:
            cache.hits += 1
            return entry[0]
    return expansion(d, cache)[0]


def expansion(d: OrientedDiagram, cache: HomflyCache) -> tuple[LaurentPoly2, int, SkeinTree]:
    """The entry of d, ``(value, height, tree)``: the stored one when d's
    code has a tree, else d expanded and its entry stored, over a loaded
    value."""
    if d.is_crossingless():
        return unlink_value(d.free_loops), 0, SkeinLeaf(d, d.free_loops)
    key = cache.code_of(d)
    entry = cache.table.get(key)
    if entry is not None and entry[2] is not None:
        cache.hits += 1
        return entry

    found = defects(d)
    if not found:
        r = component_count(d)
        entry = unlink_value(r), 0, SkeinLeaf(d, r)
    else:
        sheds = switch_sheds(d)
        i = next((j for j in found if sheds(j)), found[0])
        p_sw, h_sw, t_sw = expansion(simplify(switch(d, i, sheds)), cache)
        p_sm, h_sm, t_sm = expansion(simplify(smooth(d, i)), cache)
        value = skein_value(d.crossings[i].sign, p_sw, p_sm)
        entry = value, 1 + max(h_sw, h_sm), SkeinBranch(d, i, t_sw, t_sm)
    cache.table[key] = entry
    cache.computed += 1
    return entry


def conway(d: OrientedDiagram, cache: HomflyCache | None = None) -> dict[int, int]:
    """Conway polynomial of the link of d as {z_exp: coeff}."""
    return specialize_conway(homfly(d, cache))
