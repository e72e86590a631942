"""Exact Laurent polynomial arithmetic in the variables a and z.

Everything downstream (HOMFLY-PT values, Conway specializations, degree
bounds) is built on :class:`LaurentPoly2`: a sparse map from exponent
pairs ``(a_exp, z_exp)`` to nonzero integer coefficients.  No floats
anywhere; equality is exact map equality.  Instances are immutable and
hashable, so they can be shared freely between threads and used as cache
values.
"""

from __future__ import annotations

from typing import Mapping

from .diagram import (
    _UNDER_IN,
    OrientedDiagram,
    _heads,
    canonical_code,
    component_count,
    component_cycles,
    simplify,
    smooth,
    split_components,
    switch,
)


class LaurentPoly2:
    """Integer Laurent polynomial in a and z (exponents may be negative)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] = {}):  # the default is only read
        clean: dict[tuple[int, int], int] = {}
        for (ae, ze), coeff in terms.items():
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be ints, got %r" % (coeff,))
            if coeff:
                key = (int(ae), int(ze))
                clean[key] = clean.get(key, 0) + coeff
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

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
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return LaurentPoly2(out)

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({k: -c for k, c in self._terms.items()})

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, z1), c1 in self._terms.items():
            for (a2, z2), c2 in other._terms.items():
                key = (a1 + a2, z1 + z2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return LaurentPoly2(out)

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
        if not self._terms:
            raise ValueError("z_degree of the zero polynomial is undefined")
        return max(z for (_, z) in self._terms)

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
    if components < 1:
        raise ValueError("an unlink has at least one component")
    return DELTA ** (components - 1)


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
    """Inverse of render_poly (used when reloading cached results)."""
    text = text.strip()
    if text == "0":
        return ZERO
    terms: dict[tuple[int, int], int] = {}
    for chunk in text.split(" + "):
        coeff = None
        a_exp = 0
        z_exp = 0
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("a^"):
                a_exp = int(factor[2:])
            elif factor.startswith("z^"):
                z_exp = int(factor[2:])
            else:
                coeff = int(factor)
        if coeff is None:
            raise ValueError("malformed polynomial term: %r" % chunk)
        terms[(a_exp, z_exp)] = terms.get((a_exp, z_exp), 0) + coeff
    return LaurentPoly2(terms)


# -- the skein invariant -------------------------------------------------------
#
# Computed by repairing descending order: walk the components (ordered by
# smallest arc, each from its smallest arc) and find the first crossing
# entered on its under-strand before it was ever entered on its
# over-strand.  Switching that crossing moves the first defect strictly
# later in the traversal (switching preserves arcs, hence the traversal);
# smoothing drops a crossing.  Defect-free diagrams are unlinks.  At a
# positive defect  P = a^2 * P(switched) + a*z * P(smoothed),  at a
# negative one  P = a^-2 * P(switched) - a^-1*z * P(smoothed).
#
# Both children are simplified before they are expanded, so the
# expansion meets the same diagrams, under the same keys, as the search.
# P is a link invariant, so no value changes.  The recursion still ends:
# simplify either drops crossings or returns its input unchanged, so
# each step drops a crossing or keeps the diagram's arcs and moves the
# first defect later.
#
# The same identity solved for the switched child (switch_value) gives
# its value from the diagram's and the smoothing's without an expansion:
# the search, which knows P of every node it branches on, stores its
# switch children's values that way.


class HomflyCache:
    """Memo table keyed by canonical diagram code, with usage counters.

    computed counts the values stored by a skein expansion, derived the
    values stored from the skein identity (see switch_value); hits counts
    lookups that found a value.
    """

    def __init__(self):
        self.table: dict[str, LaurentPoly2] = {}
        self.hits = 0
        self.computed = 0
        self.derived = 0

    def get(self, key: str) -> LaurentPoly2 | None:
        value = self.table.get(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key: str, value: LaurentPoly2, derived: bool = False) -> None:
        self.table[key] = value
        if derived:
            self.derived += 1
        else:
            self.computed += 1

    def __len__(self) -> int:
        return len(self.table)


_A2 = monomial(1, 2, 0)
_AZ = monomial(1, 1, 1)
_Am2 = monomial(1, -2, 0)
_AmZ = monomial(1, -1, 1)


def skein_value(sign: int, p_switch: LaurentPoly2, p_smooth: LaurentPoly2) -> LaurentPoly2:
    """P of a diagram from P of its switch and of its smoothing at a
    crossing of the given sign.

    The skein identity: at a positive crossing P = a^2 P(switch) +
    a z P(smooth), at a negative one P = a^-2 P(switch) - a^-1 z
    P(smooth).  :func:`switch_value` is its inverse.
    """
    if sign > 0:
        return _A2 * p_switch + _AZ * p_smooth
    return _Am2 * p_switch - _AmZ * p_smooth


def switch_value(sign: int, p: LaurentPoly2, p_smoothed: LaurentPoly2) -> LaurentPoly2:
    """P of a diagram's switch at a crossing of the given sign, from P of
    the diagram and of its smoothing there.

    The skein identity solved for the switched child: at a positive
    crossing P(switch) = a^-2 (P - a z P(smooth)), at a negative one
    P(switch) = a^2 (P + a^-1 z P(smooth)).  Only exponents shift.
    """
    if sign > 0:
        return _Am2 * (p - _AZ * p_smoothed)
    return _A2 * (p + _AmZ * p_smoothed)


def _first_defect(d: OrientedDiagram) -> int | None:
    heads = _heads(d)
    visited: set[int] = set()
    for cycle in component_cycles(d):
        for arc in cycle:
            ci, slot = heads[arc]
            if ci in visited:
                continue
            if slot == _UNDER_IN:
                return ci
            visited.add(ci)
    return None


def homfly(d: OrientedDiagram, cache: HomflyCache | None = None) -> LaurentPoly2:
    """The two-variable skein invariant of the link of d.

    The skein expansion recurses on the simplified switch and smoothing
    children of each defect crossing.  Results are memoized on canonical
    codes in `cache`, so repeated and nested calls stay cheap; without
    one, the call uses a fresh table of its own.
    """
    return _homfly(d, cache if cache is not None else HomflyCache())


def _homfly(d: OrientedDiagram, cache: HomflyCache) -> LaurentPoly2:
    if d.is_crossingless():
        return unlink_value(d.free_loops)
    key = canonical_code(d)
    got = cache.get(key)
    if got is not None:
        return got

    parts = split_components(d)
    if len(parts) > 1:
        value = DELTA ** (len(parts) - 1)
        for part in parts:
            value = value * _homfly(part, cache)
    else:
        i = _first_defect(d)
        if i is None:
            value = unlink_value(component_count(d))
        else:
            p_sw = _homfly(simplify(switch(d, i)), cache)
            p_sm = _homfly(simplify(smooth(d, i)), cache)
            value = skein_value(d.crossings[i].sign, p_sw, p_sm)
    cache.put(key, value)
    return value


def conway(d: OrientedDiagram, cache: HomflyCache | None = None) -> dict[int, int]:
    """Conway polynomial of the link of d as {z_exp: coeff}."""
    return specialize_conway(homfly(d, cache))
