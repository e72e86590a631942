"""Diagram rewrites that do not shrink a diagram, and unlink recognition.

The crossing-increasing pokes, kink insertions and triangle slides here
never shrink a diagram; they feed the bounded unlink search in
:func:`recognize_unlink` and the randomized invariance tests.  Each poke
and each slide is generated once, and a rewrite is kept only when
:func:`.diagram.validate`, planarity included, accepts it.  The search
restarts from the first diagram it meets with fewer crossings than its
start (monotone descent), spends one node budget across all restarts,
and gives up with ``unknown`` once its deadline passes.  The
crossing-removing moves, made inside :func:`.diagram.simplify`, like
the skein operations :func:`.diagram.switch` and
:func:`.diagram.smooth`, live in :mod:`.diagram`, and so do the
arc-incidence helpers used here.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator

from .diagram import (
    _OVER_B,
    _OVER_D,
    _UNDER_IN,
    _UNDER_OUT,
    Crossing,
    OrientedDiagram,
    _heads,
    _occurrences,
    _other_place,
    arriving_slots,
    canonical_code,
    component_count,
    faces,
    first_defect,
    leaving_slots,
    renormalize,
    simplify,
    validate,
)
from .poly import homfly, unlink_value

# extra crossings the unlink search allows over the diagram it started
# from, or last restarted from
_CROSSING_MARGIN = 2


# -- crossing-increasing moves -------------------------------------------------


def insert_kink(d: OrientedDiagram, arc: int, variant: int) -> OrientedDiagram:
    """Add a curl on the given arc; variants 0/2 are positive, 1/3 negative."""
    heads = _heads(d)
    if arc not in heads:
        raise ValueError("no such arc: %d" % arc)
    top = max(heads) + 1
    m, post = top, top + 1
    shapes = (
        Crossing(arc, m, m, post, 1),
        Crossing(arc, post, m, m, -1),
        Crossing(m, arc, post, m, 1),
        Crossing(m, m, post, arc, -1),
    )
    hc, hs = heads[arc]
    out = []
    for ci, cr in enumerate(d.crossings):
        arcs = list(cr.arcs())
        if ci == hc:
            arcs[hs] = post
        out.append(Crossing(arcs[0], arcs[1], arcs[2], arcs[3], cr.sign))
    out.append(shapes[variant])
    return renormalize(out, d.free_loops)


def _poke(
    d: OrientedDiagram, corner_e: tuple[int, int], corner_f: tuple[int, int]
) -> OrientedDiagram | None:
    """Push arc e over co-facial arc f; None if the rewrite degenerates.

    The walk of a face keeps the face on the right of each corner, which
    fixes the local picture up to the two arc arrows; the four resulting
    crossing pairs are spelled out below.  Pushing e under f draws the
    same bigon as pushing f over e, so no under-poke is built.
    """
    (eci, es), (fci, fs) = corner_e, corner_f
    e = d.crossings[eci].arcs()[es]
    f = d.crossings[fci].arcs()[fs]
    if e == f:
        return None
    e_fwd = es in leaving_slots(d.crossings[eci])
    f_fwd = fs in leaving_slots(d.crossings[fci])
    top = max(arc for cr in d.crossings for arc in cr.arcs()) + 1
    em, ep, fm, fp = top, top + 1, top + 2, top + 3
    added = {
        (True, False): (Crossing(f, em, fm, e, -1), Crossing(fm, em, fp, ep, 1)),
        (True, True): (Crossing(fm, e, fp, em, 1), Crossing(f, ep, fm, em, -1)),
        (False, False): (Crossing(fm, em, fp, e, -1), Crossing(f, em, fm, ep, 1)),
        (False, True): (Crossing(f, e, fm, em, 1), Crossing(fm, ep, fp, em, -1)),
    }[(e_fwd, f_fwd)]

    heads = _heads(d)
    he, hf = heads[e], heads[f]
    out = []
    for ci, cr in enumerate(d.crossings):
        arcs = list(cr.arcs())
        if ci == he[0]:
            arcs[he[1]] = ep
        if ci == hf[0]:
            arcs[hf[1]] = fp
        out.append(Crossing(arcs[0], arcs[1], arcs[2], arcs[3], cr.sign))
    out.extend(added)
    try:
        nd = renormalize(out, d.free_loops)
        validate(nd)
    except ValueError:
        return None
    return nd


def poke_moves(d: OrientedDiagram) -> Iterator[OrientedDiagram]:
    """Every bigon a poke draws between two corners of one face, once:
    for corners e before f in the face walk, e pushed over f and then f
    pushed over e."""
    for face in faces(d):
        for corner_e, corner_f in combinations(face, 2):
            for pair in ((corner_e, corner_f), (corner_f, corner_e)):
                nd = _poke(d, *pair)
                if nd is not None:
                    yield nd


def _build_crossing(sign: int, under: tuple[int, int], over: tuple[int, int]) -> Crossing:
    if sign > 0:
        return Crossing(under[0], over[0], under[1], over[1], 1)
    return Crossing(under[0], over[1], under[1], over[0], -1)


def triangle_moves(d: OrientedDiagram) -> Iterator[OrientedDiagram]:
    """All slides of a triangle's top strand, the arc over both its
    crossings, across the crossing joining its two under-strands.

    Each triangle is slid once: sliding its bottom strand across the
    crossing above it turns the same triangle over and draws the same
    diagram, up to arc labels.
    """
    occ = _occurrences(d.crossings)
    n = d.crossing_count
    for i in range(n):
        X = d.crossings[i]
        eA = X.over_out()
        slot_out = leaving_slots(X)[1]
        j, _ = _other_place(occ, eA, (i, slot_out))
        Y = d.crossings[j]
        if j == i or Y.over_in() != eA:
            continue
        pT_in, pT_out = X.over_in(), Y.over_out()
        for eB, dirM, xslot in ((X.c, 1, _UNDER_OUT), (X.a, -1, _UNDER_IN)):
            z, sB = _other_place(occ, eB, (i, xslot))
            if z in (i, j):
                continue
            for eC, dirB, yslot in ((Y.c, 1, _UNDER_OUT), (Y.a, -1, _UNDER_IN)):
                z2, sC = _other_place(occ, eC, (j, yslot))
                if z2 != z or sB == sC:
                    continue
                m_over_at_z = sB in (_OVER_B, _OVER_D)
                if m_over_at_z == (sC in (_OVER_B, _OVER_D)):
                    continue  # must attach to the two different strands of Z
                Z = d.crossings[z]

                if dirM > 0:
                    if sB not in arriving_slots(Z):
                        continue
                    mFirst = X.a
                    mLast = Z.c if sB == _UNDER_IN else Z.over_out()
                else:
                    if sB not in leaving_slots(Z):
                        continue
                    mFirst = Z.a if sB == _UNDER_OUT else Z.over_in()
                    mLast = X.c
                if dirB > 0:
                    if sC not in arriving_slots(Z):
                        continue
                    bFirst = Y.a
                    bLast = Z.c if sC == _UNDER_IN else Z.over_out()
                else:
                    if sC not in leaving_slots(Z):
                        continue
                    bFirst = Z.a if sC == _UNDER_OUT else Z.over_in()
                    bLast = Y.c

                xhat = _build_crossing(
                    Y.sign,
                    (eC, bLast) if dirB > 0 else (bFirst, eC),
                    (pT_in, eA),
                )
                yhat = _build_crossing(
                    X.sign,
                    (eB, mLast) if dirM > 0 else (mFirst, eB),
                    (eA, pT_out),
                )
                m_pair = (mFirst, eB) if dirM > 0 else (eB, mLast)
                b_pair = (bFirst, eC) if dirB > 0 else (eC, bLast)
                if m_over_at_z:
                    zhat = _build_crossing(Z.sign, b_pair, m_pair)
                else:
                    zhat = _build_crossing(Z.sign, m_pair, b_pair)

                out = list(d.crossings)
                out[i], out[j], out[z] = xhat, yhat, zhat
                try:
                    nd = renormalize(out, d.free_loops)
                    validate(nd)
                except ValueError:
                    continue
                yield nd


# -- unlink recognition ---------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of unlink recognition: unlink(r), not_unlink, or unknown."""

    kind: str
    components: int | None = None

    @property
    def is_unlink(self) -> bool:
        return self.kind == "unlink"

    @property
    def is_not_unlink(self) -> bool:
        return self.kind == "not_unlink"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    @staticmethod
    def unlink(components: int) -> "Verdict":
        return Verdict("unlink", components)

    @staticmethod
    def not_unlink() -> "Verdict":
        return Verdict("not_unlink")

    @staticmethod
    def unknown() -> "Verdict":
        return Verdict("unknown")


def _candidates(d: OrientedDiagram) -> Iterator[OrientedDiagram]:
    """Each slide and poke of d, raw and then simplified; the raw children
    stay because simplification would undo every poke."""
    for child in chain(triangle_moves(d), poke_moves(d)):
        yield child
        yield simplify(child)


def recognize_unlink(
    d: OrientedDiagram,
    homfly_value=None,
    node_limit: int = 10000,
    deadline: float | None = None,
) -> Verdict:
    """Three-valued unlink test; unlink/not_unlink answers are never wrong.

    Simplification settles most inputs; a simplified diagram with no
    defect (:func:`.diagram.first_defect`) is descending, hence an
    unlink; a polynomial mismatch against the split-union value
    certifies not_unlink; otherwise a bounded search
    over slides and pokes (allowing _CROSSING_MARGIN extra crossings over
    the diagram it started from) hunts for a crossingless diagram.  The
    search descends greedily: the first candidate with fewer crossings
    than its start drops the queue and the seen set, and the search
    restarts from that candidate.  Every candidate is isotopic to d, so
    an unlink found below a restart proves d one.  All restarts share
    node_limit expansions, so each call expands at most that many nodes.
    unknown means the node budget ran out or time.monotonic() passed
    deadline, never that the answer is known.  homfly_value, when
    supplied, must be the polynomial of (the link of) d.
    """
    start = simplify(d)
    r = component_count(start)
    if start.is_crossingless() or first_defect(start) is None:
        return Verdict.unlink(r)
    value = homfly_value if homfly_value is not None else homfly(start)
    if value != unlink_value(r):
        return Verdict.not_unlink()

    floor = start.crossing_count
    seen = {canonical_code(start)}
    queue: deque[OrientedDiagram] = deque([start])
    nodes = 0
    while queue and nodes < node_limit:
        if deadline is not None and time.monotonic() > deadline:
            break
        cur = queue.popleft()
        nodes += 1
        for cand in _candidates(cur):
            if cand.is_crossingless():
                return Verdict.unlink(r)
            if cand.crossing_count < floor:
                floor = cand.crossing_count
                seen = {canonical_code(cand)}
                queue = deque([cand])
                break
            if cand.crossing_count > floor + _CROSSING_MARGIN:
                continue
            code = canonical_code(cand)
            if code not in seen:
                seen.add(code)
                queue.append(cand)
    return Verdict.unknown()
