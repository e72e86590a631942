"""Diagram rewrites that do not shrink a diagram, and unlink recognition.

The crossing-increasing pokes and kink insertions and the triangle
slides here never shrink a diagram.  The slides feed the bounded unlink
search in :func:`recognize_unlink`; pokes and kinks serve the
randomized invariance tests.  Each poke and each slide is generated
once.  Every diagram is labeled in walk order, 1..2c, so each arc
leaves one slot and arrives at one: the rewrites read an arc's ends
from its label, rename an arc where it arrives, and take their fresh
labels from 2c + 1.  A rewrite is kept only when
:func:`.diagram.validate` finds it planar; the constructor has checked
its labels.  The search restarts from the first diagram it meets with
fewer crossings than its start (monotone descent), spends one node
budget across all restarts, and gives up with ``unknown`` once its
deadline passes.  The crossing-removing moves, made inside
:func:`.diagram.simplify`, like the skein operations
:func:`.diagram.switch` and :func:`.diagram.smooth`, live in
:mod:`.diagram`; this module takes only its public names and slot
numbers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .diagram import (
    _OVER_B,
    _OVER_D,
    OrientedDiagram,
    arriving_slots,
    canonical_code,
    component_count,
    defects,
    faces,
    leaving_slots,
    renormalize,
    simplify,
    validate,
)
from .poly import homfly, unlink_value


# -- crossing-increasing moves -------------------------------------------------


def _renamed_heads(d: OrientedDiagram, names: dict[int, int]) -> list[tuple[int, ...]]:
    """d's crossings with each arc in names renamed where it arrives."""
    out = []
    for a, b, c, e, sign in d.crossings:
        if sign > 0:
            b = names.get(b, b)
        else:
            e = names.get(e, e)
        out.append((names.get(a, a), b, c, e, sign))
    return out


def insert_kink(d: OrientedDiagram, arc: int, variant: int) -> OrientedDiagram:
    """Add a curl on the given arc; variants 0/2 are positive, 1/3 negative."""
    top = 2 * d.crossing_count + 1
    if not 1 <= arc < top:
        raise ValueError("no such arc: %d" % arc)
    m, post = top, top + 1
    shapes = ((arc, m, m, post, 1), (arc, post, m, m, -1), (m, arc, post, m, 1), (m, m, post, arc, -1))
    return renormalize(_renamed_heads(d, {arc: post}) + [shapes[variant]], d.free_loops, top + 2)


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
    e = d.crossings[eci][es]
    f = d.crossings[fci][fs]
    if e == f:
        return None
    e_fwd = es in leaving_slots(d.crossings[eci])
    f_fwd = fs in leaving_slots(d.crossings[fci])
    top = 2 * d.crossing_count + 1
    em, ep, fm, fp = top, top + 1, top + 2, top + 3
    added = {
        (True, False): ((f, em, fm, e, -1), (fm, em, fp, ep, 1)),
        (True, True): ((fm, e, fp, em, 1), (f, ep, fm, em, -1)),
        (False, False): ((fm, em, fp, e, -1), (f, em, fm, ep, 1)),
        (False, True): ((f, e, fm, em, 1), (fm, ep, fp, em, -1)),
    }[(e_fwd, f_fwd)]
    try:
        nd = renormalize(_renamed_heads(d, {e: ep, f: fp}) + list(added), d.free_loops, top + 4)
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


def _build_crossing(sign: int, under: tuple[int, int], over: tuple[int, int]) -> tuple[int, ...]:
    if sign > 0:
        return (under[0], over[0], under[1], over[1], 1)
    return (under[0], over[1], under[1], over[0], -1)


def triangle_moves(d: OrientedDiagram) -> Iterator[OrientedDiagram]:
    """All slides of a triangle's top strand, the arc over both its
    crossings, across the crossing joining its two under-strands.

    Each triangle is slid once: sliding its bottom strand across the
    crossing above it turns the same triangle over and draws the same
    diagram, up to arc labels.  Label-indexed lists give the place where
    each arc arrives (head) and where it leaves (tail).  The top strand
    leaves X and arrives at Y; an under-strand arc that leaves X or Y
    arrives at Z, and one that arrives leaves Z.
    """
    head: list[tuple[int, int]] = [(0, 0)] * (2 * d.crossing_count + 1)
    tail = list(head)
    for ci, cr in enumerate(d.crossings):
        for slot in arriving_slots(cr):
            head[cr[slot]] = (ci, slot)
        for slot in leaving_slots(cr):
            tail[cr[slot]] = (ci, slot)
    for i, (xa, xb, xc, xd, x_sign) in enumerate(d.crossings):
        pT_in, eA = (xb, xd) if x_sign > 0 else (xd, xb)
        j = head[eA][0]
        ya, yb, yc, yd, y_sign = d.crossings[j]
        y_in, pT_out = (yb, yd) if y_sign > 0 else (yd, yb)
        if j == i or y_in != eA:
            continue
        for eB, dirM, (z, sB) in ((xc, 1, head[xc]), (xa, -1, tail[xa])):
            if z in (i, j):
                continue
            for eC, dirB, (z2, sC) in ((yc, 1, head[yc]), (ya, -1, tail[ya])):
                if z2 != z or sB == sC:
                    continue
                m_over_at_z = sB in (_OVER_B, _OVER_D)
                if m_over_at_z == (sC in (_OVER_B, _OVER_D)):
                    continue  # must attach to the two different strands of Z
                za, zb, zc, zd, z_sign = d.crossings[z]
                # each strand's arcs into and out of Z
                under, over = (za, zc), ((zb, zd) if z_sign > 0 else (zd, zb))
                (m_in, m_out), (b_in, b_out) = (over, under) if m_over_at_z else (under, over)
                mFirst, mLast = (xa, m_out) if dirM > 0 else (m_in, xc)
                bFirst, bLast = (ya, b_out) if dirB > 0 else (b_in, yc)

                xhat = _build_crossing(
                    y_sign,
                    (eC, bLast) if dirB > 0 else (bFirst, eC),
                    (pT_in, eA),
                )
                yhat = _build_crossing(
                    x_sign,
                    (eB, mLast) if dirM > 0 else (mFirst, eB),
                    (eA, pT_out),
                )
                m_pair = (mFirst, eB) if dirM > 0 else (eB, mLast)
                b_pair = (bFirst, eC) if dirB > 0 else (eC, bLast)
                if m_over_at_z:
                    zhat = _build_crossing(z_sign, b_pair, m_pair)
                else:
                    zhat = _build_crossing(z_sign, m_pair, b_pair)

                out = list(d.crossings)
                out[i], out[j], out[z] = xhat, yhat, zhat
                try:
                    nd = renormalize(out, d.free_loops, 2 * d.crossing_count + 1)
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


def recognize_unlink(
    d: OrientedDiagram,
    homfly_value=None,
    node_limit: int = 10000,
    deadline: float | None = None,
    code: str | None = None,
) -> Verdict:
    """Three-valued unlink test; unlink/not_unlink answers are never wrong.

    Simplification settles most inputs; a simplified diagram with no
    defect (:func:`.diagram.defects`) is descending, hence an
    unlink; a polynomial mismatch against the split-union value
    certifies not_unlink; otherwise a bounded search over triangle
    slides, each simplified, hunts for a crossingless diagram.  A slide
    keeps the crossing count and simplify only lowers it, so every
    queued diagram has the floor's crossings: those of the diagram the
    search started from, or last restarted from.  The search descends
    greedily: the first simplified slide below the floor drops the queue
    and the seen set, and the search restarts from it.  Every candidate
    is isotopic to d, so an unlink found below a restart proves d one.
    All restarts share node_limit expansions, so each call expands at
    most that many nodes.  unknown means the floor's slides ran out with
    the queue empty, the node budget ran out, or time.monotonic() passed
    deadline, never that the answer is known.  homfly_value, when
    supplied, must be the polynomial of (the link of) d, and code, when
    supplied, :func:`.diagram.canonical_code` of d; it is used only when
    d is already simplified.
    """
    start = simplify(d)
    r = component_count(start)
    if start.is_crossingless() or not defects(start):
        return Verdict.unlink(r)
    value = homfly_value if homfly_value is not None else homfly(start)
    if value != unlink_value(r):
        return Verdict.not_unlink()

    floor = start.crossing_count
    seen = {code if code is not None and start is d else canonical_code(start)}
    queue: deque[OrientedDiagram] = deque([start])
    nodes = 0
    while queue and nodes < node_limit:
        if deadline is not None and time.monotonic() > deadline:
            break
        cur = queue.popleft()
        nodes += 1
        for slid in triangle_moves(cur):
            cand = simplify(slid)
            if cand.is_crossingless():
                return Verdict.unlink(r)
            if cand.crossing_count < floor:
                floor = cand.crossing_count
                seen = {canonical_code(cand)}
                queue = deque([cand])
                break
            cand_code = canonical_code(cand)
            if cand_code not in seen:
                seen.add(cand_code)
                queue.append(cand)
    return Verdict.unknown()
