"""Correctness checks on a solve, run after the timed region.

``check(link, diagram, result, sd)`` returns the list of violations
(empty when the answer holds):

* ``link_lower <= diagram_upper``;
* the expected interval meets ``[lo, hi]``, and an Exact value lies in it;
* ``hi`` is at most the braid-word formula bound;
* a returned witness is a tree for this diagram, replays under
  ``verify_tree``, and its height equals ``diagram_upper``.

``sd`` is the imported skeindepth package.  ``verify_tree`` fills the
module-global polynomial cache, so callers replay only after timing.
"""

from __future__ import annotations


def witness_nodes(tree, sd) -> int:
    if isinstance(tree, sd.SkeinLeaf):
        return 1
    return 1 + witness_nodes(tree.switched, sd) + witness_nodes(tree.smoothed, sd)


def check(link, diagram, result, sd, replay=None) -> list[str]:
    """Violations of the answer ``result`` for ``link``; replay(tree) -> height."""
    bad = []
    lo, hi = result.link_lower, result.diagram_upper
    if not 0 <= lo <= hi:
        bad.append(f"empty or negative interval [{lo}, {hi}]")
    if link.expected is not None:
        e_lo, e_hi = link.expected
        if max(lo, e_lo) > min(hi, e_hi):
            bad.append(f"[{lo}, {hi}] misses expected [{e_lo}, {e_hi}]")
    if link.formula_upper is not None and hi > link.formula_upper:
        bad.append(f"upper {hi} above braid formula {link.formula_upper}")
    tree = result.witness
    if tree is not None:
        want = sd.canonical_code(sd.simplify(diagram))
        if sd.canonical_code(tree.diagram) != want:
            bad.append("witness root is not the input diagram")
        try:
            height = (replay or sd.verify_tree)(tree)
        except ValueError as e:
            bad.append(f"witness replay failed: {e}")
        else:
            if height != hi:
                bad.append(f"witness height {height} != diagram_upper {hi}")
    return bad
