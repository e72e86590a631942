"""Skein resolution trees: the witnesses of an upper bound on depth.

A tree resolves a diagram at one crossing into its simplified switch and
smoothing, down to leaves that are unlinks.  Both the HOMFLY-PT
expansion (:mod:`.poly`) and the depth search (:mod:`.solver`) build
them, and a tree may share one subtree object under several branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .diagram import OrientedDiagram


@dataclass(frozen=True)
class SkeinLeaf:
    """A certified unlink with the given component count."""

    diagram: OrientedDiagram
    components: int


@dataclass(frozen=True)
class SkeinBranch:
    """Resolution at one crossing: both children are simplified."""

    diagram: OrientedDiagram
    crossing: int
    switched: "SkeinTree"
    smoothed: "SkeinTree"


SkeinTree = Union[SkeinLeaf, SkeinBranch]


def tree_depth(tree: SkeinTree) -> int:
    """Height of the tree; each distinct subtree object is measured once."""
    heights: dict[int, int] = {}

    def height(t: SkeinTree) -> int:
        if isinstance(t, SkeinLeaf):
            return 0
        h = heights.get(id(t))
        if h is None:
            h = heights[id(t)] = 1 + max(height(t.switched), height(t.smoothed))
        return h

    return height(tree)
