"""Skein resolution trees: the witnesses of an upper bound on depth.

A tree resolves a diagram at one crossing into its simplified switch and
smoothing, down to leaves that are unlinks.  Both the HOMFLY-PT
expansion (:mod:`.poly`) and the depth search (:mod:`.solver`) build
them, and a tree may share one subtree object under several branches.

The braid-state expansion of a one-signed word (:mod:`.braid`) builds
the same trees at the word level: :class:`BraidBranch` and
:class:`BraidLeaf` carry the closure's strand count and a word in place
of a diagram, and only the root carries the diagram and the word it was
given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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


@dataclass(frozen=True)
class BraidLeaf(SkeinLeaf):
    """An unlink leaf of a braid-word witness: the closure of word, a
    tuple of letters on strands strands.  diagram and given are None
    except at a root: the diagram solved and the letters of the word
    given for it."""

    strands: int
    word: tuple[int, ...]
    given: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class BraidBranch(SkeinBranch):
    """A branch of a braid-word witness: crossing indexes the resolved
    letter of word, the second of two equal adjacent letters.  The
    switch cancels the pair and the smoothing deletes the letter; each
    child's word is reached from the result by braid moves (see
    :meth:`.braid.BraidStates.reaches`).  diagram and given are as in
    :class:`BraidLeaf`."""

    strands: int
    word: tuple[int, ...]
    given: Optional[tuple[int, ...]] = None


SkeinTree = Union[SkeinLeaf, SkeinBranch]


def tree_depth(tree: SkeinTree) -> int:
    """Height of the tree; each distinct subtree object is measured once."""
    return _height(tree, {})


def _height(t: SkeinTree, heights: dict[int, int]) -> int:
    """tree_depth's walk, with the heights of the branches measured
    already, by object id; a module-level function, so a call leaves no
    cycle behind for the collector."""
    if isinstance(t, SkeinLeaf):
        return 0
    h = heights.get(id(t))
    if h is None:
        h = heights[id(t)] = 1 + max(_height(t.switched, heights), _height(t.smoothed, heights))
    return h
