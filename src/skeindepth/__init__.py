"""Skein-tree depth of oriented knots and links.

Resolve crossings (switch + oriented smoothing, simplifying after each
move) until every leaf is a certified unlink; the depth of the best such
tree is the invariant this package computes — exactly when polynomial,
genus, or braid bounds meet the search, as a certified interval
otherwise.
"""

from .bounds import (
    BoundsReport,
    aggregate_bounds,
    genus_lower_bound,
    homfly_lower_bound,
    polynomial_lower_bound,
    skein_reach_lower_bound,
    skein_reachable,
)
from .braid import (
    BraidWord,
    braid_closure,
    mixed_braid_upper,
    parse_braid,
    positive_braid_td,
)
from .diagram import (
    Crossing,
    OrientedDiagram,
    canonical_code,
    component_count,
    component_cycles,
    disjoint_union,
    is_split,
    mirror,
    parse_pd,
    pd_text,
    simplify,
    smooth,
    split_components,
    switch,
    writhe,
)
from .moves import (
    Verdict,
    insert_kink,
    poke_moves,
    recognize_unlink,
    triangle_moves,
)
from .poly import (
    HomflyCache,
    LaurentPoly2,
    conway,
    homfly,
    parse_poly,
    render_poly,
    specialize_conway,
    unlink_value,
)
from .solver import (
    DEFAULT_BUDGET,
    SkeinBranch,
    SkeinLeaf,
    SkeinTree,
    SolveContext,
    TdResult,
    compute_td,
    depth_at_most,
    extract_tree,
    verify_tree,
)
from .tree import tree_depth

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BraidWord",
    "Crossing",
    "DEFAULT_BUDGET",
    "HomflyCache",
    "LaurentPoly2",
    "OrientedDiagram",
    "SkeinBranch",
    "SkeinLeaf",
    "SkeinTree",
    "SolveContext",
    "TdResult",
    "Verdict",
    "aggregate_bounds",
    "braid_closure",
    "canonical_code",
    "component_count",
    "component_cycles",
    "compute_td",
    "conway",
    "depth_at_most",
    "disjoint_union",
    "extract_tree",
    "genus_lower_bound",
    "homfly",
    "homfly_lower_bound",
    "insert_kink",
    "is_split",
    "mirror",
    "mixed_braid_upper",
    "parse_braid",
    "parse_pd",
    "parse_poly",
    "pd_text",
    "poke_moves",
    "polynomial_lower_bound",
    "positive_braid_td",
    "recognize_unlink",
    "render_poly",
    "simplify",
    "skein_reach_lower_bound",
    "skein_reachable",
    "smooth",
    "specialize_conway",
    "split_components",
    "switch",
    "tree_depth",
    "triangle_moves",
    "unlink_value",
    "verify_tree",
    "writhe",
]
