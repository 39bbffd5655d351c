"""Exact continued-fraction generating functions for Catalan structures.

Three families of objects counted by the Catalan numbers, three statistics,
one continued fraction: the series whose level-l numerator weights a vertex
at level l enumerates ordered trees by level profile, and its
specializations count lattice paths by area and (132)-avoiding permutations
by increasing patterns.  Everything is exact integer arithmetic, and every
series coefficient can be cross-checked against brute-force enumeration of
the underlying objects.
"""

from .series import Monomial, TruncSeries, TruncationError
from .contfrac import LevelWeights, eval_cf
from .trees import (
    LEAF,
    OrderedTree,
    TreeParseError,
    binom_level_sum,
    decode,
    encode,
    generate_trees,
    level_profile,
    level_sum,
)
from .paths import (
    DyckPath,
    PathParseError,
    area,
    area_via_levels,
    generate_paths,
    parse_path,
    path_to_tree,
    tree_to_path,
)
from .perms import (
    Pattern132Error,
    count_increasing,
    enumerate_132_avoiders,
    format_perm,
    has_132,
    increasing_pattern_subsets,
    parse_perm,
    perm_to_tree,
    root_to_leaf_subsets,
    tree_to_perm,
    validate_perm,
)
from .util import binom

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "TruncSeries",
    "TruncationError",
    "LevelWeights",
    "eval_cf",
    "LEAF",
    "OrderedTree",
    "TreeParseError",
    "binom_level_sum",
    "decode",
    "encode",
    "generate_trees",
    "level_profile",
    "level_sum",
    "DyckPath",
    "PathParseError",
    "area",
    "area_via_levels",
    "generate_paths",
    "parse_path",
    "path_to_tree",
    "tree_to_path",
    "Pattern132Error",
    "count_increasing",
    "enumerate_132_avoiders",
    "format_perm",
    "has_132",
    "increasing_pattern_subsets",
    "parse_perm",
    "perm_to_tree",
    "root_to_leaf_subsets",
    "tree_to_perm",
    "validate_perm",
    "binom",
    "__version__",
]
