"""Exact ensemble weight enumerators for Plotkin-style code constructions.

Given the weight enumerators of two equal-length component codes, the
package computes — in exact rational arithmetic — the average weight
enumerator of the concatenation {(u + v*perm, v)} over a uniformly random
coordinate permutation, recursively over frozen/active construction trees,
and cross-checks everything against brute-force and exhaustive-permutation
oracles.
"""

from .bounds import ChannelPoint, q_function, truncated_union_bound
from .codetree import (
    Branch,
    CodeTree,
    Leaf,
    active_leaves,
    ensemble_wef,
    generator_matrix,
    rm_tree,
    tree_from_active_set,
    tree_from_json_dict,
    tree_to_json_dict,
)
from .combinatorics import BinomialTable, binomial, plotkin_coefficient, shared_table
from .enumerator import WeightEnumerator, format_poly, parse_poly
from .errors import BudgetError, PolyParseError, RankDeficiencyWarning
from .oracle import (
    BinaryMatrix,
    MonteCarloEstimate,
    Permutation,
    ensemble_wef_exhaustive,
    ensemble_wef_montecarlo,
    exact_wef_bruteforce,
    uniform_permutation,
)
from .plotkin import combine, combine_single_weight, min_distance_combine

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BinomialTable",
    "Branch",
    "BudgetError",
    "ChannelPoint",
    "CodeTree",
    "Leaf",
    "MonteCarloEstimate",
    "Permutation",
    "PolyParseError",
    "RankDeficiencyWarning",
    "WeightEnumerator",
    "active_leaves",
    "binomial",
    "combine",
    "combine_single_weight",
    "ensemble_wef",
    "ensemble_wef_exhaustive",
    "ensemble_wef_montecarlo",
    "exact_wef_bruteforce",
    "format_poly",
    "generator_matrix",
    "min_distance_combine",
    "parse_poly",
    "plotkin_coefficient",
    "q_function",
    "rm_tree",
    "shared_table",
    "tree_from_active_set",
    "tree_from_json_dict",
    "tree_to_json_dict",
    "truncated_union_bound",
    "uniform_permutation",
    "__version__",
]
