"""Exact ensemble weight enumerators for Plotkin-style code constructions.

Given the weight enumerators of two equal-length component codes, the
package computes — in exact rational arithmetic — the average weight
enumerator of the concatenation {(u + v*perm, v)} over a uniformly random
coordinate permutation, recursively over frozen/active construction trees,
and cross-checks everything against brute-force and exhaustive-permutation
oracles.

Importing the package loads none of its modules: each name of ``__all__``
and each submodule is imported on first access (PEP 562), so a CLI call
loads only the modules its command runs.
"""

import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "bounds": ("ChannelPoint", "q_function", "truncated_union_bound"),
    "codetree": (
        "Branch",
        "CodeTree",
        "Leaf",
        "active_leaves",
        "dual_tree",
        "ensemble_wef",
        "ensemble_wef_int",
        "generator_matrix",
        "rm_tree",
        "tree_from_active_set",
        "tree_from_json_dict",
        "tree_to_json_dict",
    ),
    "combinatorics": ("BinomialTable", "plotkin_coefficient", "shared_table"),
    "enumerator": ("WeightEnumerator", "common_denominator", "format_poly", "fractions_over"),
    "errors": ("BudgetError", "RankDeficiencyWarning"),
    "oracle": (
        "BinaryMatrix",
        "MonteCarloEstimate",
        "ensemble_wef_exhaustive",
        "ensemble_wef_montecarlo",
        "exact_wef_bruteforce",
        "macwilliams",
        "uniform_permutation",
    ),
    "plotkin": ("combine", "combine_int", "combine_single_weight", "min_distance_combine"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "kernel")

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ is what the import statement calls, and unlike
    # importlib.import_module it is reported by -X importtime.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
