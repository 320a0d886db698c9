"""subtree-poly-lab: exact subtree counts, spanning-tree experiments, roots.

Library layout:
    graphs     - graph type, generators, edge-list ingestion
    counting   - exact subtree-count vectors and their oracles
    subsets    - the numpy kernel of the counting enumeration
    spanning   - spanning-tree enumeration, identity verification
    sampling   - Wilson sampling and leaf weights, in numpy
    polyroots  - subtree polynomial, certified roots, margin diagnostics
    dyadic     - the root reports' roundings, decimal strings and series
    params     - the accepted range of each numeric parameter, one check per rule
    cli        - batch experiment driver

Importing the package loads none of its modules: each exported name is
imported from its module on first access (PEP 562), so a process pays
only for what it uses, and only the routes that need numpy load it.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "SubtreeCountVector": "counting",
    "brute_force_subtree_count": "counting",
    "check_ratio_inequalities": "counting",
    "complete_graph_counts": "counting",
    "enumerate_connected_subsets": "counting",
    "exact_beta": "counting",
    "poisson_deviation": "counting",
    "spanning_tree_count": "counting",
    "subtree_counts": "counting",
    "CapacityError": "errors",
    "CertificationError": "errors",
    "EdgeListParseError": "errors",
    "SubtreeLabError": "errors",
    "ValidationError": "errors",
    "DegreeProfile": "graphs",
    "FamilySpec": "graphs",
    "Graph": "graphs",
    "degree_profile": "graphs",
    "from_edge_list": "graphs",
    "generate": "graphs",
    "generate_connected": "graphs",
    "is_connected": "graphs",
    "parse_family": "graphs",
    "RootAnalysis": "polyroots",
    "build_polynomial": "polyroots",
    "find_roots": "polyroots",
    "rouche_margin": "polyroots",
    "tree_root_check": "polyroots",
    "RandomStream": "rng",
    "stream": "rng",
    "BetaEstimate": "sampling",
    "WeightSample": "sampling",
    "estimate_beta": "sampling",
    "leaf_weight": "sampling",
    "weight_experiment": "sampling",
    "wilson_sample": "sampling",
    "SpanningTree": "spanning",
    "enumerate_spanning_trees": "spanning",
    "verify_weight_identity": "spanning",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
