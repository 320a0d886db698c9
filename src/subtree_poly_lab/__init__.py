"""subtree-poly-lab: exact subtree counts, spanning-tree experiments, roots.

Library layout:
    graphs     - graph type, generators, edge-list ingestion
    counting   - exact subtree-count vectors and their oracles
    spanning   - Wilson sampling, leaf weights, identity verification
    polyroots  - subtree polynomial, certified roots, margin diagnostics
    cli        - batch experiment driver
"""

from .counting import (
    SubtreeCountVector,
    brute_force_subtree_count,
    check_ratio_inequalities,
    complete_graph_counts,
    enumerate_connected_subsets,
    spanning_tree_count,
    subtree_counts,
)
from .errors import (
    CapacityError,
    CertificationError,
    EdgeListParseError,
    SubtreeLabError,
    ValidationError,
)
from .graphs import (
    DegreeProfile,
    FamilySpec,
    Graph,
    degree_profile,
    from_edge_list,
    generate,
    generate_connected,
    induced_subgraph,
    is_connected,
    parse_family,
)
from .polyroots import (
    RootAnalysis,
    SubtreePolynomial,
    build_polynomial,
    find_roots,
    poisson_deviation,
    root_bound,
    rouche_margin,
    tree_root_check,
)
from .rng import RandomStream, stream
from .spanning import (
    BetaEstimate,
    SpanningTree,
    WeightSample,
    concentration_profile,
    enumerate_spanning_trees,
    estimate_beta,
    exact_beta,
    leaf_count_stats,
    leaf_weight,
    verify_weight_identity,
    weight_experiment,
    wilson_sample,
)

__version__ = "0.1.0"
