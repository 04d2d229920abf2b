"""Graph analytics workbench: centrality measures, network models, and a
seeded correlation/granularity experiment harness."""

from .graphs import (
    Graph,
    GraphError,
    FormatError,
    UNREACHABLE,
    bfs_all_pairs,
    format_edge_list,
    format_graph6,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .linalg import SingularMatrixError, invert, sym_eigen
from .centrality import (
    DisconnectedGraphError,
    all_measures,
    centrality_csv,
    compute_measure,
)
from .generators import (
    GenerationError,
    KroneckerInitiator,
    ModelConfig,
    community_structure,
    derive_seed,
    ensure_connected,
    enumerate_connected_nonisomorphic,
    erdos_renyi,
    generate,
    geographical,
    kronecker,
    mix64,
    scale_free,
    small_world,
    splitmix64,
)
from .stats import (
    best_granularity_tally,
    distinct_count,
    granularity,
    kendall_tau_b,
    mean_ci,
)
from .plan import ConfigError, plan_experiments
from .harness import run_experiment
from .store import load_results
from .tables import correlation_matrix, emit_heatmap, write_all_tables

__version__ = "0.1.0"
