"""Training-free spectral collaborative filtering.

Pipeline: ingest interactions, split per user, renormalize the bipartite
graph (G2N), take a truncated SVD, derive per-node filter exponents from
homophilic ratios (IGF), and score users in closed form. A theory module
provides executable oracles for the structural results the pipeline
relies on.
"""

from .dataset import (
    IdMaps,
    InteractionDataset,
    InteractionLog,
    SplitConfig,
    dataset_from_pairs,
    ingest,
    split,
)
from .errors import SgfcfError
from .filters import (
    ExponentialFilter,
    HomophilyScores,
    IgfConfig,
    IgfProfile,
    JacobiFilter,
    MarkovFilter,
    MonomialFilter,
    eval_filter,
    homophilic_pair_counts,
    homophilic_ratio_all,
    map_homo_to_beta,
)
from .graph import (
    BipartiteGraph,
    DENSE_ORACLE_CAP,
    G2NConfig,
    NormalizedMatrix,
    assemble_adjacency,
    build_graph,
    g2n_normalize,
    graph_from_matrix,
)
from .model import (
    RankedList,
    SgfcfConfig,
    SgfcfModel,
    fit,
    recommend,
    score_user,
    score_users,
)
from .evaluation import (
    GridSearchResult,
    GridSpec,
    MetricResult,
    evaluate,
    frequency_sweep,
    grid_search,
    ndcg_at_k,
    recall_at_k,
)
from .spectral import (
    TruncatedSpectrum,
    appro_curve,
    appro_measure,
    dense_svd,
    gram_svd,
    ratio_curve,
    top_k_svd,
    truncated_svd,
)
from .theory import TheoryReport, random_bipartite_graph, run_all_checks

__version__ = "0.1.0"
