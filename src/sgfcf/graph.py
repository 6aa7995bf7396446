"""Sparse bipartite interaction matrix and generalized graph normalization.

The normalization family reweights each interaction (u, i) as
``(d_u + alpha)^epsilon * (d_i + alpha)^epsilon``. With alpha=0 and
epsilon=-0.5 it reduces to the classic symmetric normalization
D_U^{-1/2} R D_I^{-1/2}; raising alpha or epsilon shifts relative weight
toward high-degree nodes, which sharpens the singular-value spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, EmptyTrainSplit, SizeCapExceeded, check_real

# Hard cap on dense assemblies: verification oracles only run at desk scale.
DENSE_ORACLE_CAP = 2000


@dataclass(frozen=True)
class BipartiteGraph:
    """Binary interaction matrix in both orientations plus degree vectors."""

    row_major: sp.csr_matrix  # |U| x |I|
    col_major: sp.csr_matrix  # |I| x |U|
    user_degrees: np.ndarray
    item_degrees: np.ndarray

    @property
    def n_users(self) -> int:
        return self.row_major.shape[0]

    @property
    def n_items(self) -> int:
        return self.row_major.shape[1]

    @property
    def nnz(self) -> int:
        return self.row_major.nnz


@dataclass(frozen=True)
class G2NConfig:
    """Degree-shift alpha >= 0 and exponent epsilon in [-0.5, 0]."""

    alpha: float = 0.0
    epsilon: float = -0.5

    def __post_init__(self):
        check_real("alpha", self.alpha, lo=0)
        check_real("epsilon", self.epsilon, -0.5, 0)


@dataclass(frozen=True)
class NormalizedMatrix:
    """Reweighted interaction matrix with the config that produced it."""

    values: sp.csr_matrix
    config: G2NConfig
    # W^T row-major, built once in O(nnz): the gamma block's W^T D product
    # runs faster over it than over the column-major view ``values.T`` and
    # adds in the same order, so it gives the same bits
    values_t: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values_t", self.values.T.tocsr())

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def frobenius_sq(self) -> float:
        return float(np.square(self.values.data).sum())


def graph_from_matrix(matrix: sp.spmatrix) -> BipartiteGraph:
    """Wrap a sparse matrix of non-negative weights, left unchanged, as a 0/1
    graph: duplicates summed, stored zeros dropped, every other entry 1."""
    row = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    row.sum_duplicates()
    if not (np.isfinite(row.data) & (row.data >= 0)).all():
        raise ConfigError("interaction matrix holds negative or non-finite values")
    row.eliminate_zeros()
    row.data[:] = 1.0
    col = row.T.tocsr()
    return BipartiteGraph(
        row_major=row,
        col_major=col,
        user_degrees=np.diff(row.indptr).astype(np.int64),
        item_degrees=np.diff(col.indptr).astype(np.int64),
    )


def build_graph(dataset) -> BipartiteGraph:
    """Assemble the train-split interaction matrix of a dataset."""
    if len(dataset.train) == 0:
        raise EmptyTrainSplit("train split has no interactions")
    users = dataset.train[:, 0]
    items = dataset.train[:, 1]
    matrix = sp.csr_matrix(
        (np.ones(len(users)), (users, items)),
        shape=(dataset.n_users, dataset.n_items),
    )
    return graph_from_matrix(matrix)


def duplicate_item_sources(graph: BipartiteGraph) -> np.ndarray:
    """For each item, the lowest item id whose train column equals its own
    (the item itself when no lower id shares its column). O(nnz).

    Columns are grouped by degree and a seeded 64-bit hash of their user
    sets, then each candidate is compared entry by entry with its group's
    lowest id, so a hash collision never merges different columns (it
    leaves the colliding item its own source).
    """
    col = graph.col_major if graph.col_major.has_sorted_indices else graph.col_major.sorted_indices()
    n_items = graph.n_items
    degrees = graph.item_degrees
    keys = np.random.default_rng(0).integers(0, 2**63, size=graph.n_users, dtype=np.uint64)
    # uint64 sums wrap modulo 2**64, so differences of prefix sums give each
    # column's key sum exactly, empty columns included
    prefix = np.zeros(col.nnz + 1, dtype=np.uint64)
    np.cumsum(keys[col.indices], out=prefix[1:])
    hashes = prefix[col.indptr[1:]] - prefix[col.indptr[:-1]]
    # lexsort is stable, so each (degree, hash) group lists its ids ascending
    order = np.lexsort((hashes, degrees))
    d, h = degrees[order], hashes[order]
    new_group = np.ones(n_items, dtype=bool)
    new_group[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
    sources = np.empty(n_items, dtype=np.int64)
    sources[order] = order[np.flatnonzero(new_group)[np.cumsum(new_group) - 1]]
    copies = np.flatnonzero(sources != np.arange(n_items))
    differs = np.diff((col[copies] != col[sources[copies]]).indptr) > 0
    sources[copies[differs]] = copies[differs]
    return sources


def _degree_weights(degrees: np.ndarray, alpha: float, epsilon: float) -> np.ndarray:
    # Isolated nodes carry no stored entries; give them weight 0 instead of
    # evaluating 0^epsilon.
    weights = np.zeros(len(degrees), dtype=np.float64)
    active = degrees > 0
    weights[active] = np.power(degrees[active] + alpha, epsilon)
    return weights


def g2n_normalize(graph: BipartiteGraph, cfg: G2NConfig) -> NormalizedMatrix:
    """Reweight interactions by (d_u+alpha)^eps * (d_i+alpha)^eps.

    The sparsity pattern is unchanged; only stored values are scaled.
    """
    w_user = _degree_weights(graph.user_degrees, cfg.alpha, cfg.epsilon)
    w_item = _degree_weights(graph.item_degrees, cfg.alpha, cfg.epsilon)
    values = sp.diags(w_user) @ graph.row_major @ sp.diags(w_item)
    return NormalizedMatrix(values=values.tocsr(), config=cfg)


def assemble_adjacency(norm: NormalizedMatrix) -> np.ndarray:
    """Dense symmetric block adjacency [[0, W], [W^T, 0]].

    Only meant for desk-scale theory checks; refuses graphs with more
    than DENSE_ORACLE_CAP total nodes.
    """
    n_users, n_items = norm.shape
    n = n_users + n_items
    if n > DENSE_ORACLE_CAP:
        raise SizeCapExceeded(
            f"dense assembly limited to {DENSE_ORACLE_CAP} nodes, got {n}"
        )
    dense = norm.values.toarray()
    adjacency = np.zeros((n, n), dtype=np.float64)
    adjacency[:n_users, n_users:] = dense
    adjacency[n_users:, :n_users] = dense.T
    return adjacency

