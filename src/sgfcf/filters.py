"""Graph-filter families over normalized singular values, homophilic
ratios, and the individualized filter exponent mapping.

A node's homophilic ratio is the fraction of pairs of its neighbors
that stay close in the graph once the node itself is removed; it proxies
how internally consistent the node's interactions are. Ratios are mapped
linearly onto a per-node monomial exponent range [beta1, beta2], so
nodes with coherent histories get sharper low-pass filters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import BandOutOfRange, ConfigError, OddDelta, SizeCapExceeded, check_integer, check_real
from .graph import BipartiteGraph
from .parallel import BlockPool

# delta >= 4 counts run over the dense interaction matrix with one step
# matrix per removed node, a verification-scale operation; larger graphs
# raise SizeCapExceeded.
HOMOPHILY_EXACT_CAP = 200

# Bytes of the dense blocks of the delta = 2 pair count in flight at once
# (see _cooccurrence_counts), shared equally by the workers; about four
# arrays of a block's size are live per worker. On 2 cores, 4 MiB for a
# single worker was the fastest of 0.5-8 MiB at CiteULike shape (5551 x
# 16981) and within 15% of the fastest at wide-igf's (8000 x 3200).
COOCCURRENCE_BLOCK_BYTES = 4 * 2**20

log = logging.getLogger("sgfcf")


@dataclass(frozen=True)
class MonomialFilter:
    """g(s) = s^beta; the shared-filter form of the individualized filter."""

    beta: float = 1.0

    def __post_init__(self):
        check_real("monomial beta", self.beta, lo=0)


@dataclass(frozen=True)
class ExponentialFilter:
    """Diffusion kernel e^{beta * s}, rescaled by e^{-beta} so g(1) = 1."""

    beta: float = 1.0

    def __post_init__(self):
        check_real("exponential beta", self.beta, lo=0)


@dataclass(frozen=True)
class MarkovFilter:
    """Averaged diffusion (sum of s^l for l = 0..order) / (order + 1)."""

    order: int = 2

    def __post_init__(self):
        check_integer("markov order", self.order, lo=1)


@dataclass(frozen=True)
class JacobiFilter:
    """Sum of Jacobi polynomials P_0..P_order evaluated by the three-term
    recurrence, clamped at zero from below (non-negative filter)."""

    a: float = 1.0
    b: float = 1.0
    order: int = 3

    def __post_init__(self):
        check_real("jacobi a", self.a)
        check_real("jacobi b", self.b)
        if not (self.a > -1 and self.b > -1):
            raise ConfigError(f"jacobi requires a > -1 and b > -1, got a={self.a}, b={self.b}")
        check_integer("jacobi order", self.order, lo=1)


@dataclass(frozen=True)
class BandFilter:
    """Ideal band pass over a model's K components: weight 1 on components
    k_lo..K (1-indexed, by descending singular value) and 0 above k_lo.
    Both sides get the same indicator, so the score is
    sum_{k_lo <= k <= K} P[u,k] Q[i,k]; the default band [1, K] is the
    top-K reconstruction a frequency sweep ranks with."""

    k_lo: int = 1

    def __post_init__(self):
        check_integer("band start k_lo", self.k_lo, lo=1, error=BandOutOfRange)


FilterFamily = Union[MonomialFilter, ExponentialFilter, MarkovFilter, JacobiFilter, BandFilter]


def eval_filter(family: FilterFamily, sigma_normalized: np.ndarray) -> np.ndarray:
    """Evaluate a filter family on normalized singular values in [0, 1],
    given in descending order (the band filter reads their positions)."""
    s = np.asarray(sigma_normalized, dtype=np.float64)
    if isinstance(family, MonomialFilter):
        return np.power(s, family.beta)
    if isinstance(family, ExponentialFilter):
        return np.exp(family.beta * (s - 1.0))
    if isinstance(family, MarkovFilter):
        acc = np.ones_like(s)
        term = np.ones_like(s)
        for _ in range(family.order):
            term = term * s
            acc += term
        return acc / (family.order + 1)
    if isinstance(family, JacobiFilter):
        return _jacobi_sum(s, family.a, family.b, family.order)
    if isinstance(family, BandFilter):
        if family.k_lo > len(s):
            raise BandOutOfRange(f"band [{family.k_lo}, {len(s)}] is empty")
        weights = np.zeros_like(s)
        weights[family.k_lo - 1 :] = 1.0
        return weights
    raise ConfigError(f"unknown filter family: {family!r}")


def _jacobi_sum(x: np.ndarray, a: float, b: float, order: int) -> np.ndarray:
    p_prev = np.ones_like(x)  # P_0
    total = p_prev.copy()
    p_curr = (a - b) / 2.0 + (a + b + 2.0) / 2.0 * x  # P_1
    total += p_curr
    # numpy floats: a denominator that rounds to 0.0 gives a NaN or inf
    # weight, which fit rejects, not a ZeroDivisionError
    for k in np.arange(2.0, order + 1.0):
        theta = (2.0 * k + a + b) * (2.0 * k + a + b - 1.0) / (2.0 * k * (k + a + b))
        theta_p = (
            (2.0 * k + a + b - 1.0) * (a * a - b * b)
            / (2.0 * k * (k + a + b) * (2.0 * k + a + b - 2.0))
        )
        theta_pp = (
            (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + a + b)
            / (k * (k + a + b) * (2.0 * k + a + b - 2.0))
        )
        p_next = theta * x * p_curr + theta_p * p_curr - theta_pp * p_prev
        total += p_next
        p_prev, p_curr = p_curr, p_next
    return np.maximum(total, 0.0)


@dataclass(frozen=True)
class HomophilyScores:
    """Per-node homophilic ratios in (0, 1]."""

    user_scores: np.ndarray
    item_scores: np.ndarray
    delta: int
    mode: str = "inclusive"


@dataclass(frozen=True)
class IgfConfig:
    """Anchor exponent beta and the individualized range [beta1, beta2],
    with 0 <= beta1 <= beta <= beta2 < inf; an end left as None equals beta."""

    beta: float = 1.0
    beta1: float | None = None
    beta2: float | None = None

    def __post_init__(self):
        if self.beta1 is None:
            object.__setattr__(self, "beta1", self.beta)
        if self.beta2 is None:
            object.__setattr__(self, "beta2", self.beta)
        check_real("beta2", self.beta2)
        check_real("beta1", self.beta1, lo=0)
        check_real("beta", self.beta)
        if not self.beta1 <= self.beta <= self.beta2:
            raise ConfigError(
                f"require beta1 <= beta <= beta2, got {self.beta1}, {self.beta}, {self.beta2}"
            )


@dataclass(frozen=True)
class IgfProfile:
    user_beta: np.ndarray
    item_beta: np.ndarray


def validate_delta(delta: int, mode: str) -> None:
    check_integer("delta", delta)
    if delta < 2 or delta % 2 != 0:
        raise OddDelta(f"delta must be an even integer >= 2, got {delta}")
    if mode not in ("inclusive", "strict"):
        raise ConfigError(f"mode must be 'inclusive' or 'strict', got {mode!r}")


def _cooccurrence_counts(RT: sp.csr_matrix, side: str, pool: BlockPool) -> np.ndarray:
    """Pairs (i, j) of each node's support with distance <= 2 after removing
    that node, for the nodes indexing RT's columns (RT's rows are their
    neighbors).

    Two distinct neighbors i, j of u remain at distance 2 without u iff
    they co-occur under at least one other node, i.e. their co-occurrence
    count (R^T R)[i, j] is >= 2 (u itself always contributes one). Diagonal
    pairs count unconditionally. That Gram can hold |neighbors|^2 entries,
    so it is never formed: for a block B of neighbor columns,
    Reach[:, B] = (R^T R[:, B] >= 2) is one dense block and each node u
    adds sum_{j in B} R[u, j] (R Reach[:, B])[u, j]. Reach is symmetric,
    so only its strict upper triangle (i < j) is built, from the rows
    before the block's end, and each unordered pair counts twice.

    The blocks run on ``pool`` (see ``_pair_block``), one per worker at a
    time, and the block width keeps all blocks in flight together within
    COOCCURRENCE_BLOCK_BYTES. Each worker sums its blocks' pair vectors
    in float64 and the workers' sums are added; the totals are integers
    below 2**53, so they do not depend on the worker count or the order
    of the blocks.
    """
    n_other, n_nodes = RT.shape
    dtype = np.float32 if max(RT.shape) <= 2**24 else np.float64
    RT = RT.astype(dtype)
    width = max(1, COOCCURRENCE_BLOCK_BYTES // (pool.workers * np.dtype(dtype).itemsize * max(*RT.shape, 1)))
    log.debug(
        "%s homophily: %d co-occurrence blocks of %d columns over %d neighbors",
        side, -(-n_other // width), width, n_other,
    )

    def count(starts):
        pairs = np.zeros(n_nodes, dtype=np.float64)
        for start in starts:
            pairs += _pair_block(RT, start, min(start + width, n_other))
        return pairs

    pairs = sum(pool.run(count, range(0, n_other, width)))
    return np.bincount(RT.indices, minlength=n_nodes) + 2 * pairs.astype(np.int64)


def _pair_block(RT: sp.csr_matrix, start: int, stop: int) -> np.ndarray:
    """Per node of RT's columns, its neighbor pairs i < j with j in rows
    [start, stop) that co-occur under another node, as float64. Every
    entry of a product is an integer no larger than max(RT.shape), which
    RT's dtype holds exactly (float32 up to 2**24)."""
    n_nodes = RT.shape[1]
    end = RT.indptr[stop]
    # R[:, :stop]^T as a view of RT's leading rows
    head = sp.csr_matrix((RT.data[:end], RT.indices[:end], RT.indptr[: stop + 1]), shape=(stop, n_nodes))
    block = RT[start:stop]
    reach = (head @ block.T.toarray() >= 2).astype(RT.dtype)
    reach[start:stop] = np.triu(reach[start:stop], 1)
    hits = head.T @ reach  # (R Reach[:, B])[u, j], i < j only
    local = np.repeat(np.arange(stop - start), np.diff(block.indptr))
    return np.bincount(block.indices, weights=hits[block.indices, local], minlength=n_nodes)


def _reach_counts(R: np.ndarray, steps: int) -> np.ndarray:
    """Pairs (i, j) of each node's support within 2 * steps hops after
    removing that node, for the nodes indexing the dense 0/1 matrix R's
    rows (R's columns are their neighbors).

    Without node u, two neighbors i, j are one step (two hops) apart iff
    they co-occur under some node other than u, i.e.
    (R^T R - r_u r_u^T)[i, j] > 0; the step matrix also keeps its unit
    diagonal, so a node stays reached. Starting from the identity rows of
    u's neighbors, ``steps`` boolean products with it give every neighbor's
    reach, and u counts the reached neighbors.
    """
    gram = R.T @ R
    eye = np.eye(R.shape[1])
    counts = np.zeros(len(R), dtype=np.int64)
    for node, row in enumerate(R):
        support = row > 0
        step = gram - np.outer(row, row) + eye > 0
        reach = eye[support] > 0
        for _ in range(steps):
            reach = reach @ step
        counts[node] = reach[:, support].sum()
    return counts


def homophilic_pair_counts(
    graph: BipartiteGraph, delta: int = 2, mode: str = "inclusive"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact numerator counts of the homophilic ratio for both sides.

    A neighbor pair (i, j) of node u counts when their graph distance
    with u removed is <= delta (inclusive) or < delta (strict); the
    diagonal pair i = j always counts. Distances between same-side nodes
    are even, so the strict indicator at delta equals the inclusive one
    at delta - 2. An effective delta of 0 counts the diagonal alone (the
    degrees), 2 runs the blocked co-occurrence count at any size, and 4 or
    more runs the reach-matrix count (``_reach_counts``) on graphs of at
    most HOMOPHILY_EXACT_CAP nodes.
    """
    validate_delta(delta, mode)
    effective = delta - 2 if mode == "strict" else delta
    if effective == 0:
        return graph.user_degrees.astype(np.int64).copy(), graph.item_degrees.astype(np.int64).copy()
    if effective == 2:
        with BlockPool() as pool:
            return (
                _cooccurrence_counts(graph.col_major, "user", pool),
                _cooccurrence_counts(graph.row_major, "item", pool),
            )
    n = graph.n_users + graph.n_items
    if n > HOMOPHILY_EXACT_CAP:
        raise SizeCapExceeded(
            f"exact homophily with delta >= 4 limited to {HOMOPHILY_EXACT_CAP} nodes, got {n}"
        )
    R = graph.row_major.toarray()
    return _reach_counts(R, effective // 2), _reach_counts(R.T, effective // 2)


def homophilic_ratio_all(
    graph: BipartiteGraph,
    delta: int = 2,
    mode: str = "inclusive",
) -> HomophilyScores:
    """Homophilic ratios for every user and item.

    Effective deltas (see ``homophilic_pair_counts``) up to 2 run at any
    scale; larger ones raise SizeCapExceeded above HOMOPHILY_EXACT_CAP
    nodes.
    Degree-zero nodes score 1 by convention (nothing to compare).
    """
    user_counts, item_counts = homophilic_pair_counts(graph, delta, mode)
    return HomophilyScores(
        user_scores=_counts_to_scores(user_counts, graph.user_degrees),
        item_scores=_counts_to_scores(item_counts, graph.item_degrees),
        delta=delta,
        mode=mode,
    )


def _counts_to_scores(counts: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    scores = np.ones(len(counts), dtype=np.float64)
    active = degrees > 0
    scores[active] = counts[active] / np.square(degrees[active].astype(np.float64))
    return scores


def map_homo_to_beta(
    scores: HomophilyScores, cfg: IgfConfig, scope: str = "per_side"
) -> IgfProfile:
    """Linear map of homophilic ratios onto [beta1, beta2].

    Each side uses its own min/max by default; pass scope='global' to
    share one range across users and items. A degenerate range (all
    scores equal) maps every node to the anchor beta.
    """
    if scope not in ("per_side", "global"):
        raise ConfigError(f"scope must be 'per_side' or 'global', got {scope!r}")
    users, items = scores.user_scores, scores.item_scores
    if scope == "global":
        pooled = np.concatenate([users, items])
        user_range = item_range = (float(pooled.min()), float(pooled.max()))
    else:
        user_range = (float(users.min()), float(users.max()))
        item_range = (float(items.min()), float(items.max()))
    return IgfProfile(
        user_beta=_linear_map(users, *user_range, cfg),
        item_beta=_linear_map(items, *item_range, cfg),
    )


def _linear_map(values: np.ndarray, lo: float, hi: float, cfg: IgfConfig) -> np.ndarray:
    if hi <= lo:
        return np.full(len(values), cfg.beta, dtype=np.float64)
    return cfg.beta1 + (values - lo) * (cfg.beta2 - cfg.beta1) / (hi - lo)
