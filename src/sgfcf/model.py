"""Closed-form SGFCF scoring and top-k recommendation.

A fitted model scores user u against item i as

    sum_k P[u,k] Q[i,k] * sigma_norm[k]^(beta_u + beta_i)
    + gamma * (W W^T W)[u, i]

where W is the renormalized interaction matrix, (P, Q, sigma) its
truncated SVD, and the per-node exponents come from the homophily
mapping. A filter g that all nodes share gives g(sigma_norm[k])^2 in
place of the power; the model then keeps the spectrum's own P and Q and
multiplies that row into each scored user's rows of P. The second term
reintroduces an all-frequency signal scaled by gamma. There is no
iterative training anywhere in the pipeline.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataset import InteractionDataset
from .errors import ConfigError, KTooLarge, UnknownUser, check_integer, check_real
from .filters import (
    FilterFamily,
    HomophilyScores,
    IgfConfig,
    IgfProfile,
    MonomialFilter,
    eval_filter,
    homophilic_ratio_all,
    map_homo_to_beta,
    validate_delta,
)
from .graph import (
    BipartiteGraph,
    G2NConfig,
    NormalizedMatrix,
    build_graph,
    duplicate_item_sources,
    g2n_normalize,
)
from .spectral import TruncatedSpectrum, _sparse_gram, gram_bound, svd_residual_max, top_k_svd, validate_svd_settings


@dataclass(frozen=True)
class SgfcfConfig:
    """Everything needed to fit a model. ``filter=None`` selects the
    individualized monomial filter driven by ``igf``; setting an explicit
    family instead applies that filter uniformly to all nodes."""

    K: int = 64
    g2n: G2NConfig = field(default_factory=G2NConfig)
    igf: IgfConfig = field(default_factory=IgfConfig)
    gamma: float = 0.0
    delta: int = 2
    filter: FilterFamily | None = None
    homo_mode: str = "inclusive"
    homo_scope: str = "per_side"
    # used only when spectral.top_k_svd takes the Krylov path
    svd_oversample: int = 8
    svd_power_iters: int = 8
    seed: int = 0

    def __post_init__(self):
        check_integer("K", self.K, lo=1)
        check_real("gamma", self.gamma, lo=0)
        if self.homo_scope not in ("per_side", "global"):
            raise ConfigError(f"homo_scope must be 'per_side' or 'global', got {self.homo_scope!r}")
        validate_delta(self.delta, self.homo_mode)
        validate_svd_settings(self.svd_oversample, self.svd_power_iters, self.seed)

    @property
    def shared_filter(self) -> FilterFamily | None:
        """The one filter all nodes share, or None for individualized
        exponents (no explicit filter, beta1 < beta2). At beta1 == beta2
        every node maps to beta: the config is exactly sigma^beta."""
        if self.filter is None and self.igf.beta1 == self.igf.beta2:
            return MonomialFilter(self.igf.beta)
        return self.filter


def svd_settings(config: SgfcfConfig) -> dict:
    """``top_k_svd``'s keyword arguments for ``config``."""
    return {"oversample": config.svd_oversample, "power_iters": config.svd_power_iters, "seed": config.seed}


@dataclass(frozen=True)
class RankedList:
    user_id: int
    items: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class SgfcfModel:
    """Immutable scoring state produced by :func:`fit`."""

    spectrum: TruncatedSpectrum
    norm: NormalizedMatrix
    config: SgfcfConfig
    train_csr: sp.csr_matrix
    # (user_factors[u] * user_weights) . item_factors[i] is the factor score
    # (see _factor_weights): shared filter, the spectrum's own P and Q with
    # the row g(sigma)^2; individualized, P and Q weighted by per-node
    # filter values with a row of ones. max(user_weights) bounds every
    # factor score.
    user_factors: np.ndarray
    item_factors: np.ndarray
    user_weights: np.ndarray
    duplicate_items: np.ndarray  # items whose train column equals a lower id's
    duplicate_sources: np.ndarray  # the lowest id sharing each one's column
    fit_seconds: float = 0.0

    @property
    def n_users(self) -> int:
        return self.train_csr.shape[0]

    @property
    def n_items(self) -> int:
        return self.train_csr.shape[1]

    def train_items(self, u: int) -> np.ndarray:
        return self.train_csr.indices[self.train_csr.indptr[u] : self.train_csr.indptr[u + 1]]

    def score_user(self, u: int) -> np.ndarray:
        return score_user(self, u)

    def score_users(self, users: np.ndarray) -> np.ndarray:
        return score_users(self, users)

    def recommend(self, u: int, k: int = 10) -> RankedList:
        return recommend(self, u, k)


def _factor_weights(
    spectrum: TruncatedSpectrum,
    config: SgfcfConfig,
    profile: IgfProfile | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The user factors, item factors and the length-K row of user weights,
    whose weighted row products are the factor scores; the row's largest
    entry bounds every factor score.

    Shared path (no profile): every node has the config's shared filter
    g, so the score sums P[u,k] g(sigma_k)^2 Q[i,k]. The factors are the
    spectrum's own P and Q, not copies, and the row is g(sigma)^2, which
    scoring multiplies into each scored user's rows of P. By Cauchy-Schwarz
    (rows of P and Q have norm at most 1) max g^2 bounds every factor
    score; ConfigError, naming the filter, when it is not finite.
    Individualized path: ``profile`` holds the per-node exponents, which
    are used here and not kept. User u gets sigma^beta_u, item i gets
    sigma^beta_i, so the score picks up sigma^(beta_u + beta_i); each side
    is its (n, K) weight multiplied by P or Q in place, and the row is
    ones. sigma_normalized lies in (0, 1] with sigma_1 = 1 and every beta
    is at least beta1 >= 0, so every weight lies in [0, 1], each node's
    first is 1, and the row's 1 bounds every factor score.
    """
    sigma = spectrum.sigma_normalized
    if profile is None:
        g = eval_filter(config.shared_filter, sigma)
        with np.errstate(over="ignore"):
            weights = g * g
        if not np.isfinite(weights.max()):
            raise ConfigError(f"{config.shared_filter} gives filter weights whose factor scores are not finite")
        return spectrum.P, spectrum.Q, weights
    user_w = np.power(sigma[None, :], profile.user_beta[:, None])
    item_w = np.power(sigma[None, :], profile.item_beta[:, None])
    user_w *= spectrum.P
    item_w *= spectrum.Q
    return user_w, item_w, np.ones(len(sigma))


def factor_bytes(config: SgfcfConfig, n_users: int, n_items: int) -> int:
    """Bytes of the factors ``fit`` makes beside the spectrum (see
    _factor_weights): none for a shared filter, whose factors are the
    spectrum's own, and K doubles per node of both sides for an
    individualized config."""
    return 0 if config.shared_filter is not None else 8 * config.K * (n_users + n_items)


def check_score_bound(user_weights: np.ndarray, gamma: float, norm: NormalizedMatrix) -> None:
    """Raise ConfigError unless max(user_weights) + gamma * b^3 is finite,
    with ``user_weights`` a fitted model's row, whose largest entry bounds
    every factor score (see _factor_weights), and b = sqrt(gram_bound(W))
    >= sigma_1(W). Every entry of W W^T W is at most sigma_1^3 in
    magnitude, so the sum bounds every score at this gamma."""
    if gamma == 0:
        return
    factor_bound = float(user_weights.max())
    b = np.sqrt(gram_bound(norm.values))
    with np.errstate(over="ignore"):
        bound = factor_bound + gamma * b**3
    if not np.isfinite(bound):
        raise ConfigError(f"gamma={gamma} gives scores whose bound {factor_bound} + gamma * {b:.6g}^3 is not finite")


def fit(
    dataset: InteractionDataset,
    config: SgfcfConfig,
    graph: BipartiteGraph | None = None,
    norm: NormalizedMatrix | None = None,
    spectrum: TruncatedSpectrum | None = None,
    homophily: HomophilyScores | None = None,
) -> SgfcfModel:
    """Run the training-free pipeline: normalize, decompose, and build
    per-node filter factors.

    Precomputed stages can be passed in (grid search and frequency sweeps
    reuse spectra, grid search also homophily scores, across
    configurations); they must have been built for this config and graph,
    and a passed graph for the dataset's users and items, else
    ConfigError. A passed spectrum must hold at least K triplets and is
    cut to K. Anything omitted is derived from the dataset. Homophily
    runs before the SVD, so a config it rejects fails before the costly
    stage. Homophily and the exponent profile are built, or the passed
    scores read, only for an individualized config, and only to weight its
    factors (see _factor_weights); the model keeps neither. A shared config
    (``config.shared_filter``, which covers beta1 == beta2) keeps the
    spectrum's P and Q as its factors and its filter row, squared, as
    ``model.user_weights``, so it allocates no n x K array and uses no
    homophily scores.
    """
    start = time.perf_counter()
    shape = (dataset.n_users, dataset.n_items)
    if graph is None:
        graph = build_graph(dataset)
    elif (graph.n_users, graph.n_items) != shape:
        raise ConfigError(f"graph of {graph.n_users} x {graph.n_items} for a dataset of shape {shape}")
    if config.K > min(shape):
        raise KTooLarge(f"K={config.K} exceeds min(|U|,|I|)={min(shape)}")
    if norm is not None and (norm.config, norm.shape) != (config.g2n, shape):
        raise ConfigError(
            f"normalized matrix built for {norm.config} on {norm.shape}; config asks {config.g2n} on {shape}"
        )
    if homophily is not None and (
        (homophily.delta, homophily.mode, len(homophily.user_scores), len(homophily.item_scores))
        != (config.delta, config.homo_mode, *shape)
    ):
        raise ConfigError(
            f"homophily scores built for delta={homophily.delta}, mode={homophily.mode!r} on "
            f"{(len(homophily.user_scores), len(homophily.item_scores))}; config asks "
            f"delta={config.delta}, mode={config.homo_mode!r} on {shape}"
        )
    if spectrum is not None and (len(spectrum.P), len(spectrum.Q)) != shape:
        raise ConfigError(
            f"spectrum of {len(spectrum.P)} x {len(spectrum.Q)} rows for a "
            f"{graph.n_users} x {graph.n_items} graph"
        )

    profile = None
    if config.shared_filter is None:
        if homophily is None:
            homophily = homophilic_ratio_all(graph, delta=config.delta, mode=config.homo_mode)
        profile = map_homo_to_beta(homophily, config.igf, scope=config.homo_scope)

    if norm is None:
        norm = g2n_normalize(graph, config.g2n)
    if spectrum is None:
        spectrum = top_k_svd(norm, config.K, **svd_settings(config))
    else:
        spectrum = spectrum.truncate(config.K)

    user_factors, item_factors, user_weights = _factor_weights(spectrum, config, profile)
    check_score_bound(user_weights, config.gamma, norm)
    sources = duplicate_item_sources(graph)
    copies = np.flatnonzero(sources != np.arange(graph.n_items))
    return SgfcfModel(
        spectrum=spectrum,
        norm=norm,
        config=config,
        train_csr=graph.row_major,
        user_factors=user_factors,
        item_factors=item_factors,
        user_weights=user_weights,
        duplicate_items=copies,
        duplicate_sources=sources[copies],
        fit_seconds=time.perf_counter() - start,
    )


def _tie_duplicates(model: SgfcfModel, scores: np.ndarray) -> np.ndarray:
    """Give each duplicate item its source's score, bit for bit.

    Identical train columns score equally in exact arithmetic, but BLAS
    kernels round identical factor rows differently depending on where the
    row falls, so without this roundoff rather than the ascending-id rule
    would order the copies.
    """
    scores[..., model.duplicate_items] = scores[..., model.duplicate_sources]
    return scores


def score_user(model: SgfcfModel, u: int) -> np.ndarray:
    """Full score row for one user; materializes only |I| floats."""
    check_integer("user id", u, 0, model.n_users - 1, UnknownUser)
    scores = model.item_factors @ (model.user_factors[u] * model.user_weights)
    if model.config.gamma > 0:
        W = model.norm.values
        # W^T (W r_u^T): two sparse matrix-vector products through a dense
        # |U|-vector; the sparse row product r_u W^T W costs several times more.
        # r_u is scattered straight from W's CSR arrays and W^T is the stored
        # values_t, so no sparse object is built per call (W[u] and W.T took
        # about a quarter of a grid-tune recommend); the bits are the same.
        lo, hi = W.indptr[u], W.indptr[u + 1]
        r_u = np.zeros(W.shape[1])
        r_u[W.indices[lo:hi]] = W.data[lo:hi]
        scores += model.config.gamma * (model.norm.values_t @ (W @ r_u))
    return _tie_duplicates(model, scores)


# Item columns per step of add_gamma_term's transposed add.
GAMMA_TILE = 256


def score_users(model: SgfcfModel, users) -> np.ndarray:
    """Score rows for a batch of users (rows align with ``users``):
    ``(user_factors[users] * user_weights) @ item_factors.T``, so a shared
    filter's row weights only the batch's rows of P.

    Beside the len(users) x |I| result, the gamma term holds the dense
    |U| x len(users) D = W W_users^T and one GAMMA_TILE item tile of
    W^T D at a time (and, while D is filled, one row piece of its sparse
    form), never the whole |I| x len(users) ``gamma_block``; callers bound
    the memory by chunking. A non-empty batch must be of integer dtype
    (bools are not), else ConfigError.
    """
    users = np.asarray(users)
    if len(users) and users.dtype.kind not in "iu":
        raise ConfigError(f"user ids must be integers, got dtype {users.dtype}")
    users = users.astype(np.int64, copy=False)
    if len(users) and (users.min() < 0 or users.max() >= model.n_users):
        raise UnknownUser("user id outside valid range in batch")
    scores = _tie_duplicates(model, (model.user_factors[users] * model.user_weights) @ model.item_factors.T)
    if model.config.gamma > 0:
        D = _gamma_dense(model.norm, users)
        return add_gamma_term(scores, model.config.gamma, lambda tile: model.norm.values_t[tile] @ D)
    return scores


def _gamma_dense(norm: NormalizedMatrix, users: np.ndarray) -> np.ndarray:
    """W W_users^T as a dense |U| x len(users) block (the sparse product
    W_users W^T W fills in to nearly dense and costs several times more),
    filled by ``spectral._sparse_gram`` in row pieces on one worker, as
    its callers already run inside an evaluation's workers."""
    return _sparse_gram(norm.values, norm.values[users].T, workers=1)


def gamma_block(norm: NormalizedMatrix, users: np.ndarray) -> np.ndarray:
    """W^T (W W_users^T), the whole |I| x len(users) block behind the
    gamma term, for a caller that adds it several times (a grid's gammas
    on one chunk); ``add_gamma_term(scores, gamma, block.__getitem__)``
    adds it."""
    return norm.values_t @ _gamma_dense(norm, users)


def add_gamma_term(scores: np.ndarray, gamma: float, tile_rows) -> np.ndarray:
    """``scores += gamma * B.T`` in place, B the |I| x len(users)
    ``gamma_block``, of which ``tile_rows(tile)`` gives the rows in the
    slice ``tile``.

    The add runs over GAMMA_TILE item columns at a time, which keeps the
    transposed reads in cache and never materializes the whole scaled
    transpose, nor B when ``tile_rows`` forms each tile as it is asked.
    Each entry gets the same single add either way, and a row of W^T D
    (a CSR row times a dense D) sums its stored entries in the same order
    whatever row slice it is formed in. A duplicate item's row of B equals
    its source's bit for bit (their columns of W are equal), so scores
    tied before the add stay tied after it.
    """
    for start in range(0, scores.shape[1], GAMMA_TILE):
        tile = slice(start, start + GAMMA_TILE)
        scores[:, tile] += gamma * tile_rows(tile).T
    return scores


# Columns per group of top_k's group maxima.
TOP_K_GROUP = 32
# Fewest entries (rows x columns) that top_k ranks through the group
# maxima: below about 5000 the partition of whole rows took less time on
# 1-8 rows (CiteULike-shape score rows, 2 cores), as the group path has
# a fixed cost of some 25 numpy calls.
TOP_K_MIN_ENTRIES = 5000


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column ids of each row's k largest scores, score-descending with
    ties broken by ascending column id.

    Row for row this equals ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``
    (so -inf entries come last and NaN after them), but only a few entries
    per row are sorted. The first TOP_K_GROUP * nb columns split into nb
    groups of TOP_K_GROUP strided columns {g, g+nb, ...}; one reduction
    gives every group's maximum without copying the scores. The k-th
    largest group maximum t is a lower bound on the row's k-th score, since
    at least k groups hold an entry >= t. So the row's top k are among the
    entries >= t of the groups whose maximum is >= t and of the tail
    columns past the groups, and only those are sorted. Rows with a NaN in
    some group (NaN spreads into the group's maximum) or a bound of -inf,
    and scores with fewer than 2k groups or TOP_K_MIN_ENTRIES entries, are
    ranked by partitioning whole rows instead.
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    n_rows, n_cols = scores.shape
    k = min(k, n_cols)
    if k <= 0:
        return np.empty((n_rows, 0), dtype=np.intp)
    nb = n_cols // TOP_K_GROUP
    if nb < 2 * k or scores.size < TOP_K_MIN_ENTRIES:
        return _top_k_partition(scores, k)
    width = TOP_K_GROUP * nb
    maxima = np.maximum.reduce(scores[:, :width].reshape(n_rows, TOP_K_GROUP, nb), axis=1)
    t = np.partition(maxima, nb - k, axis=1)[:, nb - k : nb - k + 1]
    slow = np.isnan(maxima).any(axis=1) | (t[:, 0] == -np.inf)
    # a NaN bound selects nothing, so the slow rows get no candidates
    t[slow] = np.nan
    # candidates as flat positions row * n_cols + column
    rows, groups = np.nonzero(maxima >= t)
    pos = (rows * n_cols + groups)[:, None] + nb * np.arange(TOP_K_GROUP)
    flat = scores.reshape(-1)
    pos = pos[flat[pos] >= t[rows]]
    tail_rows, tail_cols = np.nonzero(scores[:, width:] >= t)
    pos = np.concatenate([pos, tail_rows * n_cols + (width + tail_cols)])
    rows = pos // n_cols
    # -value rather than value: lexsort is stable and ascending, and
    # compares -0.0 and 0.0 as equal, as the stable argsort does; within a
    # row, position order is column order
    order = np.lexsort((pos, -flat[pos], rows))
    # every fast row has at least k candidates: the maxima of k groups
    fast = np.flatnonzero(~slow)
    starts = np.searchsorted(rows[order], fast)
    top = np.empty((n_rows, k), dtype=np.intp)
    top[fast] = pos[order[starts[:, None] + np.arange(k)]] - n_cols * fast[:, None]
    if len(fast) < n_rows:
        top[slow] = _top_k_partition(scores[slow], k)
    return top


def _top_k_partition(scores: np.ndarray, k: int) -> np.ndarray:
    """top_k by an argpartition of whole rows, for 1 <= k <= width."""
    neg = -scores
    n_rows = neg.shape[0]
    kth = np.take_along_axis(neg, np.argpartition(neg, k - 1, axis=1)[:, k - 1 : k], axis=1)
    # Every entry not worse than the k-th: at least k per row, more when
    # ties straddle the k-th place. Testing "not greater" rather than "less
    # or equal" keeps NaN entries, which sort last, so a row whose k-th
    # value is NaN keeps all its entries.
    rows, cols = np.nonzero(~(neg > kth))
    # Rows come out ascending with ascending columns inside each row, so a
    # stable sort keyed on (row, value) leaves ties in column order.
    order = np.lexsort((neg[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(n_rows))
    return cols[order[starts[:, None] + np.arange(k)]]


def recommend(model: SgfcfModel, u: int, k: int = 10) -> RankedList:
    """Top-k items by score, excluding the user's train items.

    Ranks like ``evaluate``: train items score -inf, ``top_k`` orders the
    row, and the list keeps only finite scores."""
    check_integer("k", k, lo=1)
    scores = score_user(model, u)
    scores[model.train_items(u)] = -np.inf
    order = top_k(scores[None, :], k)[0]
    order = order[np.isfinite(scores[order])]
    return RankedList(user_id=u, items=order, scores=scores[order])


def model_summary(model: SgfcfModel) -> dict:
    """JSON-ready digest: config echo, spectrum head and quality, timing."""
    sigma_head = model.spectrum.sigma_normalized[:10]
    return {
        "config": serialize_config(model.config),
        "K": len(model.spectrum),
        "sigma_normalized_head": [float(s) for s in sigma_head],
        "svd_residual_max": svd_residual_max(model.norm, model.spectrum),
        "n_users": model.n_users,
        "n_items": model.n_items,
        "train_interactions": int(model.train_csr.nnz),
        "fit_seconds": model.fit_seconds,
    }


def serialize_config(config) -> dict:
    """JSON form of a config dataclass: ``dataclasses.asdict`` with a
    filter family's name added, since asdict alone gives
    MonomialFilter(2) and ExponentialFilter(2) the same dict."""
    payload = asdict(config)
    family = getattr(config, "filter", None)
    if family is not None:
        name = type(family).__name__.removesuffix("Filter").lower()
        payload["filter"] = {"family": name, **payload["filter"]}
    return payload
