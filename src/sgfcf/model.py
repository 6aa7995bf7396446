"""Closed-form SGFCF scoring and top-k recommendation.

A fitted model scores user u against item i as

    sum_k P[u,k] Q[i,k] * sigma_norm[k]^(beta_u + beta_i)
    + gamma * (W W^T W)[u, i]

where W is the renormalized interaction matrix, (P, Q, sigma) its
truncated SVD, and the per-node exponents come from the homophily
mapping. The second term reintroduces an all-frequency signal scaled
by gamma. There is no iterative training anywhere in the pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dataset import InteractionDataset
from .errors import BandOutOfRange, ConfigError, KTooLarge, UnknownUser
from .filters import (
    FilterFamily,
    HomophilyScores,
    IgfConfig,
    IgfProfile,
    eval_filter,
    homophilic_ratio_all,
    map_homo_to_beta,
    power_clamped,
    validate_delta,
)
from .graph import (
    BipartiteGraph,
    DENSE_ORACLE_CAP,
    G2NConfig,
    NormalizedMatrix,
    build_graph,
    duplicate_item_sources,
    g2n_normalize,
)
from .spectral import TruncatedSpectrum, dense_svd, svd_residual_max, truncated_svd


@dataclass(frozen=True)
class SgfcfConfig:
    """Everything needed to fit a model. ``filter=None`` selects the
    individualized monomial filter driven by ``igf``; setting an explicit
    family instead applies that filter uniformly to all nodes."""

    K: int
    g2n: G2NConfig = field(default_factory=G2NConfig)
    igf: IgfConfig = field(default_factory=IgfConfig)
    gamma: float = 0.0
    delta: int = 2
    filter: FilterFamily | None = None
    homo_mode: str = "inclusive"
    homo_scope: str = "per_side"
    svd_oversample: int = 8
    svd_power_iters: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.homo_scope not in ("per_side", "global"):
            raise ConfigError(f"homo_scope must be 'per_side' or 'global', got {self.homo_scope!r}")


@dataclass(frozen=True)
class RankedList:
    user_id: int
    items: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class SgfcfModel:
    """Immutable scoring state produced by :func:`fit`."""

    spectrum: TruncatedSpectrum
    profile: IgfProfile | None
    norm: NormalizedMatrix
    config: SgfcfConfig
    train_csr: sp.csr_matrix
    user_factors: np.ndarray  # P weighted by per-user filter values
    item_factors: np.ndarray  # Q weighted by per-item filter values
    duplicate_items: np.ndarray  # items whose train column equals a lower id's
    duplicate_sources: np.ndarray  # the lowest id sharing each one's column
    homophily: HomophilyScores | None = None
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

    def recommend(self, u: int, k: int = 10, exclude_train: bool = True) -> RankedList:
        return recommend(self, u, k, exclude_train)


def _factor_weights(
    spectrum: TruncatedSpectrum,
    config: SgfcfConfig,
    profile: IgfProfile | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise filter values applied to P and Q.

    Individualized path: user u gets sigma^beta_u, item i gets
    sigma^beta_i, so the score picks up sigma^(beta_u + beta_i).
    Shared path: both sides get g(sigma), so the score sees g(sigma)^2.
    """
    sigma = spectrum.sigma_normalized
    if config.filter is None:
        assert profile is not None
        user_w = power_clamped(sigma[None, :], profile.user_beta[:, None])
        item_w = power_clamped(sigma[None, :], profile.item_beta[:, None])
        return spectrum.P * user_w, spectrum.Q * item_w
    weights = eval_filter(config.filter, sigma)
    return spectrum.P * weights[None, :], spectrum.Q * weights[None, :]


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

    Precomputed stages can be passed in (grid search reuses spectra and
    homophily scores across configurations); anything omitted is derived
    from the dataset. Homophily is skipped, and ``model.homophily`` left
    None, when an explicit filter is set or when beta1 == beta2 and no
    scores are passed in: the exponent range is then the single point
    beta, so every node gets beta whatever its homophilic ratio.
    """
    start = time.perf_counter()
    if graph is None:
        graph = build_graph(dataset)
    if config.K > min(graph.n_users, graph.n_items):
        raise KTooLarge(
            f"K={config.K} exceeds min(|U|,|I|)={min(graph.n_users, graph.n_items)}"
        )
    if norm is None:
        norm = g2n_normalize(graph, config.g2n)
    if spectrum is None:
        spectrum = truncated_svd(
            norm,
            config.K,
            oversample=config.svd_oversample,
            power_iters=config.svd_power_iters,
            seed=config.seed,
        )
    elif len(spectrum) > config.K:
        spectrum = spectrum.truncate(config.K)

    profile = None
    if config.filter is None:
        igf = config.igf
        if homophily is None and igf.beta1 == igf.beta2:
            validate_delta(config.delta, config.homo_mode)
            profile = IgfProfile(
                user_beta=np.full(graph.n_users, igf.beta),
                item_beta=np.full(graph.n_items, igf.beta),
            )
        else:
            if homophily is None:
                homophily = homophilic_ratio_all(
                    graph, delta=config.delta, mode=config.homo_mode, seed=config.seed
                )
            profile = map_homo_to_beta(homophily, igf, scope=config.homo_scope)

    user_factors, item_factors = _factor_weights(spectrum, config, profile)
    sources = duplicate_item_sources(graph)
    copies = np.flatnonzero(sources != np.arange(graph.n_items))
    return SgfcfModel(
        spectrum=spectrum,
        profile=profile,
        norm=norm,
        config=config,
        train_csr=graph.row_major,
        user_factors=user_factors,
        item_factors=item_factors,
        duplicate_items=copies,
        duplicate_sources=sources[copies],
        homophily=homophily,
        fit_seconds=time.perf_counter() - start,
    )


def _check_user(model: SgfcfModel, u: int) -> None:
    if not 0 <= u < model.n_users:
        raise UnknownUser(f"user id {u} outside [0, {model.n_users})")


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
    _check_user(model, u)
    scores = model.item_factors @ model.user_factors[u]
    if model.config.gamma > 0:
        W = model.norm.values
        # W^T (W r_u^T): two sparse matrix-vector products through a dense
        # |U|-vector; the sparse row product r_u W^T W costs several times more.
        row = W.T @ (W @ W[u].toarray().ravel())
        scores = scores + model.config.gamma * row
    return _tie_duplicates(model, scores)


def score_users(model: SgfcfModel, users) -> np.ndarray:
    """Score rows for a batch of users (rows align with ``users``).

    Memory is O(len(users) * max(|U|, |I|)); callers bound it by chunking.
    """
    users = np.asarray(users, dtype=np.int64)
    if len(users) and (users.min() < 0 or users.max() >= model.n_users):
        raise UnknownUser("user id outside valid range in batch")
    scores = model.user_factors[users] @ model.item_factors.T
    if model.config.gamma > 0:
        W = model.norm.values
        # (W^T (W W_users^T))^T through a dense |U| x len(users) block; the
        # sparse product W_users W^T W fills in to nearly dense and costs
        # several times more.
        block = W.T @ (W @ W[users].T).toarray()
        scores += model.config.gamma * block.T
    return _tie_duplicates(model, scores)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column ids of each row's k largest scores, score-descending with
    ties broken by ascending column id.

    Row for row this equals ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``
    (so -inf entries come last and NaN after them), but only the entries
    that tie with or beat each row's k-th score are sorted.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    n_rows, n_cols = neg.shape
    k = min(k, n_cols)
    if k <= 0:
        return np.empty((n_rows, 0), dtype=np.intp)
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


def _ranked_from_scores(
    scores: np.ndarray, u: int, k: int, exclude: np.ndarray | None
) -> RankedList:
    scores = scores.astype(np.float64, copy=True)
    if exclude is not None and len(exclude):
        scores[exclude] = -np.inf
    order = top_k(scores[None, :], k)[0]
    keep = np.isfinite(scores[order])
    order = order[keep]
    return RankedList(user_id=u, items=order, scores=scores[order])


def recommend(model: SgfcfModel, u: int, k: int = 10, exclude_train: bool = True) -> RankedList:
    """Top-k items by score, optionally excluding the user's train items."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scores = score_user(model, u)
    exclude = model.train_items(u) if exclude_train else None
    return _ranked_from_scores(scores, u, k, exclude)


@dataclass(frozen=True)
class BandScorer:
    """Uniform band filter over components [k_lo, k_hi] (1-indexed).

    Scores are sum_{k in band} P[u,k] Q[i,k]; with the full band this is
    the rank-restricted reconstruction P Q^T of the normalized matrix's
    rating structure.
    """

    spectrum: TruncatedSpectrum
    k_lo: int
    k_hi: int
    train_csr: sp.csr_matrix

    @property
    def n_users(self) -> int:
        return self.train_csr.shape[0]

    @property
    def n_items(self) -> int:
        return self.train_csr.shape[1]

    def train_items(self, u: int) -> np.ndarray:
        return self.train_csr.indices[self.train_csr.indptr[u] : self.train_csr.indptr[u + 1]]

    def score_user(self, u: int) -> np.ndarray:
        if not 0 <= u < self.n_users:
            raise UnknownUser(f"user id {u} outside [0, {self.n_users})")
        lo, hi = self.k_lo - 1, self.k_hi
        return self.spectrum.Q[:, lo:hi] @ self.spectrum.P[u, lo:hi]

    def score_users(self, users) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        lo, hi = self.k_lo - 1, self.k_hi
        return self.spectrum.P[users, lo:hi] @ self.spectrum.Q[:, lo:hi].T

    def recommend(self, u: int, k: int = 10, exclude_train: bool = True) -> RankedList:
        scores = self.score_user(u)
        exclude = self.train_items(u) if exclude_train else None
        return _ranked_from_scores(scores, u, k, exclude)


def sgf_band_scores(
    norm: NormalizedMatrix,
    k_lo: int,
    k_hi: int,
    spectrum: TruncatedSpectrum | None = None,
    oversample: int = 8,
    power_iters: int = 8,
    seed: int = 0,
) -> BandScorer:
    """Scorer for the uniform band filter; used by frequency sweeps.

    Computes a spectrum if one is not supplied: dense at oracle sizes,
    truncated at k_hi otherwise.
    """
    if spectrum is None:
        if min(norm.shape) <= DENSE_ORACLE_CAP:
            spectrum = dense_svd(norm)
        else:
            spectrum = truncated_svd(
                norm, k_hi, oversample=oversample, power_iters=power_iters, seed=seed
            )
    if not 1 <= k_lo <= k_hi <= len(spectrum):
        raise BandOutOfRange(
            f"band [{k_lo}, {k_hi}] invalid for a spectrum of length {len(spectrum)}"
        )
    train_csr = norm.values.copy()
    train_csr.data = np.ones_like(train_csr.data)
    return BandScorer(spectrum=spectrum, k_lo=k_lo, k_hi=k_hi, train_csr=train_csr.tocsr())


def model_summary(model: SgfcfModel) -> dict:
    """JSON-ready digest: config echo, spectrum head and quality, timing."""
    sigma_head = model.spectrum.sigma_normalized[:10]
    return {
        "config": config_to_dict(model.config),
        "K": len(model.spectrum),
        "sigma_normalized_head": [float(s) for s in sigma_head],
        "svd_residual_max": svd_residual_max(model.norm, model.spectrum),
        "n_users": model.n_users,
        "n_items": model.n_items,
        "train_interactions": int(model.train_csr.nnz),
        "fit_seconds": model.fit_seconds,
    }


def filter_to_dict(family: FilterFamily | None) -> dict | None:
    if family is None:
        return None
    name = type(family).__name__.replace("Filter", "").lower()
    payload = {"family": name}
    payload.update({k: v for k, v in family.__dict__.items()})
    return payload


def config_to_dict(config: SgfcfConfig) -> dict:
    return {
        "K": config.K,
        "alpha": config.g2n.alpha,
        "epsilon": config.g2n.epsilon,
        "beta": config.igf.beta,
        "beta1": config.igf.beta1,
        "beta2": config.igf.beta2,
        "gamma": config.gamma,
        "delta": config.delta,
        "filter": filter_to_dict(config.filter),
        "homo_mode": config.homo_mode,
        "homo_scope": config.homo_scope,
        "svd_oversample": config.svd_oversample,
        "svd_power_iters": config.svd_power_iters,
        "seed": config.seed,
    }


def write_recommendations_csv(model, users, k: int, path: str, exclude_train: bool = True) -> None:
    """Dump top-k lists as ``user_id,rank,item_id,score`` rows."""
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["user_id", "rank", "item_id", "score"])
        for u in users:
            ranked = model.recommend(int(u), k=k, exclude_train=exclude_train)
            for rank, (item, score) in enumerate(zip(ranked.items, ranked.scores), start=1):
                writer.writerow([ranked.user_id, rank, int(item), repr(float(score))])
