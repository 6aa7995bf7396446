"""Ranking metrics, frequency sweeps, and hyperparameter grid search.

Metrics follow the usual implicit-feedback protocol: for each user with
a non-empty held-out set, rank all items the model did not see in
training, truncate at k, and average Recall@k and nDCG@k arithmetically
over evaluable users.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import filters, parallel
from .dataset import InteractionDataset
from .errors import (
    ConfigError,
    EmptyTestSet,
    EmptyValidation,
    KTooLarge,
    NoEvaluableUsers,
    check_integer,
    check_real,
)
from .filters import IgfConfig, MonomialFilter
from .graph import G2NConfig, build_graph, g2n_normalize
from .model import (
    RankedList,
    SgfcfConfig,
    add_gamma_term,
    check_score_bound,
    factor_bytes,
    fit,
    gamma_block,
    svd_settings,
    top_k,
)
from .spectral import top_k_svd

GRID_AXES = ("alpha", "epsilon", "K", "beta", "beta1", "beta2", "gamma")
# Tuning lattices; axes must sit on multiples of these steps.
AXIS_STEPS = {"alpha": 1.0, "epsilon": 0.02, "beta": 0.1, "beta1": 0.1, "beta2": 0.1, "gamma": 0.1}
# Most users whose score rows an evaluation holds at once. At w workers the
# calling thread and w - 1 pool threads score chunks of EVAL_CHUNK // w
# users, so memory stays at about EVAL_CHUNK score rows (and their top-k
# work) whatever the worker count. At CiteULike shape with gamma on, 512
# users' arrays (92 MB) put a test evaluate's peak above the SVD's: in fresh
# processes at seed 5, ru_maxrss read 268 MB after fit and 318 MB after a
# 512-user evaluate, and 268 MB after a 256-user one (46 MB), which took
# about 0.24 s more of a 1.7 s evaluate (medians of 6 alternating runs, 2
# cores).
EVAL_CHUNK = 256
# Most bytes of factors (``model.factor_bytes``) that grid_search keeps alive
# in one validation pass; an (alpha, epsilon) group's factor sets beyond it
# are validated in further passes, each of which recomputes the exclusion
# and the gamma block. Criterion 9's shared group at CiteULike shape counts
# 142 MB and takes one pass. Individualized, its sets count 577 MB, and 256
# MiB cut a single pass's peak RSS from 1272 to 954 MB at no measured cost
# in time (2 cores); 128 MiB saved 26 MB more for 8% more time.
GRID_FACTOR_BYTES = 256 * 2**20

log = logging.getLogger("sgfcf")


@dataclass(frozen=True)
class MetricResult:
    recall_at_k: float
    ndcg_at_k: float
    k: int
    users_evaluated: int


def _ranked_ids(ranked) -> list:
    if isinstance(ranked, RankedList):
        return [int(i) for i in ranked.items]
    return list(ranked)


def recall_at_k(ranked, test_items) -> float:
    """|top-k  intersect  test| / |test|."""
    if not test_items:
        raise EmptyTestSet("recall undefined for an empty test set")
    ids = _ranked_ids(ranked)
    hits = sum(1 for i in ids if i in test_items)
    return hits / len(test_items)


def ndcg_at_k(ranked, test_items) -> float:
    """Binary-relevance nDCG with 1/log2(rank+1) gains; the ideal DCG
    places min(k, |test|) hits at the top ranks."""
    if not test_items:
        raise EmptyTestSet("ndcg undefined for an empty test set")
    ids = _ranked_ids(ranked)
    dcg = sum(
        1.0 / np.log2(rank + 1)
        for rank, item in enumerate(ids, start=1)
        if item in test_items
    )
    ideal_hits = min(len(ids), len(test_items)) if len(ids) else 0
    if ideal_hits == 0:
        return 0.0
    idcg = float(np.sum(1.0 / np.log2(np.arange(2, ideal_hits + 2))))
    # summation-order roundoff can push a perfect ranking a ulp above 1
    return min(float(dcg / idcg), 1.0)


def _check_band_sizes(values, what: str) -> None:
    """Raise ConfigError unless each value is a finite number, bools
    excluded, that is an integer >= 1 (2.0 counts as 2, 2.5 does not)."""
    for v in values:
        check_real(f"{what}: integer K", v, lo=1)
        if v != int(v):
            raise ConfigError(f"{what} needs integer K >= 1, got {v!r}")


def evaluate(
    scorer,
    dataset: InteractionDataset,
    k: int = 10,
    split: str = "test",
    threads: int = 0,
) -> MetricResult:
    """Average Recall@k / nDCG@k over users with held-out interactions.

    ``scorer`` is anything exposing score_users(users) -> matrix and a
    train_csr for exclusion, such as an SgfcfModel. Users whose
    held-out set is empty are skipped, not zero-scored. Each user's top k
    comes from the same ``top_k`` as ``recommend``: score-descending,
    ties broken by ascending item id. The users are scored in chunks by
    ``threads`` workers (0 = every CPU the process may run on,
    ``parallel.available_cpus``): the calling thread and ``threads - 1``
    threads of a ``parallel.BlockPool``. At most EVAL_CHUNK score rows are
    in flight at once, whatever the worker count, and the metrics do not
    depend on it. While more than one worker scores, numpy's and scipy's
    OpenBLAS builds run 1 thread each (``parallel.one_blas_thread``). That
    setting is process-global for the pass, is restored when it ends, and
    is a no-op without OpenBLAS. A ``k`` or ``threads`` that is no integer
    (a bool or float included), a ``k`` below 1 or ``threads`` below 0
    raises ConfigError.
    """
    check_integer("threads", threads, lo=0)
    return _evaluate_pass([(scorer, [0.0])], dataset, k, split, threads)[0][0]


def _evaluate_pass(groups, dataset: InteractionDataset, k: int, split: str, threads: int) -> list[list[MetricResult]]:
    """Metrics of several scorings of one split, in one pass over its users.

    ``groups`` holds (scorer, gammas) pairs: each gamma is one scoring, the
    scorer's scores plus gamma times the all-frequency term (see
    ``add_gamma_term``). The scorers share one train matrix; those with a
    gamma above 0 are SgfcfModels of one normalized matrix. Per chunk of
    users, the exclusion, the ``gamma_block`` and each scorer's score_users
    run once; a scorer's gamma-0 scorings rank its scores in place, so
    only its positive gammas but the last copy them. The chunks run on a
    ``parallel.BlockPool`` of ``threads`` workers (0 = every CPU the
    process may run on), capped at the chunk count, and each chunk's
    metrics are stored at its index, so each scoring's per-user metrics
    are joined in chunk order and no result depends on the worker count
    or the chunk size. On more than one worker the pass runs inside
    ``parallel.one_blas_thread``. Returns one list of results per group,
    aligned with its gammas.
    """
    check_integer("k", k, lo=1)
    if split not in ("val", "test"):
        raise ConfigError(f"split must be 'val' or 'test', got {split!r}")
    pairs = getattr(dataset, split)
    held_out = sp.csr_array((np.ones(len(pairs)), pairs.T), shape=(dataset.n_users, dataset.n_items))
    n_held = np.diff(held_out.indptr)
    evaluable = np.flatnonzero(n_held)
    if len(evaluable) == 0:
        raise NoEvaluableUsers(f"no user has interactions in the {split} split")

    for scorer, gammas in groups:
        if max(gammas) > 0:  # a grid fits its scorers at gamma 0, so fit checked none of these
            check_score_bound(scorer.factor_bound, max(gammas), scorer.norm)
    workers = min(threads or parallel.available_cpus(), EVAL_CHUNK)
    size = EVAL_CHUNK // workers
    chunks = [evaluable[start : start + size] for start in range(0, len(evaluable), size)]
    workers = min(workers, len(chunks))
    train_csr = groups[0][0].train_csr
    norm = next((scorer.norm for scorer, gammas in groups if max(gammas) > 0), None)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    idcg_table = np.cumsum(discounts)

    def user_metrics(scores, users):
        hits = held_out[users[:, None], top_k(scores, k)].toarray() > 0
        n_hits = hits.sum(axis=1)
        # rows with equally many hits are summed together, so each user's
        # DCG is numpy's sum over its own hits, as a per-user sum gives
        dcg = np.zeros(len(users))
        for m in np.unique(n_hits[n_hits > 0]):
            rows = n_hits == m
            dcg[rows] = discounts[np.nonzero(hits[rows])[1].reshape(-1, m)].sum(axis=1)
        recall = n_hits / n_held[users]
        return recall, np.minimum(dcg / idcg_table[np.minimum(k, n_held[users]) - 1], 1.0)

    def score_chunk(users):
        excluded = train_csr[users].nonzero()
        block = None if norm is None else gamma_block(norm, users)
        out = []
        for scorer, gammas in groups:
            base = np.asarray(scorer.score_users(users), dtype=np.float64)
            base[excluded] = -np.inf
            # gamma 0 ranks the base in place, before any gamma term is
            # added; the term is finite (check_score_bound), so excluded
            # entries stay -inf under each later add
            metrics = [user_metrics(base, users) if gamma == 0 else None for gamma in gammas]
            positive = [n for n, gamma in enumerate(gammas) if gamma > 0]
            for n in positive:
                scores = base if n == positive[-1] else base.copy()
                metrics[n] = user_metrics(add_gamma_term(scores, gammas[n], block.__getitem__), users)
            out.append(metrics)
            base = scores = None  # before the next scorer's rows are made
        return out

    per_chunk = [None] * len(chunks)

    def score_chunks(share):
        for n, users in share:
            per_chunk[n] = score_chunk(users)

    pin = parallel.one_blas_thread() if workers > 1 else contextlib.nullcontext(False)
    with pin as pinned, parallel.BlockPool(workers) as pool:
        log.debug(
            "evaluate %s with BLAS %s: %d scorings, %d users evaluated, %d skipped, "
            "%d chunks of up to %d users on %d threads",
            split, "pinned to 1 thread" if pinned else "not pinned", sum(len(gammas) for _, gammas in groups),
            len(evaluable), dataset.n_users - len(evaluable), len(chunks), size, workers,
        )
        pool.run(score_chunks, enumerate(chunks))

    def mean(g, j, metric):
        # cumsum adds the users left to right, as a running total does
        values = np.concatenate([chunk[g][j][metric] for chunk in per_chunk])
        return float(np.cumsum(values)[-1] / len(evaluable))

    return [
        [
            MetricResult(recall_at_k=mean(g, j, 0), ndcg_at_k=mean(g, j, 1), k=k, users_evaluated=len(evaluable))
            for j in range(len(gammas))
        ]
        for g, (_, gammas) in enumerate(groups)
    ]


def frequency_sweep(
    dataset: InteractionDataset,
    norm,
    K_grid,
    metric_k: int = 20,
    spectrum=None,
    seed: int = 0,
) -> list[dict]:
    """Evaluate the ideal low-pass filter, weight 1 on each of the top K
    components, on the test split for each K in the grid.

    Each point is a ``MonomialFilter(0.0)`` config (s^0 is 1 for every s,
    0 included) on one graph and one spectrum, validated by ``_validate``
    at ``threads=0``, as ``grid_search`` validates a group; its metrics
    equal one ``evaluate`` of its ``fit``, bit for bit. A passed spectrum
    shorter than the grid's largest K raises KTooLarge before any fit, as
    ``truncate`` does. Without one, the spectrum is ``top_k_svd`` at the
    grid's largest K (capped at min(|U|,|I|)) with the SVD settings of
    ``SgfcfConfig(seed=seed)``, and grid values beyond its length (a
    rank-deficient matrix yields fewer triplets) are clamped to it.
    Returns one row per distinct K with ``fraction`` = K / len(spectrum)
    and both metrics at ``metric_k``. An empty grid or a K that is no
    integer >= 1, as ``GridSpec``'s K axis checks it (a bool, a string or
    2.5; 2.0 counts as 2), raises ConfigError before any work.
    """
    check_integer("metric_k", metric_k, lo=1)
    K_grid = list(K_grid)
    if not K_grid:
        raise ConfigError("frequency sweep needs one or more integer K >= 1, got none")
    _check_band_sizes(K_grid, "frequency sweep")
    K_grid = sorted({int(K) for K in K_grid})
    graph = build_graph(dataset)
    if spectrum is None:
        spectrum = top_k_svd(norm, min(K_grid[-1], min(norm.shape)), **svd_settings(SgfcfConfig(seed=seed)))
        K_grid = sorted({min(K, len(spectrum)) for K in K_grid})
    else:
        check_integer("K", K_grid[-1], 1, len(spectrum), KTooLarge)
    configs = [SgfcfConfig(K=K, g2n=norm.config, filter=MonomialFilter(0.0)) for K in K_grid]
    results = _validate(configs, dataset, graph, norm, spectrum, None, metric_k, "test", threads=0)
    return [
        {"K": c.K, "fraction": c.K / len(spectrum), "recall": r.recall_at_k, "ndcg": r.ndcg_at_k}
        for c, r in zip(configs, results)
    ]


@dataclass(frozen=True)
class GridSpec:
    """Named axis lists over the tunable hyperparameters.

    Each axis is a list (or tuple) of finite numbers, bools excluded.
    Values must sit on the canonical tuning lattices (alpha step 1,
    epsilon step 0.02, filter/gamma steps 0.1); K values are positive
    integers (2.0 counts as 2, 2.5 is rejected).
    """

    axes: dict
    selection_metric: str = "ndcg"

    def __post_init__(self):
        if not self.axes:
            raise ConfigError("grid requires at least one axis")
        for name, values in self.axes.items():
            if name not in GRID_AXES:
                raise ConfigError(f"unknown grid axis {name!r}, expected one of {GRID_AXES}")
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"axis {name!r} must be a list of numbers, got {values!r}")
            if not values:
                raise ConfigError(f"axis {name!r} is empty")
            if name == "K":
                _check_band_sizes(values, "K axis")
                continue
            step = AXIS_STEPS[name]
            for v in values:
                check_real(f"axis {name!r} value", v)
                # a finite v near the float limit can overflow v / step to inf
                if not np.isfinite(v / step) or abs(v / step - round(v / step)) > 1e-9:
                    raise ConfigError(f"axis {name!r} value {v} is not on the step-{step} lattice")
        if self.selection_metric not in ("ndcg", "recall"):
            raise ConfigError(f"selection_metric must be 'ndcg' or 'recall', got {self.selection_metric!r}")


@dataclass(frozen=True)
class GridSearchResult:
    best_config: SgfcfConfig
    best_validation: MetricResult
    test_result: MetricResult
    table: list[dict]


def grid_search(
    dataset: InteractionDataset,
    grid: GridSpec,
    k: int = 10,
    base: SgfcfConfig | None = None,
    threads: int = 0,
) -> GridSearchResult:
    """Exhaustive search over the axis product, selecting on the
    validation split and reporting the winner on test.

    An axis not in the grid takes the base's value. The beta1 and beta2
    axes are the exception when the base has beta1 == beta == beta2:
    they then follow each beta. Each (alpha, epsilon) pair is visited
    once, in sorted order; its spectrum is ``top_k_svd`` at the largest
    K, sliced for smaller K, and outlives the pair only while the pair
    holds the best validation score. A K above min(|U|, |I|) or a ``k``
    below 1 raises before any work, as ``fit`` does. Homophily is
    computed once, and only when some combination is individualized (see
    ``SgfcfConfig.shared_filter``). Combinations violating beta1 <= beta <=
    beta2 are skipped.

    Every combination's config is built before any work, so a value no
    config accepts (an epsilon above 0, a gamma below 0) raises ConfigError
    first. A pair's configs are validated by ``_validate``, in passes over
    the users within GRID_FACTOR_BYTES of factors each; under an explicit
    filter, the beta axes share one factor set. ``threads`` is the worker
    count of each pass and of the winner's test evaluate: the calling
    thread and ``threads - 1`` pool threads score the users' chunks (0 =
    every CPU the process may run on; a non-integer or a value below 0
    raises ConfigError); it does not change any result. On more than one
    worker each pass and the test evaluate hold numpy's and scipy's
    OpenBLAS builds at 1 thread, process-wide while they run, and restore
    them afterwards; without OpenBLAS nothing is pinned. It does not size
    homophily or the Gram path's matrix formation, which run on every CPU
    the process may run on and with OpenBLAS's own thread count.
    """
    check_integer("k", k, lo=1)
    check_integer("threads", threads, lo=0)
    if len(dataset.val) == 0:
        raise EmptyValidation("grid search needs a non-empty validation split")
    if base is None:
        base = SgfcfConfig()

    follow = base.igf.beta1 == base.igf.beta2  # None: the end equals each beta
    defaults = {
        "alpha": [base.g2n.alpha],
        "epsilon": [base.g2n.epsilon],
        "K": [base.K],
        "beta": [base.igf.beta],
        "beta1": [None if follow else base.igf.beta1],
        "beta2": [None if follow else base.igf.beta2],
        "gamma": [base.gamma],
    }
    axes = [list(grid.axes.get(name, defaults[name])) for name in GRID_AXES]

    configs = []
    for alpha, epsilon, K, beta, beta1, beta2, gamma in itertools.product(*axes):
        b1 = beta if beta1 is None else beta1
        b2 = beta if beta2 is None else beta2
        if not b1 <= beta <= b2:
            continue
        g2n = G2NConfig(alpha=float(alpha), epsilon=float(epsilon))
        igf = IgfConfig(beta=float(beta), beta1=float(b1), beta2=float(b2))
        configs.append(replace(base, K=int(K), g2n=g2n, igf=igf, gamma=float(gamma)))

    if not configs:
        raise ConfigError("grid is empty after dropping invalid beta combinations")

    graph = build_graph(dataset)
    K_max = max(config.K for config in configs)
    if K_max > min(graph.n_users, graph.n_items):
        raise KTooLarge(f"K={K_max} exceeds min(|U|,|I|)={min(graph.n_users, graph.n_items)}")
    homophily = None
    if any(config.shared_filter is None for config in configs):
        # looked up on the module per call, so a wrapper set on it sees the call
        homophily = filters.homophilic_ratio_all(graph, delta=base.delta, mode=base.homo_mode)

    # Only the best group so far keeps its stages past its turn, for the
    # test refit.
    validation: list = [None] * len(configs)
    best = None  # (rank, position, norm, spectrum)
    indexed = sorted(range(len(configs)), key=lambda n: (configs[n].g2n.alpha, configs[n].g2n.epsilon))
    for g2n, group in itertools.groupby(indexed, key=lambda n: configs[n].g2n):
        group = list(group)
        norm = g2n_normalize(graph, g2n)
        spectrum = top_k_svd(norm, K_max, **svd_settings(base))
        results = _validate(
            [configs[n] for n in group], dataset, graph, norm, spectrum, homophily, k, "val", threads
        )
        for n, result in zip(group, results):
            validation[n] = result
            rank = (result.ndcg_at_k if grid.selection_metric == "ndcg" else result.recall_at_k, -n)
            if best is None or rank > best[0]:
                best = (rank, n, norm, spectrum)
        del norm, spectrum

    _, n, norm, spectrum = best
    best_model = fit(dataset, configs[n], graph=graph, norm=norm, spectrum=spectrum, homophily=homophily)
    test_result = evaluate(best_model, dataset, k=k, split="test", threads=threads)
    table = [
        dict(zip(GRID_AXES, (c.g2n.alpha, c.g2n.epsilon, c.K, c.igf.beta, c.igf.beta1, c.igf.beta2, c.gamma)))
        | {"val_recall": r.recall_at_k, "val_ndcg": r.ndcg_at_k, "users_evaluated": r.users_evaluated}
        for c, r in zip(configs, validation)
    ]
    return GridSearchResult(
        best_config=configs[n],
        best_validation=validation[n],
        test_result=test_result,
        table=table,
    )


def _validate(configs, dataset, graph, norm, spectrum, homophily, k, split, threads) -> list[MetricResult]:
    """Metrics on ``split`` of configs sharing one graph, normalization,
    spectrum and homophily, aligned with ``configs``. Configs whose factors
    read the same K, normalization and shared filter (else IGF fields)
    share a set, fitted once at gamma 0; the sets go in runs within
    GRID_FACTOR_BYTES, each fitted for one ``_evaluate_pass``, which shares
    the exclusion, the gamma block and a set's scores per chunk."""
    members = {}  # per factor set key: its configs' positions
    for n, config in enumerate(configs):
        weights = config.shared_filter or (config.igf, config.delta, config.homo_mode, config.homo_scope)
        members.setdefault((config.K, config.g2n, weights), []).append(n)
    results = [None] * len(configs)
    sizes = {key: factor_bytes(configs[ns[0]], graph.n_users, graph.n_items) for key, ns in members.items()}
    for batch in _factor_batches(sizes):
        scorings = [
            (fit(dataset, replace(configs[members[key][0]], gamma=0.0),
                 graph=graph, norm=norm, spectrum=spectrum, homophily=homophily),
             [configs[n].gamma for n in members[key]])
            for key in batch
        ]
        for key, metrics in zip(batch, _evaluate_pass(scorings, dataset, k, split, threads)):
            for n, result in zip(members[key], metrics):
                results[n] = result
        del scorings  # frees the run's factors before the next is fitted
    return results


def _factor_batches(sizes: dict) -> list[list]:
    """The keys of ``sizes``, each a factor set's key mapped to the bytes
    its factors own, in order, cut into consecutive batches that stay
    within GRID_FACTOR_BYTES; a set above it is a batch alone."""
    batches, used = [], 0
    for key, size in sizes.items():
        if not batches or used + size > GRID_FACTOR_BYTES:
            batches.append([])
            used = 0
        batches[-1].append(key)
        used += size
    return batches
