"""Ranking metrics, frequency sweeps, and hyperparameter grid search.

Metrics follow the usual implicit-feedback protocol: for each user with
a non-empty held-out set, rank all items the model did not see in
training, truncate at k, and average Recall@k and nDCG@k arithmetically
over evaluable users.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import InteractionDataset
from .errors import BandOutOfRange, ConfigError, EmptyTestSet, EmptyValidation, KTooLarge, NoEvaluableUsers
from .filters import BandFilter, IgfConfig
from .graph import DENSE_ORACLE_CAP, G2NConfig, build_graph, g2n_normalize
from .model import RankedList, SgfcfConfig, fit, top_k
from .spectral import dense_svd, top_k_svd, truncated_svd

GRID_AXES = ("alpha", "epsilon", "K", "beta", "beta1", "beta2", "gamma")
# Tuning lattices; axes must sit on multiples of these steps.
AXIS_STEPS = {"alpha": 1.0, "epsilon": 0.02, "beta": 0.1, "beta1": 0.1, "beta2": 0.1, "gamma": 0.1}


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


def _held_out_by_user(dataset: InteractionDataset, split: str) -> list[np.ndarray]:
    pairs = getattr(dataset, split)
    per_user: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * dataset.n_users
    if len(pairs) == 0:
        return per_user
    order = np.argsort(pairs[:, 0], kind="stable")
    users = pairs[order, 0]
    items = pairs[order, 1]
    bounds = np.searchsorted(users, np.arange(dataset.n_users + 1))
    for u in range(dataset.n_users):
        per_user[u] = items[bounds[u] : bounds[u + 1]]
    return per_user


def evaluate(
    scorer,
    dataset: InteractionDataset,
    k: int = 10,
    split: str = "test",
    chunk: int = 1024,
) -> MetricResult:
    """Average Recall@k / nDCG@k over users with held-out interactions.

    ``scorer`` is anything exposing score_users(users) -> matrix and a
    train_csr for exclusion, such as an SgfcfModel. Users whose
    held-out set is empty are skipped, not zero-scored. Each user's top k
    comes from the same ``top_k`` as ``recommend``: score-descending,
    ties broken by ascending item id.
    """
    if split not in ("val", "test"):
        raise ConfigError(f"split must be 'val' or 'test', got {split!r}")
    held_out = _held_out_by_user(dataset, split)
    evaluable = np.array([u for u in range(dataset.n_users) if len(held_out[u])], dtype=np.int64)
    if len(evaluable) == 0:
        raise NoEvaluableUsers(f"no user has interactions in the {split} split")

    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    idcg_table = np.cumsum(discounts)
    train = scorer.train_csr
    recall_sum = 0.0
    ndcg_sum = 0.0
    for start in range(0, len(evaluable), chunk):
        users = evaluable[start : start + chunk]
        scores = np.asarray(scorer.score_users(users), dtype=np.float64)
        for row, u in enumerate(users):
            scores[row, train.indices[train.indptr[u] : train.indptr[u + 1]]] = -np.inf
        top = top_k(scores, k)
        for row, u in enumerate(users):
            test_items = held_out[u]
            hit_mask = np.isin(top[row], test_items)
            n_hits = int(hit_mask.sum())
            recall_sum += n_hits / len(test_items)
            if n_hits:
                dcg = float(discounts[np.nonzero(hit_mask)[0]].sum())
                ndcg_sum += min(dcg / idcg_table[min(k, len(test_items)) - 1], 1.0)
    n = len(evaluable)
    return MetricResult(
        recall_at_k=float(recall_sum / n),
        ndcg_at_k=float(ndcg_sum / n),
        k=k,
        users_evaluated=n,
    )


def frequency_sweep(
    dataset: InteractionDataset,
    norm,
    K_grid,
    metric_k: int = 20,
    spectrum=None,
    split: str = "test",
    seed: int = 0,
) -> list[dict]:
    """Evaluate the uniform band filter [1, K] for each K in the grid.

    Each point is a ``fit`` with ``BandFilter()`` on one graph and one
    spectrum. A passed spectrum must hold the grid's largest K. Without
    one, a spectrum is taken at the grid's largest K: dense at oracle
    sizes, truncated with ``seed`` otherwise; grid values beyond its
    length (a rank-deficient matrix has fewer dense triplets than
    min(|U|,|I|)) are clamped to it. Returns one row per distinct K with
    the spectrum fraction and both metrics; K = 0 has no defined model
    and is not part of any grid.
    """
    K_grid = sorted({int(K) for K in K_grid})
    if not K_grid:
        return []
    if K_grid[0] < 1:
        raise ConfigError("frequency sweep requires K >= 1")
    graph = build_graph(dataset)
    if spectrum is None:
        if min(norm.shape) <= DENSE_ORACLE_CAP:
            spectrum = dense_svd(norm)
        else:
            spectrum = truncated_svd(norm, min(K_grid[-1], min(norm.shape)), seed=seed)
        K_grid = sorted({min(K, len(spectrum)) for K in K_grid})
    elif K_grid[-1] > len(spectrum):
        raise BandOutOfRange(
            f"band [1, {K_grid[-1]}] invalid for a spectrum of length {len(spectrum)}"
        )
    rows = []
    for K in K_grid:
        config = SgfcfConfig(K=K, g2n=norm.config, filter=BandFilter())
        model = fit(dataset, config, graph=graph, norm=norm, spectrum=spectrum)
        result = evaluate(model, dataset, k=metric_k, split=split)
        rows.append(
            {
                "K": K,
                "fraction": K / len(spectrum),
                "recall": result.recall_at_k,
                "ndcg": result.ndcg_at_k,
            }
        )
    return rows


@dataclass(frozen=True)
class GridSpec:
    """Named axis lists over the tunable hyperparameters.

    Axis values must sit on the canonical tuning lattices (alpha step 1,
    epsilon step 0.02, filter/gamma steps 0.1); K is any positive int.
    """

    axes: dict
    selection_metric: str = "ndcg"

    def __post_init__(self):
        if not self.axes:
            raise ConfigError("grid requires at least one axis")
        for name, values in self.axes.items():
            if name not in GRID_AXES:
                raise ConfigError(f"unknown grid axis {name!r}, expected one of {GRID_AXES}")
            values = list(values)
            if not values:
                raise ConfigError(f"axis {name!r} is empty")
            if name == "K":
                if any(int(v) < 1 for v in values):
                    raise ConfigError("K axis values must be >= 1")
            else:
                step = AXIS_STEPS[name]
                for v in values:
                    if abs(v / step - round(v / step)) > 1e-9:
                        raise ConfigError(
                            f"axis {name!r} value {v} is not on the step-{step} lattice"
                        )
        if self.selection_metric not in ("ndcg", "recall"):
            raise ConfigError(f"selection_metric must be 'ndcg' or 'recall', got {self.selection_metric!r}")


@dataclass(frozen=True)
class GridSearchResult:
    best_config: SgfcfConfig
    best_validation: MetricResult
    test_result: MetricResult
    table: list[dict]


def _metric_value(result: MetricResult, name: str) -> float:
    return result.ndcg_at_k if name == "ndcg" else result.recall_at_k


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
    they then follow each beta. The spectrum is computed once per
    (alpha, epsilon) pair at the largest K and sliced for smaller K; a K
    above min(|U|, |I|) raises ``KTooLarge`` before any work, as ``fit``
    does. Homophily is computed once, and only when some combination has
    beta1 < beta2 (with beta1 == beta2 every node gets beta, see
    ``fit``). Combinations violating beta1 <= beta <= beta2 are skipped.
    """
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
    axes = {name: list(grid.axes.get(name, defaults[name])) for name in GRID_AXES}

    combos = []
    for alpha, epsilon, K, beta, beta1, beta2, gamma in itertools.product(*axes.values()):
        b1 = beta if beta1 is None else beta1
        b2 = beta if beta2 is None else beta2
        if not b1 <= beta <= b2:
            continue
        combos.append((float(alpha), float(epsilon), int(K), float(beta), float(b1), float(b2), float(gamma)))

    if not combos:
        raise ConfigError("grid is empty after dropping invalid beta combinations")

    graph = build_graph(dataset)
    K_max = max(int(K) for K in axes["K"])
    if K_max > min(graph.n_users, graph.n_items):
        raise KTooLarge(f"K={K_max} exceeds min(|U|,|I|)={min(graph.n_users, graph.n_items)}")
    homophily = None
    if base.filter is None and any(b1 < b2 for _, _, _, _, b1, b2, _ in combos):
        from .filters import homophilic_ratio_all

        homophily = homophilic_ratio_all(
            graph, delta=base.delta, mode=base.homo_mode, seed=base.seed
        )

    spectra = {}
    norms = {}

    def spectrum_for(alpha: float, epsilon: float):
        key = (alpha, epsilon)
        if key not in spectra:
            norms[key] = g2n_normalize(graph, G2NConfig(alpha=alpha, epsilon=epsilon))
            spectra[key] = top_k_svd(
                norms[key],
                K_max,
                oversample=base.svd_oversample,
                power_iters=base.svd_power_iters,
                seed=base.seed,
            )
        return norms[key], spectra[key]

    def run_combo(index_combo):
        index, (alpha, epsilon, K, beta, b1, b2, gamma) = index_combo
        norm, spectrum = spectrum_for(alpha, epsilon)
        config = replace(
            base,
            K=K,
            g2n=G2NConfig(alpha=alpha, epsilon=epsilon),
            igf=IgfConfig(beta=beta, beta1=b1, beta2=b2),
            gamma=gamma,
        )
        model = fit(dataset, config, graph=graph, norm=norm, spectrum=spectrum, homophily=homophily)
        result = evaluate(model, dataset, k=k, split="val")
        row = {
            "alpha": alpha, "epsilon": epsilon, "K": K, "beta": beta,
            "beta1": b1, "beta2": b2, "gamma": gamma,
            "val_recall": result.recall_at_k, "val_ndcg": result.ndcg_at_k,
            "users_evaluated": result.users_evaluated,
        }
        return index, config, result, row

    # Group combos by (alpha, epsilon) so each spectrum is built once and
    # the per-filter work within a group can run concurrently.
    metric = grid.selection_metric
    results: list = [None] * len(combos)
    indexed = list(enumerate(combos))
    indexed.sort(key=lambda ic: (ic[1][0], ic[1][1], ic[0]))
    groups = itertools.groupby(indexed, key=lambda ic: (ic[1][0], ic[1][1]))
    for (alpha, epsilon), group in groups:
        group = list(group)
        spectrum_for(alpha, epsilon)  # materialize before fanning out
        if threads == 1 or len(group) == 1:
            outcomes = [run_combo(ic) for ic in group]
        else:
            workers = threads if threads > 0 else None
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(run_combo, group))
        for index, config, result, row in outcomes:
            results[index] = (config, result, row)

    best_index = max(
        range(len(results)),
        key=lambda i: (_metric_value(results[i][1], metric), -i),
    )
    best_config, best_validation, _ = results[best_index]
    table = [row for _, _, row in results]
    norm, spectrum = spectrum_for(best_config.g2n.alpha, best_config.g2n.epsilon)
    best_model = fit(
        dataset, best_config, graph=graph, norm=norm, spectrum=spectrum, homophily=homophily
    )
    test_result = evaluate(best_model, dataset, k=k, split="test")
    return GridSearchResult(
        best_config=best_config,
        best_validation=best_validation,
        test_result=test_result,
        table=table,
    )


def write_sweep_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "fraction", "recall", "ndcg"])
        for row in rows:
            writer.writerow([row["K"], repr(row["fraction"]), repr(row["recall"]), repr(row["ndcg"])])


def write_grid_csv(table: list[dict], path: str) -> None:
    if not table:
        return
    fields = list(table[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in table:
            writer.writerow(row)
