"""Output checks and output digests.

Every check returns a list of failure messages; an empty list means the
outputs passed. A failed check fails the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from sgfcf import evaluation
from sgfcf.evaluation import ndcg_at_k, recall_at_k


def svd_residual_max(model) -> float:
    """max_k ||W q_k - sigma_k p_k|| / sigma_k over the fitted spectrum.

    The other side, ||W^T p_k - sigma_k q_k||, is zero by construction for a
    Rayleigh-Ritz output (Q is computed from W^T P), so it tells nothing
    about accuracy; this side does.
    """
    spectrum = model.spectrum
    residual = model.norm.values @ spectrum.Q - spectrum.P * spectrum.sigma
    return float((np.linalg.norm(residual, axis=0) / spectrum.sigma).max())


def ranked_list_problems(ranked, train_items: np.ndarray, k: int) -> list[str]:
    """A recommend list excludes train items, holds k finite scores and is
    score-descending with ties broken by ascending item id."""
    items, scores = np.asarray(ranked.items), np.asarray(ranked.scores)
    problems = []
    if len(items) != k or len(scores) != k:
        problems.append(f"user {ranked.user_id}: {len(items)} items, expected {k}")
    if not np.all(np.isfinite(scores)):
        problems.append(f"user {ranked.user_id}: non-finite score")
    if np.isin(items, train_items).any():
        problems.append(f"user {ranked.user_id}: a train item was recommended")
    if len(set(items.tolist())) != len(items):
        problems.append(f"user {ranked.user_id}: repeated item")
    drops, ties = scores[1:] < scores[:-1], scores[1:] == scores[:-1]
    if not np.all(drops | (ties & (items[1:] > items[:-1]))):
        problems.append(f"user {ranked.user_id}: not score-descending with ascending-id ties")
    return problems


def _evaluate_path_topk(scores: np.ndarray, train_items: np.ndarray, k: int) -> np.ndarray:
    """The ranking ``evaluate`` applies to a score row: train items to -inf,
    stable sort of the negated scores, first k."""
    scores = scores.astype(np.float64, copy=True)
    scores[train_items] = -np.inf
    return np.argsort(-scores, kind="stable")[:k]


def cross_check_topk(model, dataset, lists: dict[int, object], k: int) -> list[str]:
    """Cross-check recommend's top-k against the evaluate path on the same users.

    * Each recommend list equals the evaluate-path ranking of the same
      ``score_user`` row (the two top-k routines agree item for item).
    * ``evaluate``, given those rows through a proxy scorer on a test split
      cut down to these users, returns the Recall@k and nDCG@k that the
      recommend lists score.
    * ``score_users`` on the batch agrees with ``score_user`` row by row.
    """
    users = np.array(sorted(lists), dtype=np.int64)
    rows = {int(u): model.score_user(int(u)) for u in users}
    problems = []
    for u in users:
        expected = _evaluate_path_topk(rows[int(u)], model.train_items(int(u)), k)
        if not np.array_equal(expected, np.asarray(lists[int(u)].items)):
            problems.append(f"user {u}: recommend list differs from the evaluate-path top-{k}")

    batch = model.score_users(users)
    single = np.vstack([rows[int(u)] for u in users])
    if not np.allclose(batch, single, rtol=1e-9, atol=1e-12 * np.abs(single).max()):
        problems.append("score_users disagrees with score_user")

    class RowProxy:
        train_csr = model.train_csr

        def score_users(self, batch_users):
            return np.vstack([rows[int(u)] for u in batch_users])

    test = dataset.test[np.isin(dataset.test[:, 0], users)]
    sub = replace(dataset, test=test)
    held = {int(u): set(test[test[:, 0] == u, 1].tolist()) for u in np.unique(test[:, 0])}
    got = evaluation.evaluate(RowProxy(), sub, k=k, split="test")
    want_recall = np.mean([recall_at_k(lists[u], held[u]) for u in held])
    want_ndcg = np.mean([ndcg_at_k(lists[u], held[u]) for u in held])
    if got.users_evaluated != len(held):
        problems.append(f"evaluate on the check users counted {got.users_evaluated}, expected {len(held)}")
    if not (np.isclose(got.recall_at_k, want_recall, rtol=1e-12, atol=1e-15)
            and np.isclose(got.ndcg_at_k, want_ndcg, rtol=1e-12, atol=1e-15)):
        problems.append(
            f"evaluate metrics ({got.recall_at_k!r}, {got.ndcg_at_k!r}) differ from the "
            f"recommend lists' ({want_recall!r}, {want_ndcg!r})"
        )
    return problems


def metric_problems(result, dataset, split: str, label: str) -> list[str]:
    """Metrics lie in [0, 1] and every user with held-out items was evaluated."""
    problems = []
    for name in ("recall_at_k", "ndcg_at_k"):
        value = float(getattr(result, name))
        if not 0.0 <= value <= 1.0:
            problems.append(f"{label}: {name}={value!r} outside [0, 1]")
    expected = len(np.unique(getattr(dataset, split)[:, 0]))
    if result.users_evaluated != expected:
        problems.append(f"{label}: users_evaluated={result.users_evaluated}, expected {expected}")
    return problems


def digest(lists: list, metrics: list[float]) -> dict:
    """SHA-256 of the top-k lists (user id, items) in call order and of the
    metric values' exact reprs, so byte-identical outputs can be compared
    across commits."""
    topk = hashlib.sha256()
    for ranked in lists:
        topk.update(np.int64(ranked.user_id).tobytes())
        topk.update(np.asarray(ranked.items, dtype=np.int64).tobytes())
    values = hashlib.sha256(repr([float(m) for m in metrics]).encode())
    return {"topk_sha256": topk.hexdigest(), "metrics_sha256": values.hexdigest()}
