"""Independent brute-force oracles used to verify the fast paths.

These deliberately re-derive results from first principles (adjacency
dictionaries, literal BFS, dense reconstructions) and never call the
production implementations they are checking.
"""

from collections import deque

import numpy as np


def adjacency_dict(graph):
    """Plain dict-of-sets adjacency over unified node ids (items offset)."""
    n_users = graph.n_users
    adj = {node: set() for node in range(n_users + graph.n_items)}
    coo = graph.row_major.tocoo()
    for u, i in zip(coo.row, coo.col):
        adj[int(u)].add(int(i) + n_users)
        adj[int(i) + n_users].add(int(u))
    return adj


def bfs_distance(adj, source, target, removed, cap):
    """Shortest-path length avoiding ``removed``; inf beyond ``cap``."""
    if source == target:
        return 0
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if dist >= cap:
            continue
        for nb in adj[node]:
            if nb == removed or nb in seen:
                continue
            if nb == target:
                return dist + 1
            seen.add(nb)
            frontier.append((nb, dist + 1))
    return float("inf")


def homophily_counts_bruteforce(graph, delta, mode="inclusive"):
    """Literal pair-by-pair count of the homophilic-ratio numerator."""
    adj = adjacency_dict(graph)
    n_users = graph.n_users

    def count_side(matrix, offset, removed_offset, n_nodes):
        counts = np.zeros(n_nodes, dtype=np.int64)
        for node in range(n_nodes):
            neighbors = matrix.indices[matrix.indptr[node] : matrix.indptr[node + 1]]
            removed = node + removed_offset
            total = 0
            for i in neighbors:
                for j in neighbors:
                    dist = bfs_distance(adj, int(i) + offset, int(j) + offset, removed, delta)
                    if (dist <= delta) if mode == "inclusive" else (dist < delta):
                        total += 1
            counts[node] = total
        return counts

    user_counts = count_side(graph.row_major, n_users, 0, n_users)
    item_counts = count_side(graph.col_major, 0, n_users, graph.n_items)
    return user_counts, item_counts


def cooccurrence_counts_reference(R, chunk=2048):
    """The delta = 2 pair counts of the rows of R through the whole sparse
    co-occurrence Gram R^T R, thresholded at >= 2 off the diagonal, as
    ``filters._cooccurrence_counts`` once computed them."""
    R = R.tocsr()
    gram = (R.T @ R).tocsr()
    gram.setdiag(0)
    gram.eliminate_zeros()
    reachable = gram.copy()
    reachable.data = (reachable.data >= 2).astype(np.float64)
    reachable.eliminate_zeros()
    n_rows = R.shape[0]
    degrees = np.diff(R.indptr)
    counts = degrees.astype(np.int64).copy()  # diagonal pairs
    for start in range(0, n_rows, chunk):
        block = R[start : start + chunk]
        pair_hits = (block @ reachable).multiply(block).sum(axis=1)
        counts[start : start + chunk] += np.asarray(pair_hits).ravel().astype(np.int64)
    return counts


def dense_triple_product(W):
    """(W W^T W) as a dense array."""
    dense = W.toarray()
    return dense @ dense.T @ dense


def dense_rank_band(matrix, K):
    """Rating reconstruction from the top K singular components."""
    U, s, Vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
    return U[:, :K] @ Vt[:K]


def ingest_loop(text, sep):
    """Per-line ingest with a set of the token pairs seen: a line's pair is
    dropped if seen before, else its tokens get the next free ids on first
    appearance. ``sep`` as for ``str.split``. Returns the (n, 2) id pairs,
    the user and item id maps and the number of lines dropped."""
    user_index, item_index, seen, pairs = {}, {}, set(), []
    dropped = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        fields = line.strip().split(sep)
        pair = (fields[0].strip(), fields[1].strip())
        if pair in seen:
            dropped += 1
            continue
        seen.add(pair)
        user = user_index.setdefault(pair[0], len(user_index))
        pairs.append((user, item_index.setdefault(pair[1], len(item_index))))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), user_index, item_index, dropped


def split_loop(records, train_ratio, val_ratio, seed, strategy):
    """Per-record id lookup and a per-user Python loop: the reference that
    ``dataset.split`` must reproduce exactly, rng stream included.
    Returns the (train, val, test) pair arrays."""
    user_index, item_index = {}, {}
    for user, item in records:
        user_index.setdefault(user, len(user_index))
        item_index.setdefault(item, len(item_index))
    pairs = np.array([(user_index[u], item_index[i]) for u, i in records], dtype=np.int64)
    rng = np.random.default_rng(seed)

    def round_half_up(x):
        return int(np.floor(x + 0.5))

    if strategy == "global":
        perm = rng.permutation(len(pairs))
        n_train = max(1, round_half_up(train_ratio * len(pairs)))
        n_val = min(round_half_up(val_ratio * len(pairs)), len(pairs) - n_train)
        parts = [perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]]
    else:
        parts = [[], [], []]
        for u in range(len(user_index)):
            idx = np.flatnonzero(pairs[:, 0] == u)
            perm = idx[rng.permutation(len(idx))]
            n_train = min(max(round_half_up(train_ratio * len(idx)), 1), len(idx))
            n_val = min(round_half_up(val_ratio * len(idx)), len(idx) - n_train)
            parts[0] += perm[:n_train].tolist()
            parts[1] += perm[n_train : n_train + n_val].tolist()
            parts[2] += perm[n_train + n_val :].tolist()
    return tuple(pairs[np.sort(np.asarray(p, dtype=np.int64))] for p in parts)


def duplicate_sources_bruteforce(dense):
    """For each column, the lowest column index holding the same values."""
    n_cols = dense.shape[1]
    return np.array(
        [next(i for i in range(n_cols) if np.array_equal(dense[:, i], dense[:, j])) for j in range(n_cols)],
        dtype=np.int64,
    )


def ritz_svd_reference(matrix, K, oversample=8, power_iters=8, seed=0):
    """The randomized Krylov basis of ``truncated_svd`` followed by a dense
    SVD of the whole projection B = basis^T A (Halko, Martinsson & Tropp
    2011, Alg. 5.1): the exact Rayleigh-Ritz step. Returns (sigma, P, Q)
    cut to K triplets, with values below 1e-12 * sigma_1 dropped."""
    A = matrix
    m, n = A.shape
    mindim = min(m, n)
    rng = np.random.default_rng(seed)
    s = min(K + oversample, mindim)
    Q, _ = np.linalg.qr(A @ rng.standard_normal((n, s)))
    blocks = [Q]
    while len(blocks) <= power_iters and len(blocks) * s < mindim:
        Z, _ = np.linalg.qr(A.T @ blocks[-1])
        Q, _ = np.linalg.qr(A @ Z)
        blocks.append(Q)
    basis, _ = np.linalg.qr(np.hstack(blocks))
    Ub, sigma, Vt = np.linalg.svd((A.T @ basis).T, full_matrices=False)
    keep = min(K, int((sigma > 1e-12 * sigma[0]).sum()))
    return sigma[:keep], (basis @ Ub)[:, :keep], Vt[:keep].T


def evaluate_reference(scorer, dataset, k=10, split="test", chunk=1024):
    """Per-user Recall@k / nDCG@k loops, as ``evaluation.evaluate`` once
    ran them: held-out items per user, train exclusion row by row, a
    stable argsort for the top k and ``np.isin`` per user. Returns
    (recall, ndcg, users_evaluated)."""
    pairs = getattr(dataset, split)
    held_out = [pairs[pairs[:, 0] == u, 1] for u in range(dataset.n_users)]
    evaluable = np.array([u for u in range(dataset.n_users) if len(held_out[u])], dtype=np.int64)
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    idcg_table = np.cumsum(discounts)
    train = scorer.train_csr
    recall_sum = 0.0
    ndcg_sum = 0.0
    for start in range(0, len(evaluable), chunk):
        users = evaluable[start : start + chunk]
        scores = np.array(scorer.score_users(users), dtype=np.float64)
        for row, u in enumerate(users):
            scores[row, train.indices[train.indptr[u] : train.indptr[u + 1]]] = -np.inf
        top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        for row, u in enumerate(users):
            test_items = held_out[u]
            hit_mask = np.isin(top[row], test_items)
            n_hits = int(hit_mask.sum())
            recall_sum += n_hits / len(test_items)
            if n_hits:
                dcg = float(discounts[np.nonzero(hit_mask)[0]].sum())
                ndcg_sum += min(dcg / idcg_table[min(k, len(test_items)) - 1], 1.0)
    n = len(evaluable)
    return float(recall_sum / n), float(ndcg_sum / n), n


def grid_reference(dataset, axes, k=10, base=None, metric="ndcg"):
    """The per-combination loop ``evaluation.grid_search`` once ran: every
    combination of the axis product (beta1/beta2 following beta when the
    base has beta1 == beta2, beta1 <= beta <= beta2 enforced) gets its own
    ``fit`` on its (alpha, epsilon) pair's spectrum, taken at the grid's
    largest K, and its own per-user metrics on the validation split (as
    ``evaluate_reference`` computes them); the best by (metric, earliest)
    is refitted and scored on test. Returns (table, best_config,
    best_validation, test_result) as ``GridSearchResult`` holds them."""
    from dataclasses import replace
    from itertools import product

    from sgfcf import G2NConfig, IgfConfig, SgfcfConfig, build_graph, fit, g2n_normalize, homophilic_ratio_all
    from sgfcf.evaluation import MetricResult
    from sgfcf.spectral import top_k_svd

    base = SgfcfConfig() if base is None else base
    follow = base.igf.beta1 == base.igf.beta2
    names = ("alpha", "epsilon", "K", "beta", "beta1", "beta2", "gamma")
    defaults = (base.g2n.alpha, base.g2n.epsilon, base.K, base.igf.beta,
                None if follow else base.igf.beta1, None if follow else base.igf.beta2, base.gamma)
    values = [list(axes.get(name, [default])) for name, default in zip(names, defaults)]
    combos = []
    for alpha, epsilon, K, beta, beta1, beta2, gamma in product(*values):
        b1 = beta if beta1 is None else beta1
        b2 = beta if beta2 is None else beta2
        if b1 <= beta <= b2:
            combos.append((float(alpha), float(epsilon), int(K), float(beta), float(b1), float(b2), float(gamma)))
    graph = build_graph(dataset)
    K_max = max(int(K) for K in values[2])
    homophily = None
    if base.filter is None and any(c[4] < c[5] for c in combos):
        homophily = homophilic_ratio_all(graph, delta=base.delta, mode=base.homo_mode)
    stages = {}

    def fitted(config):
        pair = (config.g2n.alpha, config.g2n.epsilon)
        if pair not in stages:
            norm = g2n_normalize(graph, config.g2n)
            stages[pair] = norm, top_k_svd(
                norm, K_max, oversample=base.svd_oversample, power_iters=base.svd_power_iters, seed=base.seed
            )
        norm, spectrum = stages[pair]
        return fit(dataset, config, graph=graph, norm=norm, spectrum=spectrum, homophily=homophily)

    def metrics(config, split):
        recall, ndcg, n = evaluate_reference(fitted(config), dataset, k=k, split=split)
        return MetricResult(recall_at_k=recall, ndcg_at_k=ndcg, k=k, users_evaluated=n)

    table, best = [], None
    for index, combo in enumerate(combos):
        alpha, epsilon, K, beta, b1, b2, gamma = combo
        config = replace(base, K=K, g2n=G2NConfig(alpha=alpha, epsilon=epsilon),
                         igf=IgfConfig(beta=beta, beta1=b1, beta2=b2), gamma=gamma)
        result = metrics(config, "val")
        table.append(dict(zip(names, combo)) | {
            "val_recall": result.recall_at_k, "val_ndcg": result.ndcg_at_k,
            "users_evaluated": result.users_evaluated,
        })
        key = (result.ndcg_at_k if metric == "ndcg" else result.recall_at_k, -index)
        if best is None or key > best[0]:
            best = (key, config, result)
    _, best_config, best_validation = best
    return table, best_config, best_validation, metrics(best_config, "test")
