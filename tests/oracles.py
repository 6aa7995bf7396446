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


def dense_triple_product(W):
    """(W W^T W) as a dense array."""
    dense = W.toarray()
    return dense @ dense.T @ dense


def dense_rank_band(matrix, k_lo, k_hi):
    """Rating reconstruction from an inclusive 1-indexed singular band."""
    U, s, Vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
    return U[:, k_lo - 1 : k_hi] @ Vt[k_lo - 1 : k_hi]


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
