import itertools
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from sgfcf import (
    G2NConfig,
    SgfcfConfig,
    dataset_from_pairs,
    evaluate,
    fit,
    g2n_normalize,
    gram_svd,
    graph_from_matrix,
    homophilic_pair_counts,
)
from sgfcf import evaluation, filters, parallel
from sgfcf.model import SgfcfModel
from sgfcf.theory import random_bipartite_graph


class Boom(Exception):
    pass


@pytest.fixture
def graph():
    return graph_from_matrix(random_bipartite_graph(np.random.default_rng(3), 120, 80, exponent=2.1))


@pytest.fixture
def scored():
    """A gamma model and the dataset it was fitted on; 42 users hold test pairs."""
    coo = random_bipartite_graph(np.random.default_rng(3), 120, 80, exponent=2.1).tocoo()
    pairs = np.column_stack([coo.row, coo.col])[np.random.default_rng(4).permutation(coo.nnz)]
    cut = 4 * len(pairs) // 5
    dataset = dataset_from_pairs(pairs[:cut], test=pairs[cut:], n_users=120, n_items=80)
    return fit(dataset, SgfcfConfig(K=8, gamma=0.2)), dataset


def fail_on_call(real, n):
    """``real``, except that its n-th call (counted from 0 across threads) raises Boom."""
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        if next(calls) == n:
            raise Boom
        return real(*args, **kwargs)

    return wrapper


def test_one_cpu_starts_no_pool_thread(monkeypatch, graph, scored):
    pools = []

    class Spy(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 12)
    model, dataset = scored
    homophilic_pair_counts(graph)
    gram_svd(g2n_normalize(graph, G2NConfig()), 8)
    evaluate(model, dataset, threads=1)
    evaluate(model, dataset, threads=0)
    assert pools == []
    # one pool for both homophily sides, one for the Gram matrix, each of
    # a thread fewer than the CPUs, and one of 2 threads for 3 workers'
    # chunks of 4 users
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    homophilic_pair_counts(graph)
    gram_svd(g2n_normalize(graph, G2NConfig()), 8)
    evaluate(model, dataset, threads=3)
    assert pools == [(1,), (1,), (2,)]


@pytest.mark.parametrize("cpus", [1, 3])
def test_an_error_in_a_homophily_block_propagates(monkeypatch, graph, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    monkeypatch.setattr(filters, "COOCCURRENCE_BLOCK_BYTES", 4 * 4 * 120)
    monkeypatch.setattr(filters, "_pair_block", fail_on_call(filters._pair_block, 5))
    baseline = threading.active_count()
    with pytest.raises(Boom):
        homophilic_pair_counts(graph)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("cpus", [1, 3])
def test_an_error_in_a_gram_piece_propagates(monkeypatch, graph, cpus):
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    norm = g2n_normalize(graph, G2NConfig())
    monkeypatch.setattr(sp.csr_matrix, "toarray", fail_on_call(sp.csr_matrix.toarray, cpus - 1))
    baseline = threading.active_count()
    with pytest.raises(Boom):
        gram_svd(norm, 8)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("threads", [1, 3])
def test_an_error_in_an_evaluate_chunk_propagates(monkeypatch, scored, threads):
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 12)
    monkeypatch.setattr(SgfcfModel, "score_users", fail_on_call(SgfcfModel.score_users, 2))
    model, dataset = scored
    baseline = threading.active_count()
    with pytest.raises(Boom):
        evaluate(model, dataset, threads=threads)
    assert threading.active_count() == baseline


def test_every_block_runs_once_whichever_thread_takes_it(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    with parallel.BlockPool() as pool:
        shares = pool.run(list, range(1000))
    assert len(shares) == 3
    assert sorted(itertools.chain(*shares)) == list(range(1000))
