import contextlib
import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from sgfcf import (
    G2NConfig,
    SgfcfConfig,
    dataset_from_pairs,
    GridSpec,
    evaluate,
    fit,
    g2n_normalize,
    gram_svd,
    graph_from_matrix,
    grid_search,
    homophilic_pair_counts,
)
from sgfcf import evaluation, filters, parallel
from sgfcf.model import SgfcfModel
from sgfcf.theory import random_bipartite_graph


class Boom(Exception):
    pass


needs_openblas = pytest.mark.skipif(
    not parallel._openblas_builds(), reason="no OpenBLAS thread-count symbols found"
)


def blas_threads():
    return [get() for get, _ in parallel._openblas_builds()]


@pytest.fixture
def blas_at_two():
    """Both builds at 2 threads, whatever the CPU count, so a pin to 1
    shows; the counts they had come back afterwards."""
    before = blas_threads()
    for _, set_ in parallel._openblas_builds():
        set_(2)
    yield [2] * len(before)
    for (_, set_), threads in zip(parallel._openblas_builds(), before):
        set_(threads)


def spy_blas_threads(monkeypatch):
    """Record the BLAS thread counts in effect at each score_users call."""
    seen = []
    real = SgfcfModel.score_users

    def spy(self, users):
        seen.append(blas_threads())
        return real(self, users)

    monkeypatch.setattr(SgfcfModel, "score_users", spy)
    return seen


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


@needs_openblas
def test_a_pass_on_two_workers_runs_one_blas_thread(monkeypatch, scored, blas_at_two):
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 12)
    seen = spy_blas_threads(monkeypatch)
    model, dataset = scored
    evaluate(model, dataset, threads=2)
    assert len(seen) == 7 and all(threads == [1] * len(blas_at_two) for threads in seen)
    assert blas_threads() == blas_at_two


@needs_openblas
def test_a_pass_on_one_worker_leaves_blas_alone(monkeypatch, scored, blas_at_two):
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 12)
    seen = spy_blas_threads(monkeypatch)
    model, dataset = scored
    evaluate(model, dataset, threads=1)
    assert seen == [blas_at_two] * 4


@needs_openblas
def test_an_error_in_a_pinned_pass_restores_blas(monkeypatch, scored, blas_at_two):
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 12)
    monkeypatch.setattr(SgfcfModel, "score_users", fail_on_call(SgfcfModel.score_users, 2))
    model, dataset = scored
    with pytest.raises(Boom):
        evaluate(model, dataset, threads=2)
    assert blas_threads() == blas_at_two


@needs_openblas
def test_concurrent_passes_restore_blas(monkeypatch, scored, blas_at_two):
    # pass A pins first and ends first, while pass B still runs: a plain
    # save and restore would let A unpin B's pass and B restore A's 1
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 12)
    model_a, dataset = scored
    model_b = dataclasses.replace(model_a)
    a_scoring, b_scoring, a_done = threading.Event(), threading.Event(), threading.Event()
    seen_by_b, errors = [], []
    real = SgfcfModel.score_users

    def spy(self, users):
        if self is model_a:
            a_scoring.set()
            assert b_scoring.wait(30)
        else:
            b_scoring.set()
            assert a_done.wait(30)
            seen_by_b.append(blas_threads())
        return real(self, users)

    def run(model, done):
        try:
            evaluate(model, dataset, threads=2)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
        finally:
            done.set()

    monkeypatch.setattr(SgfcfModel, "score_users", spy)
    a = threading.Thread(target=run, args=(model_a, a_done))
    b = threading.Thread(target=run, args=(model_b, threading.Event()))
    a.start()
    assert a_scoring.wait(30)
    b.start()
    a.join(60)
    b.join(60)
    assert not a.is_alive() and not b.is_alive() and errors == []
    assert seen_by_b and all(threads == [1] * len(blas_at_two) for threads in seen_by_b)
    assert blas_threads() == blas_at_two


@needs_openblas
def test_many_threads_pinning_at_once_keep_one_count(blas_at_two):
    # more threads than cores enter and leave the pin with a short switch
    # interval; a lost update to the pin count would unpin a thread inside
    unpinned = []

    def churn():
        for _ in range(2000):
            with parallel.one_blas_thread():
                if blas_threads() != [1] * len(blas_at_two):
                    unpinned.append(blas_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert unpinned == []
    assert blas_threads() == blas_at_two


@needs_openblas
def test_the_pin_changes_no_metric(monkeypatch, blas_at_two):
    # big enough that OpenBLAS threads each unpinned scoring GEMM
    coo = random_bipartite_graph(np.random.default_rng(5), 600, 500, exponent=2.5).tocoo()
    pairs = np.column_stack([coo.row, coo.col])[np.random.default_rng(6).permutation(coo.nnz)]
    n = len(pairs)
    dataset = dataset_from_pairs(
        pairs[: 7 * n // 10], val=pairs[7 * n // 10 : 17 * n // 20], test=pairs[17 * n // 20 :],
        n_users=600, n_items=500,
    )
    model = fit(dataset, SgfcfConfig(K=64, gamma=0.2))
    grid = GridSpec(axes={"K": [32, 64], "gamma": [0.0, 0.2]})

    def run():
        return evaluate(model, dataset, threads=2), grid_search(dataset, grid, threads=2)

    pinned_metrics, pinned_grid = run()
    monkeypatch.setattr(parallel, "one_blas_thread", lambda: contextlib.nullcontext(False))
    seen = spy_blas_threads(monkeypatch)
    metrics, grid_result = run()
    assert seen and all(threads == blas_at_two for threads in seen)
    assert metrics == pinned_metrics
    assert grid_result.table == pinned_grid.table and grid_result.test_result == pinned_grid.test_result
