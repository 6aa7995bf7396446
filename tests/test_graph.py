import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sgfcf import (
    G2NConfig,
    assemble_adjacency,
    build_graph,
    dataset_from_pairs,
    g2n_normalize,
    graph_from_matrix,
)
from sgfcf.errors import ConfigError, EmptyTrainSplit, SizeCapExceeded
from sgfcf.graph import duplicate_item_sources, export_matrixmarket

from conftest import random_graph
from oracles import duplicate_sources_bruteforce


class TestBuildGraph:
    def test_degree_counting(self):
        dataset = dataset_from_pairs([(0, 0), (0, 1), (1, 0)])
        graph = build_graph(dataset)
        assert graph.user_degrees.tolist() == [2, 1]
        assert graph.item_degrees.tolist() == [2, 1]
        assert graph.nnz == 3

    def test_single_interaction(self):
        graph = build_graph(dataset_from_pairs([(0, 0)]))
        assert graph.user_degrees.tolist() == [1]
        assert graph.item_degrees.tolist() == [1]

    def test_empty_train_raises(self):
        dataset = dataset_from_pairs([(0, 0)], test=[(0, 1)])
        object.__setattr__(dataset, "train", np.empty((0, 2), dtype=np.int64))
        with pytest.raises(EmptyTrainSplit):
            build_graph(dataset)

    def test_transpose_consistency(self):
        rng = np.random.default_rng(5)
        graph = random_graph(rng, 14, 9)
        assert (graph.row_major != graph.col_major.T).nnz == 0
        assert graph.user_degrees.sum() == graph.item_degrees.sum() == graph.nnz

    def test_degree_sums_match_train_size(self):
        pairs = [(u, (u * 3 + j) % 7) for u in range(5) for j in range(3)]
        dataset = dataset_from_pairs(pairs)
        graph = build_graph(dataset)
        assert graph.user_degrees.sum() == len(dataset.train)


class TestG2N:
    def test_classic_normalization_at_reference_point(self):
        rng = np.random.default_rng(0)
        graph = random_graph(rng, 10, 8)
        norm = g2n_normalize(graph, G2NConfig(alpha=0.0, epsilon=-0.5))
        expected = (
            sp.diags(1 / np.sqrt(graph.user_degrees))
            @ graph.row_major
            @ sp.diags(1 / np.sqrt(graph.item_degrees))
        )
        assert np.allclose(norm.values.toarray(), expected.toarray())

    def test_zero_epsilon_gives_unnormalized(self):
        rng = np.random.default_rng(1)
        graph = random_graph(rng, 6, 6)
        norm = g2n_normalize(graph, G2NConfig(alpha=3.0, epsilon=0.0))
        assert np.array_equal(norm.values.toarray(), graph.row_major.toarray())

    def test_hand_computed_2x2(self):
        graph = graph_from_matrix(sp.csr_matrix(np.ones((2, 2))))
        norm = g2n_normalize(graph, G2NConfig(alpha=2.0, epsilon=-0.5))
        # each entry gets (d+alpha)^eps on both sides: (2+2)^-0.5 squared = 0.25
        assert np.allclose(norm.values.toarray(), 0.25)

    def test_pattern_unchanged(self):
        rng = np.random.default_rng(2)
        graph = random_graph(rng, 12, 7)
        norm = g2n_normalize(graph, G2NConfig(alpha=5.0, epsilon=-0.3))
        assert (norm.values != 0).nnz == graph.nnz
        assert np.array_equal(norm.values.indices, graph.row_major.indices)
        assert (norm.values.data > 0).all()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            G2NConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            G2NConfig(epsilon=0.1)
        with pytest.raises(ConfigError):
            G2NConfig(epsilon=-0.6)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        graph = random_graph(rng, 9, 11)
        a1 = g2n_normalize(graph, G2NConfig(alpha=1.0, epsilon=-0.5)).values.data
        a2 = g2n_normalize(graph, G2NConfig(alpha=4.0, epsilon=-0.5)).values.data
        assert (a2 < a1).all()

    def test_weight_ratio_nondecreasing_in_alpha_and_epsilon(self):
        degrees = np.array([1, 2, 5, 20, 100])

        def ratio(alpha, eps):
            w = (degrees + alpha) ** float(eps)
            return w[-1] / w[0]  # w(d_max) / w(d_min)

        alphas = [0.0, 1.0, 4.0, 16.0]
        ratios = [ratio(a, -0.5) for a in alphas]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        epsilons = [-0.5, -0.3, -0.1, 0.0]
        ratios = [ratio(0.0, e) for e in epsilons]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    alpha_lo=st.floats(0.0, 8.0),
    alpha_delta=st.floats(0.5, 8.0),
    epsilon=st.floats(-0.5, -0.05),
)
def test_g2n_entrywise_decreasing_in_alpha(seed, alpha_lo, alpha_delta, epsilon):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, 8, 8)
    low = g2n_normalize(graph, G2NConfig(alpha=alpha_lo, epsilon=epsilon)).values.data
    high = g2n_normalize(graph, G2NConfig(alpha=alpha_lo + alpha_delta, epsilon=epsilon)).values.data
    assert (high < low).all()


class TestAssembleAdjacency:
    def test_two_node_graph(self):
        norm = g2n_normalize(graph_from_matrix(sp.csr_matrix(np.ones((1, 1)))), G2NConfig(alpha=1.0, epsilon=-0.5))
        w = norm.values[0, 0]
        adjacency = assemble_adjacency(norm)
        assert np.allclose(adjacency, [[0, w], [w, 0]])
        eigenvalues = np.linalg.eigvalsh(adjacency)
        assert np.allclose(sorted(eigenvalues), [-w, w])

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        norm = g2n_normalize(random_graph(rng, 15, 10), G2NConfig())
        adjacency = assemble_adjacency(norm)
        assert np.array_equal(adjacency, adjacency.T)

    def test_eigenvalues_match_singular_values(self):
        rng = np.random.default_rng(6)
        norm = g2n_normalize(random_graph(rng, 6, 4), G2NConfig())
        adjacency = assemble_adjacency(norm)
        eigenvalues = np.sort(np.linalg.eigvalsh(adjacency))[::-1]
        sv = np.linalg.svd(norm.values.toarray(), compute_uv=False)
        assert np.allclose(eigenvalues[: len(sv)], sv, atol=1e-10)
        assert np.allclose(np.sort(eigenvalues)[: len(sv)], -np.sort(sv)[::-1], atol=1e-10)

    def test_size_cap(self):
        R = sp.eye(1200, 1000, format="csr")
        norm = g2n_normalize(graph_from_matrix(R), G2NConfig())
        with pytest.raises(SizeCapExceeded):
            assemble_adjacency(norm)


def test_matrixmarket_round_trip(tmp_path):
    from scipy.io import mmread

    rng = np.random.default_rng(7)
    norm = g2n_normalize(random_graph(rng, 8, 5), G2NConfig())
    path = tmp_path / "norm.mtx"
    export_matrixmarket(norm, str(path))
    back = mmread(str(path))
    assert np.allclose(back.toarray(), norm.values.toarray())


def _pooled_columns(seed, n_users, n_items):
    """0/1 matrix whose columns are drawn from a pool of four (one empty),
    so most columns have exact duplicates."""
    rng = np.random.default_rng(seed)
    pool = (rng.random((n_users, 4)) < 0.5).astype(np.float64)
    pool[:, 0] = 0.0
    return pool[:, rng.integers(0, 4, size=n_items)]


class TestDuplicateItemSources:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 9), st.integers(1, 14))
    def test_matches_bruteforce(self, seed, n_users, n_items):
        dense = _pooled_columns(seed, n_users, n_items)
        graph = graph_from_matrix(sp.csr_matrix(dense))
        assert duplicate_item_sources(graph).tolist() == duplicate_sources_bruteforce(dense).tolist()

    def test_hash_collisions_never_merge_different_columns(self, monkeypatch):
        # all-zero keys hash every column of a given degree alike, so only
        # the entry-by-entry comparison keeps different columns apart
        class ZeroKeys:
            def integers(self, low, high, size, dtype):
                return np.zeros(size, dtype=dtype)

        a, b, c, empty = [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0]
        dense = np.array([a, b, a, c, empty, b, empty, a], dtype=np.float64).T
        graph = graph_from_matrix(sp.csr_matrix(dense))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroKeys())
        sources = duplicate_item_sources(graph)
        for item, source in enumerate(sources):
            assert source <= item
            assert np.array_equal(dense[:, item], dense[:, source])
        assert sources[[2, 6, 7]].tolist() == [0, 4, 0]
