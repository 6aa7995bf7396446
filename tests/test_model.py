import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgfcf import (
    G2NConfig,
    IgfConfig,
    MonomialFilter,
    SgfcfConfig,
    dataset_from_pairs,
    dense_svd,
    fit,
    g2n_normalize,
    recommend,
    score_user,
    score_users,
    sgf_band_scores,
)
from sgfcf.errors import BandOutOfRange, ConfigError, KTooLarge, UnknownUser
from sgfcf.model import config_to_dict, model_summary, top_k
from sgfcf.theory import random_bipartite_graph

from conftest import random_graph
from oracles import dense_rank_band, dense_triple_product


def small_dataset(rng, n_users=12, n_items=10, extra_test=True):
    R = random_bipartite_graph(rng, n_users, n_items, target_edges=n_users * 4)
    coo = R.tocoo()
    pairs = list(zip(coo.row.tolist(), coo.col.tolist()))
    rng.shuffle(pairs)
    cut = max(1, len(pairs) // 5)
    test, train = pairs[:cut], pairs[cut:]
    users_in_train = {u for u, _ in train}
    test = [(u, i) for u, i in test if u in users_in_train]
    return dataset_from_pairs(train, test=test, n_users=n_users, n_items=n_items)


class TestFit:
    def test_rank_one_score_formula(self):
        rng = np.random.default_rng(0)
        dataset = small_dataset(rng)
        config = SgfcfConfig(K=1, gamma=0.0, igf=IgfConfig(beta=1.0, beta1=0.5, beta2=1.5))
        model = fit(dataset, config)
        assert model.profile is not None
        sigma1 = model.spectrum.sigma_normalized[0]  # == 1 by construction
        u = 0
        expected = (
            model.spectrum.P[u, 0]
            * model.spectrum.Q[:, 0]
            * sigma1 ** (model.profile.user_beta[u] + model.profile.item_beta)
        )
        assert np.allclose(score_user(model, u), expected)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        dataset = small_dataset(rng)
        config = SgfcfConfig(K=4, gamma=0.2, seed=9)
        a, b = fit(dataset, config), fit(dataset, config)
        users = np.arange(dataset.n_users)
        assert np.array_equal(score_users(a, users), score_users(b, users))

    def test_k_too_large(self):
        rng = np.random.default_rng(2)
        dataset = small_dataset(rng, 6, 5)
        with pytest.raises(KTooLarge):
            fit(dataset, SgfcfConfig(K=6))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SgfcfConfig(K=0)
        with pytest.raises(ConfigError):
            SgfcfConfig(K=1, gamma=-0.5)

    def test_shared_filter_skips_homophily(self):
        rng = np.random.default_rng(3)
        dataset = small_dataset(rng)
        model = fit(dataset, SgfcfConfig(K=3, filter=MonomialFilter(beta=1.0)))
        assert model.profile is None
        assert model.homophily is None

    def test_shared_beta_skips_homophily_bit_identically(self, monkeypatch):
        import sgfcf.model
        from sgfcf import build_graph, homophilic_ratio_all

        rng = np.random.default_rng(30)
        dataset = small_dataset(rng, 20, 16)
        config = SgfcfConfig(K=5, gamma=0.2, igf=IgfConfig(beta=1.4, beta1=1.4, beta2=1.4))
        with_homophily = fit(dataset, config, homophily=homophilic_ratio_all(build_graph(dataset)))

        def forbidden(*args, **kwargs):
            raise AssertionError("homophily computed for a shared beta")

        monkeypatch.setattr(sgfcf.model, "homophilic_ratio_all", forbidden)
        skipped = fit(dataset, config)
        assert skipped.homophily is None
        for name in ("user_factors", "item_factors"):
            assert np.array_equal(getattr(skipped, name), getattr(with_homophily, name))
        assert np.array_equal(skipped.profile.user_beta, with_homophily.profile.user_beta)
        assert np.array_equal(skipped.profile.item_beta, with_homophily.profile.item_beta)

    def test_bad_homo_scope_rejected(self):
        with pytest.raises(ConfigError):
            SgfcfConfig(K=1, homo_scope="pooled")


class TestScoreUser:
    def test_degenerate_igf_equals_shared_monomial(self):
        rng = np.random.default_rng(4)
        dataset = small_dataset(rng)
        beta = 1.3
        igf = fit(dataset, SgfcfConfig(K=4, igf=IgfConfig(beta=beta, beta1=beta, beta2=beta)))
        shared = fit(dataset, SgfcfConfig(K=4, filter=MonomialFilter(beta=beta)))
        users = np.arange(dataset.n_users)
        assert np.allclose(score_users(igf, users), score_users(shared, users), atol=1e-12)

    def test_matches_dense_reconstruction(self):
        # gamma=0, shared beta=1: score matrix is P diag(sigma_norm^2) Q^T
        rng = np.random.default_rng(5)
        graph = random_graph(rng, 9, 7)
        coo = graph.row_major.tocoo()
        dataset = dataset_from_pairs(
            list(zip(coo.row.tolist(), coo.col.tolist())), n_users=9, n_items=7
        )
        K = min(9, 7)
        model = fit(dataset, SgfcfConfig(K=K, igf=IgfConfig(beta=1.0, beta1=1.0, beta2=1.0)))
        spec = model.spectrum
        expected = spec.P @ np.diag(spec.sigma_normalized**2) @ spec.Q.T
        got = score_users(model, np.arange(9))
        assert np.abs(got - expected).max() < 1e-10

    def test_gamma_term_matches_triple_product_oracle(self):
        rng = np.random.default_rng(6)
        dataset = small_dataset(rng, 10, 8)
        gamma = 0.3
        base = fit(dataset, SgfcfConfig(K=3, gamma=0.0, seed=2))
        full = fit(dataset, SgfcfConfig(K=3, gamma=gamma, seed=2))
        oracle = dense_triple_product(full.norm.values)
        users = np.arange(dataset.n_users)
        diff = score_users(full, users) - score_users(base, users)
        assert np.abs(diff - gamma * oracle).max() < 1e-10

    def test_unknown_user(self):
        rng = np.random.default_rng(7)
        model = fit(small_dataset(rng), SgfcfConfig(K=2))
        with pytest.raises(UnknownUser):
            score_user(model, model.n_users)
        with pytest.raises(UnknownUser):
            score_user(model, -1)

    def test_joint_sign_flip_invariance(self):
        rng = np.random.default_rng(8)
        dataset = small_dataset(rng)
        model = fit(dataset, SgfcfConfig(K=4, gamma=0.1))
        users = np.arange(dataset.n_users)
        reference = score_users(model, users)
        spec = model.spectrum
        flip = rng.choice([-1.0, 1.0], size=len(spec))
        flipped_spec = type(spec)(
            sigma=spec.sigma,
            P=spec.P * flip,
            Q=spec.Q * flip,
            sigma_normalized=spec.sigma_normalized,
        )
        flipped = fit(
            dataset, model.config, spectrum=flipped_spec,
        )
        assert np.allclose(score_users(flipped, users), reference, atol=1e-12)

    def test_row_at_a_time_consistency(self):
        rng = np.random.default_rng(9)
        model = fit(small_dataset(rng), SgfcfConfig(K=3, gamma=0.4))
        users = np.arange(model.n_users)
        batch = score_users(model, users)
        for u in users:
            assert np.allclose(batch[u], score_user(model, int(u)))

    def test_gamma_paths_match_sparse_triple_product(self):
        # batch and row paths reassociate W W^T W; both must agree with the
        # sparse product W_u W^T W to rounding
        rng = np.random.default_rng(31)
        dataset = small_dataset(rng, 120, 90)
        gamma = 0.3
        model = fit(dataset, SgfcfConfig(K=6, gamma=gamma))
        W = model.norm.values
        users = np.arange(model.n_users)
        expected = model.user_factors @ model.item_factors.T + gamma * (W @ W.T @ W).toarray()
        scale = np.abs(expected).max()
        assert np.abs(score_users(model, users) - expected).max() <= 1e-12 * scale
        for u in (0, 17, 119):
            assert np.abs(score_user(model, u) - expected[u]).max() <= 1e-12 * scale


class TestRecommend:
    def test_tie_break_by_item_id(self):
        from sgfcf.model import _ranked_from_scores

        ranked = _ranked_from_scores(np.array([0.9, 0.1, 0.9]), 0, 2, None)
        assert ranked.items.tolist() == [0, 2]
        assert ranked.scores.tolist() == [0.9, 0.9]

    def test_exclusion_soundness(self):
        rng = np.random.default_rng(11)
        dataset = small_dataset(rng)
        model = fit(dataset, SgfcfConfig(K=3))
        for u in range(model.n_users):
            ranked = recommend(model, u, k=5, exclude_train=True)
            assert not set(ranked.items.tolist()) & set(model.train_items(u).tolist())

    def test_everything_interacted_empty_list(self):
        dataset = dataset_from_pairs([(0, 0), (0, 1), (0, 2), (1, 0)], n_users=2, n_items=3)
        model = fit(dataset, SgfcfConfig(K=2))
        ranked = recommend(model, 0, k=5, exclude_train=True)
        assert len(ranked.items) == 0

    def test_include_train(self):
        dataset = dataset_from_pairs([(0, 0), (0, 1), (1, 0)], n_users=2, n_items=2)
        model = fit(dataset, SgfcfConfig(K=2))
        ranked = recommend(model, 0, k=2, exclude_train=False)
        assert len(ranked.items) == 2

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(12)
        model = fit(small_dataset(rng), SgfcfConfig(K=4, gamma=0.2))
        ranked = recommend(model, 1, k=8)
        assert (np.diff(ranked.scores) <= 1e-15).all()

    def test_invalid_k(self):
        rng = np.random.default_rng(13)
        model = fit(small_dataset(rng), SgfcfConfig(K=2))
        with pytest.raises(ConfigError):
            recommend(model, 0, k=0)


_score_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-np.inf, 0.5, -0.0]),
)


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.integers(1, 5).flatmap(
            lambda rows: st.integers(1, 25).flatmap(
                lambda cols: arrays(np.float64, (rows, cols), elements=_score_values)
            )
        ),
        k=st.integers(1, 30),
    )
    def test_matches_stable_argsort(self, scores, k):
        # few distinct values: ties straddle the k-th place, rows can be all
        # ties or all -inf, hold fewer than k finite entries, or k >= width
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        assert np.array_equal(top_k(scores, k), expected)

    def test_all_tie_all_excluded_and_nan_rows(self):
        scores = np.array([
            [2.0] * 6,
            [-np.inf] * 6,
            [1.0, -np.inf, 1.0, 1.0, -np.inf, 0.0],
            [np.nan, 1.0, np.nan, 2.0, np.nan, np.nan],
        ])
        assert top_k(scores, 3).tolist() == [[0, 1, 2], [0, 1, 2], [0, 2, 3], [3, 1, 0]]
        assert top_k(scores, 9).tolist() == np.argsort(-scores, axis=1, kind="stable").tolist()


class TestBandScores:
    def test_full_band_reconstructs_rating_structure(self):
        rng = np.random.default_rng(14)
        norm = g2n_normalize(random_graph(rng, 8, 6), G2NConfig())
        scorer = sgf_band_scores(norm, 1, len(dense_svd(norm)))
        spec = scorer.spectrum
        expected = spec.P @ spec.Q.T
        got = scorer.score_users(np.arange(8))
        assert np.abs(got - expected).max() < 1e-12

    def test_band_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        norm = g2n_normalize(random_graph(rng, 6, 4), G2NConfig())
        scorer = sgf_band_scores(norm, 1, 2)
        oracle = dense_rank_band(norm.values, 1, 2)
        got = scorer.score_users(np.arange(6))
        # compare through the reconstruction, which is sign-invariant
        assert np.abs(got - oracle).max() < 1e-10

    def test_mirrored_band_equality(self):
        # top-K band score equals the complementary eigenvector construction
        rng = np.random.default_rng(16)
        norm = g2n_normalize(random_graph(rng, 10, 7), G2NConfig())
        from sgfcf import assemble_adjacency
        from sgfcf.theory import _rating_from_eigenvectors

        A = assemble_adjacency(norm)
        eigenvalues, V = np.linalg.eigh(A)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues, V = eigenvalues[order], V[:, order]
        spec = dense_svd(norm)
        positive = len(spec)
        gaps = np.diff(spec.sigma)
        K = 1 + int(np.argmax(np.abs(gaps) > 1e-8)) if len(gaps) else 1
        scorer = sgf_band_scores(norm, 1, K, spectrum=spec)
        band = scorer.score_users(np.arange(10))
        n = A.shape[0]
        mirrored = _rating_from_eigenvectors(V[:, : n - K], 10)
        assert np.abs(band - mirrored).max() < 1e-8

    def test_band_out_of_range(self):
        rng = np.random.default_rng(17)
        norm = g2n_normalize(random_graph(rng, 6, 5), G2NConfig())
        spec = dense_svd(norm)
        with pytest.raises(BandOutOfRange):
            sgf_band_scores(norm, 0, 2, spectrum=spec)
        with pytest.raises(BandOutOfRange):
            sgf_band_scores(norm, 3, 2, spectrum=spec)
        with pytest.raises(BandOutOfRange):
            sgf_band_scores(norm, 1, len(spec) + 1, spectrum=spec)


def test_complexity_linear_in_k():
    # doubling K should roughly double the spectral scoring work
    rng = np.random.default_rng(18)
    n_users, n_items = 400, 2000
    K2 = 128
    P = np.linalg.qr(rng.standard_normal((n_users, K2)))[0]
    Q = np.linalg.qr(rng.standard_normal((n_items, K2)))[0]

    def best_time(K):
        user_factors = np.ascontiguousarray(P[:, :K])
        item_factors = np.ascontiguousarray(Q[:, :K])
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            user_factors @ item_factors.T
            samples.append(time.perf_counter() - start)
        return min(samples)

    best_time(K2)  # warm up BLAS
    ratio = best_time(K2) / best_time(K2 // 2)
    assert ratio < 3.0, f"scoring time ratio {ratio:.2f} exceeds the slack"


def test_full_pipeline_against_dense_oracle():
    """Recompute every stage with independent dense code and compare.

    Normalization by explicit loops, spectrum via numpy SVD, homophily
    via the literal BFS oracle, the exponent map by hand, and the final
    score entry by entry. Joint sign or rotation freedom inside
    degenerate singular blocks cancels in P f(sigma) Q^T, so the
    comparison is well defined.
    """
    from sgfcf import build_graph
    from oracles import homophily_counts_bruteforce

    rng = np.random.default_rng(23)
    n_users, n_items = 9, 7
    while True:
        dense = (rng.random((n_users, n_items)) < 0.45).astype(float)
        if (
            dense.sum(axis=1).min() > 0
            and dense.sum(axis=0).min() > 0
            and np.linalg.matrix_rank(dense) == n_items
        ):
            break
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if dense[u, i]]
    dataset = dataset_from_pairs(pairs, n_users=n_users, n_items=n_items)

    alpha, epsilon = 3.0, -0.3
    beta, beta1, beta2 = 1.5, 1.0, 2.0
    gamma = 0.25
    config = SgfcfConfig(
        K=n_items,
        g2n=G2NConfig(alpha=alpha, epsilon=epsilon),
        igf=IgfConfig(beta=beta, beta1=beta1, beta2=beta2),
        gamma=gamma,
    )
    model = fit(dataset, config)

    # independent dense reconstruction of every stage
    du = dense.sum(axis=1)
    di = dense.sum(axis=0)
    W = np.zeros_like(dense)
    for u in range(n_users):
        for i in range(n_items):
            if dense[u, i]:
                W[u, i] = (du[u] + alpha) ** epsilon * (di[i] + alpha) ** epsilon
    P, sigma, Vt = np.linalg.svd(W, full_matrices=False)
    Q = Vt.T
    sigma_norm = sigma / sigma[0]

    graph = build_graph(dataset)
    counts_u, counts_i = homophily_counts_bruteforce(graph, delta=2, mode="inclusive")
    homo_u = counts_u / du**2
    homo_i = counts_i / di**2

    def linear_map(scores):
        lo, hi = scores.min(), scores.max()
        if hi <= lo:
            return np.full(len(scores), beta)
        return beta1 + (scores - lo) * (beta2 - beta1) / (hi - lo)

    beta_u, beta_i = linear_map(homo_u), linear_map(homo_i)
    expected = np.zeros((n_users, n_items))
    triple = W @ W.T @ W
    for u in range(n_users):
        for i in range(n_items):
            weights = sigma_norm ** (beta_u[u] + beta_i[i])
            expected[u, i] = float(np.sum(P[u] * Q[i] * weights)) + gamma * triple[u, i]

    got = score_users(model, np.arange(n_users))
    assert np.abs(got - expected).max() < 1e-10


def test_fit_rejects_odd_delta():
    rng = np.random.default_rng(24)
    dataset = small_dataset(rng)
    from sgfcf.errors import OddDelta

    with pytest.raises(OddDelta):
        fit(dataset, SgfcfConfig(K=2, delta=3))


def test_model_summary_round_trips_config():
    rng = np.random.default_rng(19)
    dataset = small_dataset(rng)
    config = SgfcfConfig(K=3, gamma=0.1, igf=IgfConfig(beta=1.0, beta1=0.8, beta2=1.2))
    model = fit(dataset, config)
    summary = model_summary(model)
    assert summary["config"] == config_to_dict(config)
    assert summary["K"] == len(model.spectrum)
    assert len(summary["sigma_normalized_head"]) <= 10
    assert summary["fit_seconds"] >= 0.0


def test_model_summary_reports_svd_residual():
    def dense_residual_max(model):
        W, spec = model.norm.values.toarray(), model.spectrum
        return max(
            np.linalg.norm(W @ spec.Q[:, k] - spec.sigma[k] * spec.P[:, k]) / spec.sigma[k]
            for k in range(len(spec))
        )

    rng = np.random.default_rng(20)
    # one power iteration on 80 x 60 leaves K=4 visibly inexact
    rough = fit(small_dataset(rng, n_users=80, n_items=60), SgfcfConfig(K=4, svd_power_iters=1))
    expected = dense_residual_max(rough)
    assert expected > 1e-6
    assert model_summary(rough)["svd_residual_max"] == pytest.approx(expected, rel=1e-9)
    # 30 x 20 with K=12: the first block of K + 8 columns already spans
    # all 20 item directions, so the triplets are exact to roundoff
    exact = fit(small_dataset(rng, n_users=30, n_items=20), SgfcfConfig(K=12))
    assert model_summary(exact)["svd_residual_max"] < 1e-10
