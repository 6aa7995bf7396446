import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgfcf import (
    ExponentialFilter,
    G2NConfig,
    IgfConfig,
    JacobiFilter,
    MarkovFilter,
    MonomialFilter,
    SgfcfConfig,
    build_graph,
    dataset_from_pairs,
    dense_svd,
    eval_filter,
    fit,
    g2n_normalize,
    homophilic_ratio_all,
    map_homo_to_beta,
    recommend,
    score_user,
    score_users,
    top_k_svd,
    truncated_svd,
)
from sgfcf.errors import ConfigError, KTooLarge, SgfcfError, UnknownUser
from sgfcf import model as model_module
from sgfcf.model import model_summary, serialize_config, top_k
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
        homophily = homophilic_ratio_all(build_graph(dataset), delta=config.delta, mode=config.homo_mode)
        profile = map_homo_to_beta(homophily, config.igf, scope=config.homo_scope)
        sigma1 = model.spectrum.sigma_normalized[0]  # == 1 by construction
        u = 0
        expected = (
            model.spectrum.P[u, 0]
            * model.spectrum.Q[:, 0]
            * sigma1 ** (profile.user_beta[u] + profile.item_beta)
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

    def test_precomputed_spectrum_shorter_than_K(self):
        rng = np.random.default_rng(2)
        dataset = small_dataset(rng)
        spectrum = dense_svd(g2n_normalize(build_graph(dataset), G2NConfig())).truncate(5)
        with pytest.raises(KTooLarge):
            fit(dataset, SgfcfConfig(K=10), spectrum=spectrum)
        model = fit(dataset, SgfcfConfig(K=4), spectrum=spectrum)
        assert model.user_factors.shape[1] == 4
        assert model_summary(model)["K"] == 4

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SgfcfConfig(K=0)
        with pytest.raises(ConfigError):
            SgfcfConfig(K=1, gamma=-0.5)

    @pytest.mark.parametrize("K", [2.5, float("nan"), True, 4.0, "4", None])
    def test_non_integer_K_rejected_when_the_config_is_built(self, K):
        # K=2.5 built, and fit then raised numpy's IndexError
        with pytest.raises(ConfigError, match="K must be an integer"):
            SgfcfConfig(K=K)

    @pytest.mark.parametrize("delta", [4.0, 2.5, True])
    def test_non_integer_delta_rejected_when_the_config_is_built(self, delta):
        # delta=4.0 built, and homophily then raised a TypeError
        with pytest.raises(ConfigError, match="delta must be an integer"):
            SgfcfConfig(K=4, delta=delta)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        # nan scored every item NaN, inf left recommend nothing to return
        with pytest.raises(ConfigError, match="gamma"):
            SgfcfConfig(K=1, gamma=gamma)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("svd_oversample", 3), ("svd_power_iters", 0), ("seed", -1),
            ("svd_oversample", 8.0), ("svd_power_iters", 2.5), ("seed", True),
        ],
    )
    def test_svd_settings_rejected_when_the_config_is_built(self, field, value):
        with pytest.raises(ConfigError, match=field.removeprefix("svd_")):
            SgfcfConfig(K=8, **{field: value})

    def test_shared_filter_skips_homophily(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("homophily or exponents built for an explicit filter")

        monkeypatch.setattr(model_module, "homophilic_ratio_all", forbidden)
        monkeypatch.setattr(model_module, "map_homo_to_beta", forbidden)
        rng = np.random.default_rng(3)
        dataset = small_dataset(rng)
        fit(dataset, SgfcfConfig(K=3, filter=MonomialFilter(beta=1.0)))

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
        for name in ("user_factors", "item_factors", "user_weights"):
            assert np.array_equal(getattr(skipped, name), getattr(with_homophily, name))

    def test_shared_beta_maps_no_exponents(self, monkeypatch):
        import sgfcf.model

        def forbidden(*args, **kwargs):
            raise AssertionError("per-node exponents built for a shared beta")

        monkeypatch.setattr(sgfcf.model, "homophilic_ratio_all", forbidden)
        monkeypatch.setattr(sgfcf.model, "map_homo_to_beta", forbidden)
        dataset = small_dataset(np.random.default_rng(31), 20, 16)
        model = fit(dataset, SgfcfConfig(K=5, igf=IgfConfig(beta=1.4, beta1=1.4, beta2=1.4)))
        assert model.user_factors is model.spectrum.P and model.item_factors is model.spectrum.Q

    @pytest.mark.parametrize("beta", [0.5, 1.6, 2.0])
    def test_shared_beta_is_the_monomial_filter_bit_for_bit(self, beta):
        # numpy's per-node power once rounded beta 0.5 and 2.0 off by an ulp
        dataset = small_dataset(np.random.default_rng(34), 60, 50)
        igf = fit(dataset, SgfcfConfig(K=40, igf=IgfConfig(beta=beta)))
        monomial = fit(dataset, SgfcfConfig(K=40, filter=MonomialFilter(beta)))
        for name in ("user_factors", "item_factors", "user_weights"):
            assert np.array_equal(getattr(igf, name), getattr(monomial, name))

    def test_bad_homo_scope_rejected(self):
        with pytest.raises(ConfigError):
            SgfcfConfig(K=1, homo_scope="pooled")


WIDE_REALS = st.floats(0.0, 1e300) | st.sampled_from([0.0, 1.0, 1e6, 1e150, 1e200])
FILTER_FAMILIES = st.one_of(
    st.builds(MonomialFilter, WIDE_REALS),
    st.builds(ExponentialFilter, WIDE_REALS),
    st.builds(MarkovFilter, st.integers(1, 60)),
    st.builds(
        JacobiFilter,
        st.floats(-1.0, 1e300, exclude_min=True) | st.just(1e200),
        st.floats(-1.0, 1e300, exclude_min=True) | st.just(0.0),
        st.integers(1, 8),
    ),
    st.just(MonomialFilter(0.0)),
)


@pytest.fixture(scope="module")
def filter_dataset():
    return small_dataset(np.random.default_rng(3), n_users=30, n_items=20)


@settings(max_examples=80, deadline=None)
@given(family=FILTER_FAMILIES)
@example(family=JacobiFilter(-0.9999999999999999, -0.9999999999999999, 2))
def test_every_filter_scores_finitely_or_raises(filter_dataset, family):
    # JacobiFilter(a=1e200, b=0) overflows to NaN weights; at order 1 the
    # weights are finite but their scores are not
    try:
        model = fit(filter_dataset, SgfcfConfig(K=8, filter=family))
    except SgfcfError:
        return
    assert np.isfinite(score_users(model, np.arange(model.n_users))).all()


def test_overflowing_filter_raises_naming_it(filter_dataset):
    # at a = b = -1 + 2^-53 the recurrence's 2k + a + b - 2 rounds to 0.0
    # at k = 2, which raised ZeroDivisionError
    for family in (
        JacobiFilter(a=1e200, b=0.0),
        JacobiFilter(a=1e200, b=0.0, order=1),
        JacobiFilter(-0.9999999999999999, -0.9999999999999999, 2),
    ):
        with pytest.raises(ConfigError, match=re.escape(f"{family} gives filter weights")):
            fit(filter_dataset, SgfcfConfig(K=8, filter=family))


def test_overflowing_gamma_term_raises(filter_dataset):
    # at epsilon 0, W is the 0/1 train matrix; gamma = 1e308 made every score
    # inf or NaN, and recommend returned an empty list with no error
    g2n = G2NConfig(alpha=0.0, epsilon=0.0)
    with pytest.raises(ConfigError, match=re.escape("gamma=1e+308 gives scores")):
        fit(filter_dataset, SgfcfConfig(K=8, g2n=g2n, gamma=1e308))
    model = fit(filter_dataset, SgfcfConfig(K=8, g2n=g2n, gamma=1e300))
    assert np.isfinite(score_users(model, np.arange(model.n_users))).all()


def _shaped_dataset(n_users, n_items, edges_per_node=None):
    edges = n_users * n_items // 4 if edges_per_node is None else edges_per_node * max(n_users, n_items)
    R = random_bipartite_graph(np.random.default_rng(40), n_users, n_items, target_edges=edges)
    coo = R.tocoo()
    return dataset_from_pairs(list(zip(coo.row.tolist(), coo.col.tolist())), n_users=n_users, n_items=n_items)


# items outnumber users, then users outnumber items
ORIENTATIONS = pytest.mark.parametrize("n_users, n_items", [(30, 60), (60, 30)], ids=["wide", "tall"])


class TestSharedFold:
    """A shared filter scores with the spectrum's own P and Q; its row
    g(sigma)^2 is ``model.user_weights``, which scoring multiplies into
    the scored users' rows of P."""

    @ORIENTATIONS
    def test_larger_side_is_the_spectrums_array(self, n_users, n_items):
        # either orientation: both sides are the spectrum's, the row is g^2
        dataset = _shaped_dataset(n_users, n_items)
        model = fit(dataset, SgfcfConfig(K=12, filter=ExponentialFilter(2.0)))
        spec = model.spectrum
        assert model.user_factors is spec.P and model.item_factors is spec.Q
        g = eval_filter(ExponentialFilter(2.0), spec.sigma_normalized)
        assert np.array_equal(model.user_weights, g * g)
        # a grid's spectrum holds more triplets than K: column views of it
        wider = fit(dataset, SgfcfConfig(K=16, filter=ExponentialFilter(2.0))).spectrum
        cut = fit(dataset, SgfcfConfig(K=12, filter=ExponentialFilter(2.0)), spectrum=wider)
        for factors, own in ((cut.user_factors, wider.P), (cut.item_factors, wider.Q)):
            assert np.shares_memory(factors, own) and factors.shape == (len(own), 12)
            assert not np.shares_memory(factors, model.user_factors)
            assert not np.shares_memory(factors, model.item_factors)

    @ORIENTATIONS
    @pytest.mark.parametrize(
        "family",
        [MonomialFilter(1.6), ExponentialFilter(2.0), MarkovFilter(3), JacobiFilter(0.5, 1.5, 4)],
        ids=lambda family: type(family).__name__,
    )
    def test_scores_equal_the_unfolded_product(self, n_users, n_items, family):
        dataset = _shaped_dataset(n_users, n_items)
        model = fit(dataset, SgfcfConfig(K=12, filter=family))
        spec = model.spectrum
        g = eval_filter(family, spec.sigma_normalized)
        reference = (spec.P * g) @ (spec.Q * g).T
        got = score_users(model, np.arange(n_users))
        assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()

    @ORIENTATIONS
    def test_zero_power_factors_are_the_spectrums_bit_for_bit(self, n_users, n_items):
        # a frequency sweep ranks with s^0 = 1 over one spectrum; the fold
        # multiplies by exactly 1.0, so every K scores on P[:, :K] Q[:, :K]^T
        dataset = _shaped_dataset(n_users, n_items)
        spectrum = fit(dataset, SgfcfConfig(K=16)).spectrum
        # sigma^beta is 1 only at beta = 0 on this spectrum
        assert len(spectrum) == 16 and spectrum.sigma_normalized[-1] < 1.0
        model = fit(dataset, SgfcfConfig(K=12, filter=MonomialFilter(0.0)), spectrum=spectrum)
        assert np.array_equal(model.user_factors, spectrum.P[:, :12])
        assert np.array_equal(model.item_factors, spectrum.Q[:, :12])
        assert np.array_equal(model.user_weights, np.ones(12))

    @pytest.mark.parametrize("K", [16, 12], ids=["whole", "cut"])
    @pytest.mark.parametrize(
        "family",
        [MonomialFilter(1.6), ExponentialFilter(2.0), MarkovFilter(3), JacobiFilter(0.5, 1.5, 4), MonomialFilter(0.0)],
        ids=repr,
    )
    def test_scores_equal_the_user_side_fold_bit_for_bit(self, family, K):
        # With |U| <= |I| the row g^2 weights the scored users' rows of P,
        # which are the same elementwise products as the rows of the copy
        # (P * g^2) that a shared fit once made, so every bit is kept. With
        # |U| > |I| that copy was of Q; test_scores_equal_the_unfolded_product
        # covers that orientation to rounding.
        dataset = _shaped_dataset(30, 60)
        spectrum = fit(dataset, SgfcfConfig(K=16)).spectrum
        model = fit(dataset, SgfcfConfig(K=K, filter=family), spectrum=spectrum)
        P, Q = spectrum.P[:, :K], spectrum.Q[:, :K]
        assert np.shares_memory(model.user_factors, spectrum.P) and np.shares_memory(model.item_factors, spectrum.Q)
        g = eval_filter(family, model.spectrum.sigma_normalized)
        folded = P * (g * g)
        users = np.arange(0, 30, 2)
        expected = model_module._tie_duplicates(model, folded[users] @ Q.T)
        assert np.array_equal(score_users(model, users), expected)
        for u in (0, 7, 29):
            assert np.array_equal(score_user(model, u), model_module._tie_duplicates(model, Q @ folded[u]))

    @ORIENTATIONS
    def test_fit_on_a_given_spectrum_allocates_no_larger_side_array(self, n_users, n_items):
        # The duplicate-item scan holds about 110 bytes per item, under half
        # the bound; a weighted copy of the smaller side alone, which a
        # shared fit once made, would reach it.
        n_users, n_items, K = 20 * n_users, 20 * n_items, 60
        dataset = _shaped_dataset(n_users, n_items, edges_per_node=3)
        graph = build_graph(dataset)
        config = SgfcfConfig(K=K, filter=MonomialFilter(1.6))
        norm = g2n_normalize(graph, config.g2n)
        spec = top_k_svd(norm, K + 4)
        fit(dataset, config, graph=graph, norm=norm, spectrum=spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit(dataset, config, graph=graph, norm=norm, spectrum=spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * min(n_users, n_items) * K, peak

    def test_individualized_factors_are_the_weighted_spectrum_bit_for_bit(self):
        dataset = _shaped_dataset(30, 60)
        config = SgfcfConfig(K=12, igf=IgfConfig(beta=1.6, beta1=1.2, beta2=2.0))
        model = fit(dataset, config)
        spec = model.spectrum
        profile = map_homo_to_beta(homophilic_ratio_all(build_graph(dataset)), config.igf, scope=config.homo_scope)
        sigma = spec.sigma_normalized[None, :]
        assert np.array_equal(model.user_factors, spec.P * np.power(sigma, profile.user_beta[:, None]))
        assert np.array_equal(model.item_factors, spec.Q * np.power(sigma, profile.item_beta[:, None]))
        assert np.array_equal(model.user_weights, np.ones(12))

    @pytest.mark.parametrize(
        "beta1, beta, beta2", [(1.2, 1.6, 2.0), (0.0, 0.0, 5.0), (0.0, 1e6, 1e300), (0.0, 1e300, 1.7e308)]
    )
    def test_individualized_factor_bound_is_one(self, beta1, beta, beta2):
        # sigma_normalized lies in (0, 1] with sigma_1 = 1 and every
        # exponent is at least beta1 >= 0, so each node's weights lie in
        # [0, 1] and its first is 1, however large the exponents
        dataset = _shaped_dataset(30, 60)
        model = fit(dataset, SgfcfConfig(K=12, igf=IgfConfig(beta=beta, beta1=beta1, beta2=beta2)))
        assert np.array_equal(model.user_weights, np.ones(12))
        for factors, own in ((model.user_factors, model.spectrum.P), (model.item_factors, model.spectrum.Q)):
            assert np.array_equal(factors[:, 0], own[:, 0])
        assert np.isfinite(score_users(model, np.arange(30))).all()

    def test_writing_into_the_spectrums_factors_raises(self):
        dataset = _shaped_dataset(30, 60)
        model = fit(dataset, SgfcfConfig(K=12, filter=MonomialFilter(1.6)))
        before = model.spectrum.Q.copy()
        with pytest.raises(ValueError, match="read-only"):
            model.item_factors[0, 0] = 1.0
        assert np.array_equal(model.spectrum.Q, before)


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
        with pytest.raises(UnknownUser):
            recommend(model, model.n_users)
        with pytest.raises(UnknownUser):
            score_users(model, [0, model.n_users])
        # Python ints, numpy integers and an empty batch stay valid
        row = score_user(model, 2)
        assert np.array_equal(score_user(model, np.int64(2)), row)
        assert np.array_equal(recommend(model, np.int64(2)).items, recommend(model, 2).items)
        assert np.array_equal(score_users(model, [2])[0], score_users(model, np.array([2], dtype=np.int32))[0])
        assert score_users(model, []).shape == (0, model.n_items)

    @pytest.mark.parametrize("u", [1.5, True, np.float64(2.0), "3", np.bool_(True)], ids=repr)
    def test_non_integer_user_id_raises_config_error(self, u):
        # these once scored users 1, 1, 2 and 3 in a batch and raised numpy
        # errors one at a time
        model = fit(small_dataset(np.random.default_rng(7)), SgfcfConfig(K=2))
        for call in (score_user, recommend, lambda m, u: score_users(m, [u])):
            with pytest.raises(ConfigError, match="user id"):
                call(model, u)

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
        expected = (model.user_factors * model.user_weights) @ model.item_factors.T + gamma * (W @ W.T @ W).toarray()
        scale = np.abs(expected).max()
        assert np.abs(score_users(model, users) - expected).max() <= 1e-12 * scale
        for u in (0, 17, 119):
            assert np.abs(score_user(model, u) - expected[u]).max() <= 1e-12 * scale

    def test_row_gamma_term_equals_the_sparse_row_product_bit_for_bit(self):
        # the row path scatters r_u from W's arrays and multiplies by the
        # stored W^T; the product through W[u] and the view W.T gives the
        # same bits, users without train items included
        pairs = small_dataset(np.random.default_rng(32), 120, 90)
        # three more users, none of them with a train item
        dataset = dataset_from_pairs(pairs.train.tolist(), test=pairs.test.tolist(), n_users=123, n_items=90)
        gamma = 0.3
        model = fit(dataset, SgfcfConfig(K=6, gamma=gamma))
        W = model.norm.values
        assert (np.diff(W.indptr)[120:] == 0).all()
        for u in range(model.n_users):
            factor_row = model.item_factors @ (model.user_factors[u] * model.user_weights)
            row = W.T @ (W @ W[u].toarray().ravel())
            expected = model_module._tie_duplicates(model, factor_row + gamma * row)
            assert np.array_equal(score_user(model, u), expected)

    @pytest.mark.parametrize("tile", [1, 7, 256])
    def test_gamma_block_adds_the_same_bits_as_the_column_major_product(self, monkeypatch, tile):
        # the row-major W^T and the tiled transposed add only reorder memory
        # traffic: every entry gets the same sum and the same single add
        import sgfcf.model

        monkeypatch.setattr(sgfcf.model, "GAMMA_TILE", tile)
        rng = np.random.default_rng(32)
        model = fit(small_dataset(rng, 120, 90), SgfcfConfig(K=6, gamma=0.3))
        W = model.norm.values
        users = np.arange(0, model.n_users, 3)
        expected = (model.user_factors[users] * model.user_weights) @ model.item_factors.T
        expected += 0.3 * (W.T @ (W @ W[users].T).toarray()).T
        expected[:, model.duplicate_items] = expected[:, model.duplicate_sources]
        assert np.array_equal(score_users(model, users), expected)

    def test_gamma_scores_hold_no_items_by_users_block(self):
        """With |I| >> |U| the gamma term holds the dense W W_users^T and
        one item tile of W^T W W_users^T at a time. The bound counts the
        result rows, the duplicate-tie gather, W W_users^T dense and sparse,
        and a tile with its scaled copy; the whole |I| x n block of W^T W
        W_users^T adds |I| columns more and exceeds it."""
        n_users, n_items = 300, 3000
        R = random_bipartite_graph(np.random.default_rng(5), n_users, n_items, target_edges=10 * n_items).tocoo()
        dataset = dataset_from_pairs(list(zip(R.row.tolist(), R.col.tolist())), n_users=n_users, n_items=n_items)
        model = fit(dataset, SgfcfConfig(K=16, gamma=0.2))
        users = np.arange(0, n_users, 2)
        W = model.norm.values
        sparse_bytes = 16 * (W @ W[users].T).nnz
        score_users(model, users)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            score_users(model, users)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        columns = n_items + len(model.duplicate_items) + n_users + 2 * model_module.GAMMA_TILE
        bound = 8 * len(users) * columns + sparse_bytes
        assert peak <= bound, (peak, bound)


class TestRecommend:
    def test_tie_break_by_item_id(self):
        assert top_k(np.array([[0.9, 0.1, 0.9]]), 2).tolist() == [[0, 2]]
        # items 0 and 2 share their train column, so they tie exactly for user 1
        dataset = dataset_from_pairs(
            [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0), (2, 2)], n_users=3, n_items=3
        )
        ranked = recommend(fit(dataset, SgfcfConfig(K=2)), 1, k=2)
        assert ranked.items.tolist() == [0, 2]
        assert ranked.scores[0] == ranked.scores[1]

    def test_exclusion_soundness(self):
        rng = np.random.default_rng(11)
        dataset = small_dataset(rng)
        model = fit(dataset, SgfcfConfig(K=3))
        for u in range(model.n_users):
            ranked = recommend(model, u, k=5)
            assert not set(ranked.items.tolist()) & set(model.train_items(u).tolist())

    def test_everything_interacted_empty_list(self):
        dataset = dataset_from_pairs([(0, 0), (0, 1), (0, 2), (1, 0)], n_users=2, n_items=3)
        model = fit(dataset, SgfcfConfig(K=2))
        ranked = recommend(model, 0, k=5)
        assert len(ranked.items) == 0

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

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_integer_k_rejected(self, k):
        # k=2.5 raised numpy's "Partition index must be integer"
        model = fit(small_dataset(np.random.default_rng(13)), SgfcfConfig(K=2))
        with pytest.raises(ConfigError, match="k must be an integer"):
            recommend(model, 0, k=k)


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


def _stable_top(scores, k):
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


@st.composite
def _palette_scores(draw):
    """Up to 6 x 200 scores drawn from a palette of a few values (ties,
    +-0.0, -inf, NaN), some of them replaced by distinct normal values."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 200))
    palette = np.array(draw(st.lists(st.one_of(_score_values, st.just(np.nan)), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = palette[rng.integers(len(palette), size=(rows, cols))]
    distinct = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    scores[distinct] = rng.standard_normal(distinct.sum())
    return scores


class TestTopKGroups:
    """top_k's group-maxima path, reached at test widths by shrinking the
    groups and dropping the size floor."""

    @pytest.mark.parametrize("group", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(scores=_palette_scores(), k=st.integers(1, 40))
    def test_matches_stable_argsort(self, group, scores, k):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "TOP_K_GROUP", group)
            mp.setattr(model_module, "TOP_K_MIN_ENTRIES", 0)
            assert np.array_equal(top_k(scores, k), _stable_top(scores, k))

    def test_edge_rows(self, monkeypatch):
        monkeypatch.setattr(model_module, "TOP_K_GROUP", 4)
        monkeypatch.setattr(model_module, "TOP_K_MIN_ENTRIES", 0)
        nb, k = 25, 10  # 4 x 25 grouped columns and 3 tail columns
        rng = np.random.default_rng(3)
        base = rng.standard_normal(4 * nb + 3)
        rows = {}
        rows["nan in one group"] = base.copy()
        rows["nan in one group"][[7, 7 + nb]] = np.nan
        rows["all ties"] = np.full_like(base, 1.5)
        rows["all -inf"] = np.full_like(base, -np.inf)
        rows["fewer than k finite"] = np.full_like(base, -np.inf)
        rows["fewer than k finite"][[3, 40, 77, 101]] = [0.2, 0.9, 0.2, -1.0]
        rows["+-0.0 ties"] = np.where(np.arange(len(base)) % 3 == 0, -0.0, 0.0)
        rows["+-0.0 ties"][[50, 90]] = [-1.0, 2.0]
        # 2.0 at 14 places spread over 14 groups, 3.0 at 4: the k-th place
        # falls inside the 2.0 ties, which only the column order breaks
        rows["ties across groups"] = np.where(base > 0, 1.0, -1.0)
        rows["ties across groups"][np.arange(1, 100, 7)] = 2.0
        rows["ties across groups"][[0, 26, 52, 78]] = 3.0
        rows["top in the tail"] = base.copy()
        rows["top in the tail"][[100, 102]] = [9.0, 8.0]
        rows["nan in the tail"] = base.copy()
        rows["nan in the tail"][101] = np.nan
        scores = np.array(list(rows.values()))
        got = top_k(scores, k)
        for name, row, expected in zip(rows, got, _stable_top(scores, k)):
            assert row.tolist() == expected.tolist(), name
        assert got[list(rows).index("top in the tail")][:2].tolist() == [100, 102]

    def test_bench_scale_chunk(self):
        # a fitted model's 256-user chunk over about 17k items after the
        # train exclusion, at the library's group size and size floor
        rng = np.random.default_rng(9)
        R = random_bipartite_graph(rng, 400, 17000, target_edges=30000, exponent=2.5).tocoo()
        dataset = dataset_from_pairs(list(zip(R.row.tolist(), R.col.tolist())), n_users=400, n_items=17000)
        model = fit(dataset, SgfcfConfig(K=32, gamma=0.2))
        users = np.arange(256)
        scores = model.score_users(users)
        scores[model.train_csr[users].nonzero()] = -np.inf
        assert scores.shape[1] // model_module.TOP_K_GROUP >= 20
        for k in (10, 50):
            assert np.array_equal(top_k(scores, k), _stable_top(scores, k))


def _band_model(graph, K, spectrum=None):
    """Fit the ideal low-pass filter on the top K components, s^0 = 1, on a
    graph's own interactions, over its dense spectrum unless one is given."""
    coo = graph.row_major.tocoo()
    dataset = dataset_from_pairs(
        list(zip(coo.row.tolist(), coo.col.tolist())), n_users=graph.n_users, n_items=graph.n_items
    )
    norm = g2n_normalize(graph, G2NConfig())
    spectrum = dense_svd(norm) if spectrum is None else spectrum
    return fit(dataset, SgfcfConfig(K=K, filter=MonomialFilter(0.0)), graph=graph, norm=norm, spectrum=spectrum)


class TestBandScores:
    def test_full_band_reconstructs_rating_structure(self):
        rng = np.random.default_rng(14)
        graph = random_graph(rng, 8, 6)
        spec = dense_svd(g2n_normalize(graph, G2NConfig()))
        model = _band_model(graph, len(spec))
        expected = spec.P @ spec.Q.T
        got = model.score_users(np.arange(8))
        assert np.abs(got - expected).max() < 1e-12

    def test_band_matches_dense_oracle(self):
        rng = np.random.default_rng(15)
        graph = random_graph(rng, 6, 4)
        norm = g2n_normalize(graph, G2NConfig())
        assert len(dense_svd(norm)) >= 3
        model = _band_model(graph, 2)
        oracle = dense_rank_band(norm.values, 2)
        got = model.score_users(np.arange(6))
        # compare through the reconstruction, which is sign-invariant
        assert np.abs(got - oracle).max() < 1e-10

    def test_mirrored_band_equality(self):
        # top-K band score equals the complementary eigenvector construction
        rng = np.random.default_rng(16)
        graph = random_graph(rng, 10, 7)
        norm = g2n_normalize(graph, G2NConfig())
        from sgfcf import assemble_adjacency
        from sgfcf.theory import _rating_from_eigenvectors

        A = assemble_adjacency(norm)
        eigenvalues, V = np.linalg.eigh(A)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues, V = eigenvalues[order], V[:, order]
        spec = dense_svd(norm)
        gaps = np.diff(spec.sigma)
        K = 1 + int(np.argmax(np.abs(gaps) > 1e-8)) if len(gaps) else 1
        band = _band_model(graph, K, spectrum=spec).score_users(np.arange(10))
        n = A.shape[0]
        mirrored = _rating_from_eigenvectors(V[:, : n - K], 10)
        assert np.abs(band - mirrored).max() < 1e-8

    def test_band_out_of_range(self):
        rng = np.random.default_rng(17)
        graph = random_graph(rng, 6, 5)
        spec = dense_svd(g2n_normalize(graph, G2NConfig()))
        # beyond the spectrum: K itself cannot be served
        with pytest.raises(KTooLarge):
            _band_model(graph, 3, spectrum=spec.truncate(2))


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


def test_fit_delta_four_above_the_exact_cap_raises():
    # 150 + 120 nodes exceed HOMOPHILY_EXACT_CAP; beta1 < beta2 needs homophily
    from sgfcf.errors import SizeCapExceeded

    dataset = small_dataset(np.random.default_rng(25), 150, 120)
    config = SgfcfConfig(K=4, delta=4, igf=IgfConfig(beta=1.6, beta1=1.2, beta2=2.0))
    with pytest.raises(SizeCapExceeded):
        fit(dataset, config)


def test_config_rejects_odd_delta_and_unknown_mode():
    from sgfcf.errors import OddDelta

    # a shared filter never reads delta, but the config still records it
    with pytest.raises(OddDelta):
        SgfcfConfig(K=2, delta=3, filter=MonomialFilter(1.0))
    with pytest.raises(ConfigError):
        SgfcfConfig(K=2, homo_mode="bogus")


def test_fit_raises_the_homophily_cap_before_the_svd(monkeypatch):
    from sgfcf.errors import SizeCapExceeded

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD run before homophily")

    monkeypatch.setattr(model_module, "top_k_svd", forbidden)
    dataset = small_dataset(np.random.default_rng(25), 150, 120)
    config = SgfcfConfig(K=4, delta=4, igf=IgfConfig(beta=1.6, beta1=1.2, beta2=2.0))
    with pytest.raises(SizeCapExceeded):
        fit(dataset, config)


class TestStagesMustMatch:
    @pytest.fixture
    def dataset(self):
        return small_dataset(np.random.default_rng(26), 20, 16)

    def test_norm_of_another_g2n_config_rejected(self, dataset):
        norm = g2n_normalize(build_graph(dataset), G2NConfig(alpha=0.0))
        with pytest.raises(ConfigError):
            fit(dataset, SgfcfConfig(K=3, g2n=G2NConfig(alpha=8.0)), norm=norm)

    @pytest.mark.parametrize("delta, mode", [(4, "inclusive"), (2, "strict")])
    def test_homophily_of_another_delta_or_mode_rejected(self, dataset, delta, mode):
        from sgfcf import homophilic_ratio_all

        homophily = homophilic_ratio_all(build_graph(dataset), delta=delta, mode=mode)
        config = SgfcfConfig(K=3, igf=IgfConfig(beta=1.0, beta1=0.8, beta2=1.2))
        with pytest.raises(ConfigError):
            fit(dataset, config, homophily=homophily)

    def test_spectrum_of_another_graph_rejected(self, dataset):
        other = small_dataset(np.random.default_rng(27), 16, 20)
        spectrum = dense_svd(g2n_normalize(build_graph(other), G2NConfig()))
        with pytest.raises(ConfigError):
            fit(dataset, SgfcfConfig(K=3), spectrum=spectrum)

    def test_graph_of_another_dataset_rejected(self, dataset):
        # the norm, homophily and spectrum checks compare against the graph,
        # so a wrong graph fitted a 24 x 16 model and evaluate raised IndexError
        other = small_dataset(np.random.default_rng(27), 24, 16)
        with pytest.raises(ConfigError, match="24 x 16"):
            fit(dataset, SgfcfConfig(K=3), graph=build_graph(other))
        fit(dataset, SgfcfConfig(K=3), graph=build_graph(dataset))

    def test_norm_of_another_graph_rejected(self, dataset):
        # same G2N config, more users: numpy's broadcast error before the check
        other = small_dataset(np.random.default_rng(27), 24, 16)
        norm = g2n_normalize(build_graph(other), G2NConfig())
        with pytest.raises(ConfigError, match=r"\(24, 16\)"):
            fit(dataset, SgfcfConfig(K=3), norm=norm)

    def test_homophily_of_another_graph_rejected(self, dataset):
        from sgfcf import homophilic_ratio_all

        other = small_dataset(np.random.default_rng(27), 24, 16)
        homophily = homophilic_ratio_all(build_graph(other), delta=2)
        config = SgfcfConfig(K=3, igf=IgfConfig(beta=1.0, beta1=0.8, beta2=1.2))
        with pytest.raises(ConfigError, match=r"\(24, 16\)"):
            fit(dataset, config, homophily=homophily)


def test_model_summary_round_trips_config():
    rng = np.random.default_rng(19)
    dataset = small_dataset(rng)
    config = SgfcfConfig(K=3, gamma=0.1, igf=IgfConfig(beta=1.0, beta1=0.8, beta2=1.2))
    model = fit(dataset, config)
    summary = model_summary(model)
    assert summary["config"] == serialize_config(config)
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
    dataset = small_dataset(rng, n_users=80, n_items=60)
    config = SgfcfConfig(K=4, svd_power_iters=1)
    # one power iteration on 80 x 60 leaves K=4 visibly inexact
    norm = g2n_normalize(build_graph(dataset), config.g2n)
    rough = fit(dataset, config, spectrum=truncated_svd(norm, 4, power_iters=1, seed=config.seed))
    expected = dense_residual_max(rough)
    assert expected > 1e-6
    assert model_summary(rough)["svd_residual_max"] == pytest.approx(expected, rel=1e-9)
    # fit itself takes the exact Gram path at this size
    assert model_summary(fit(dataset, config))["svd_residual_max"] < 1e-10
    # 30 x 20 with K=12: the first block of K + 8 columns already spans
    # all 20 item directions, so the triplets are exact to roundoff
    exact = fit(small_dataset(rng, n_users=30, n_items=20), SgfcfConfig(K=12))
    assert model_summary(exact)["svd_residual_max"] < 1e-10
