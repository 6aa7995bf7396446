import json
import logging
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.special import eval_jacobi

from sgfcf import (
    ExponentialFilter,
    HomophilyScores,
    IgfConfig,
    JacobiFilter,
    MarkovFilter,
    MonomialFilter,
    eval_filter,
    graph_from_matrix,
    homophilic_pair_counts,
    homophilic_ratio_all,
    map_homo_to_beta,
)
from sgfcf import filters, parallel
from sgfcf.cli import run_command
from sgfcf.errors import ConfigError, OddDelta, SizeCapExceeded
from sgfcf.theory import random_bipartite_graph

from conftest import random_graph
from oracles import cooccurrence_counts_reference, homophily_counts_bruteforce


@st.composite
def interaction_matrices(draw):
    """Dense 0/1 matrices, sometimes with a copy of one column, a row that
    touches every column, an empty row and an empty column."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cells = draw(st.lists(st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    dense = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)
    if draw(st.booleans()):
        dense = np.hstack([dense, dense[:, [draw(st.integers(0, n_cols - 1))]]])
    if draw(st.booleans()):
        dense = np.vstack([dense, np.ones((1, dense.shape[1]))])
    if draw(st.booleans()):
        dense = np.vstack([dense, np.zeros((1, dense.shape[1]))])
    if draw(st.booleans()):
        dense = np.hstack([dense, np.zeros((dense.shape[0], 1))])
    return dense


def block_bytes(width, shape):
    """The block budget that gives blocks of ``width`` float32 columns."""
    return width * 4 * max(shape)


class TestEvalFilter:
    def test_monomial_zero_power(self):
        weights = eval_filter(MonomialFilter(beta=0.0), np.array([1.0, 0.5, 0.0]))
        assert np.allclose(weights, 1.0)

    def test_monomial_squaring(self):
        weights = eval_filter(MonomialFilter(beta=2.0), np.array([1.0, 0.5, 0.1]))
        assert np.allclose(weights, [1.0, 0.25, 0.01])

    def test_monomial_zero_convention(self):
        # 0^beta = 0 exactly for beta > 0, as np.power gives it
        assert eval_filter(MonomialFilter(beta=1.5), np.array([0.0]))[0] == 0.0

    def test_monomial_powers_zero_exactly(self):
        # 0^beta = 0 for beta > 0 and 0^0 = 1, as np.power gives them
        assert eval_filter(MonomialFilter(beta=0.5), [1.0, 0.0]).tolist() == [1.0, 0.0]
        assert eval_filter(MonomialFilter(beta=0.0), [1.0, 0.0]).tolist() == [1.0, 1.0]

    def test_exponential_normalized_at_one(self):
        sigma = np.array([1.0, 0.6, 0.2])
        weights = eval_filter(ExponentialFilter(beta=2.5), sigma)
        assert weights[0] == pytest.approx(1.0)
        assert np.allclose(weights, np.exp(2.5 * sigma) * np.exp(-2.5))

    def test_markov_hand_computed(self):
        weights = eval_filter(MarkovFilter(order=2), np.array([1.0, 0.5]))
        assert np.allclose(weights, [1.0, (1 + 0.5 + 0.25) / 3])

    def test_jacobi_matches_scipy(self):
        sigma = np.linspace(0.0, 1.0, 17)
        for a, b, order in [(1.0, 1.0, 3), (0.5, -0.2, 4), (2.0, 0.0, 5)]:
            expected = sum(eval_jacobi(k, a, b, sigma) for k in range(order + 1))
            got = eval_filter(JacobiFilter(a=a, b=b, order=order), sigma)
            assert np.allclose(got, np.maximum(expected, 0.0), atol=1e-12)

    @pytest.mark.parametrize(
        "family", [JacobiFilter(-0.9999999999999999, -0.9999999999999999, 2), JacobiFilter(1e200, 0.0)]
    )
    def test_non_finite_weights_raise_naming_the_filter(self, family):
        # a denominator that rounds to 0.0, and a recurrence that overflows:
        # both returned NaN weights with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape(f"{family!r} gives filter weights")):
                eval_filter(family, np.array([1.0, 0.5, 0.0]))

    def test_jacobi_clamped_nonnegative(self):
        sigma = np.linspace(0.0, 1.0, 101)
        weights = eval_filter(JacobiFilter(a=0.0, b=4.0, order=6), sigma)
        assert (weights >= 0.0).all()

    @pytest.mark.parametrize(
        "family",
        [MonomialFilter(0.0), MonomialFilter(1.7), ExponentialFilter(3.0), MarkovFilter(4), JacobiFilter(0.5, 1.5, 4)],
        ids=repr,
    )
    def test_weights_are_elementwise(self, family):
        # no family reads a value's position, so sigma need not be sorted
        sigma = np.array([1.0, 0.8, 0.55, 0.3, 0.1, 0.0])
        perm = np.array([3, 0, 5, 1, 4, 2])
        assert np.array_equal(eval_filter(family, sigma[perm]), eval_filter(family, sigma)[perm])

    def test_monotone_families(self):
        sigma = np.linspace(1.0, 0.0, 40)  # decreasing
        for family in (MonomialFilter(1.7), ExponentialFilter(3.0), MarkovFilter(4)):
            weights = eval_filter(family, sigma)
            assert (np.diff(weights) <= 1e-12).all(), family

    def test_validation(self):
        with pytest.raises(ConfigError):
            MonomialFilter(beta=-0.1)
        with pytest.raises(ConfigError):
            MarkovFilter(order=0)
        with pytest.raises(ConfigError):
            JacobiFilter(a=-1.0, b=0.0)

    @pytest.mark.parametrize("family", [MonomialFilter, ExponentialFilter])
    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, family, beta):
        with pytest.raises(ConfigError, match="beta"):
            family(beta=beta)

    @pytest.mark.parametrize("order", [2.5, 2.0, True])
    @pytest.mark.parametrize("family", [MarkovFilter, JacobiFilter])
    def test_non_integer_order_rejected(self, family, order):
        # order=2.5 built, and eval_filter then raised a TypeError
        with pytest.raises(ConfigError, match="order must be an integer"):
            family(order=order)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("end", ["a", "b"])
    def test_non_finite_jacobi_parameter_rejected(self, end, value):
        # nan or inf made every weight NaN
        with pytest.raises(ConfigError, match="jacobi"):
            JacobiFilter(**{end: value})


@settings(max_examples=40, deadline=None)
@given(
    beta=st.floats(0.0, 6.0),
    sigma=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_monomial_bounded_on_unit_interval(beta, sigma):
    weights = eval_filter(MonomialFilter(beta=beta), np.array(sigma))
    assert ((weights >= 0.0) & (weights <= 1.0 + 1e-12)).all()


class TestHomophily:
    def test_single_item_user_scores_one(self):
        # u0 has one item; only the diagonal pair contributes
        graph = graph_from_matrix(sp.csr_matrix(np.array([[1.0, 0], [1, 1]])))
        scores = homophilic_ratio_all(graph, delta=2)
        assert scores.user_scores[0] == 1.0

    def test_full_square_all_ones(self):
        graph = graph_from_matrix(sp.csr_matrix(np.ones((2, 2))))
        scores = homophilic_ratio_all(graph, delta=2)
        assert np.allclose(scores.user_scores, 1.0)
        assert np.allclose(scores.item_scores, 1.0)

    def test_strict_mode_counts_only_diagonal_at_delta_two(self):
        rng = np.random.default_rng(0)
        graph = random_graph(rng, 8, 10)
        scores = homophilic_ratio_all(graph, delta=2, mode="strict")
        active = graph.user_degrees > 0
        assert np.allclose(scores.user_scores[active], 1.0 / graph.user_degrees[active])

    def test_odd_delta_rejected(self):
        rng = np.random.default_rng(1)
        graph = random_graph(rng, 5, 5)
        with pytest.raises(OddDelta):
            homophilic_ratio_all(graph, delta=3)
        with pytest.raises(OddDelta):
            homophilic_ratio_all(graph, delta=0)

    @pytest.mark.parametrize("delta", [2, 4, 6, 8])
    @pytest.mark.parametrize("mode", ["inclusive", "strict"])
    def test_matches_bruteforce_bfs(self, delta, mode):
        rng = np.random.default_rng(delta * 7 + (mode == "strict"))
        matrices = [
            random_bipartite_graph(rng, int(rng.integers(6, 18)), int(rng.integers(6, 18)))
            for _ in range(3)
        ]
        # user 2 and item 3 have no interactions
        with_empty = random_bipartite_graph(rng, 12, 10).tolil()
        with_empty[2, :] = 0
        with_empty[:, 3] = 0
        matrices.append(with_empty)
        for trial, R in enumerate(matrices):
            graph = graph_from_matrix(R)
            fast_users, fast_items = homophilic_pair_counts(graph, delta, mode)
            slow_users, slow_items = homophily_counts_bruteforce(graph, delta, mode)
            assert np.array_equal(fast_users, slow_users), (delta, mode, trial)
            assert np.array_equal(fast_items, slow_items), (delta, mode, trial)

    def test_exact_cap_enforced(self):
        rng = np.random.default_rng(2)
        R = random_bipartite_graph(rng, 150, 120)
        with pytest.raises(SizeCapExceeded):
            homophilic_pair_counts(graph_from_matrix(R), delta=4)

    def test_ratios_above_the_exact_cap_raise(self):
        rng = np.random.default_rng(3)
        graph = graph_from_matrix(random_bipartite_graph(rng, 150, 120))
        with pytest.raises(SizeCapExceeded):
            homophilic_ratio_all(graph, delta=4)
        # strict delta 4 is inclusive delta 2, which runs at any size
        assert len(homophilic_ratio_all(graph, delta=4, mode="strict").user_scores) == 150

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(4)
        graph = random_graph(rng, 20, 16)
        scores = homophilic_ratio_all(graph, delta=2)
        for vec in (scores.user_scores, scores.item_scores):
            assert ((vec > 0.0) & (vec <= 1.0)).all()

    # one column per block, uneven blocks (3 columns over up to 11), one block
    @pytest.mark.parametrize("width", [1, 3, None])
    @given(dense=interaction_matrices())
    @settings(max_examples=80, deadline=None)
    def test_blocked_counts_equal_the_gram_counts(self, width, dense):
        graph = graph_from_matrix(sp.csr_matrix(dense))
        budget = 2**40 if width is None else block_bytes(width, dense.shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "COOCCURRENCE_BLOCK_BYTES", budget)
            users, items = homophilic_pair_counts(graph, delta=2)
        assert users.dtype == items.dtype == np.int64
        assert np.array_equal(users, cooccurrence_counts_reference(graph.row_major))
        assert np.array_equal(items, cooccurrence_counts_reference(graph.col_major))

    def test_pair_counts_stay_within_the_block_budget(self, monkeypatch):
        # dense enough that every item pair co-occurs: the full item Gram
        # holds 640k entries and the user Gram nearly 1M
        rng = np.random.default_rng(5)
        graph = graph_from_matrix(sp.random(1000, 800, density=0.1, random_state=rng, format="csr"))
        budget = 2**18
        monkeypatch.setattr(filters, "COOCCURRENCE_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            homophilic_pair_counts(graph, delta=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * budget + 32 * graph.nnz, peak

    def test_pair_counts_log_their_blocks(self, monkeypatch, caplog):
        rng = np.random.default_rng(6)
        graph = random_graph(rng, 40, 30)
        monkeypatch.setattr(filters, "COOCCURRENCE_BLOCK_BYTES", block_bytes(7, (40, 30)))
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
        with caplog.at_level(logging.DEBUG, logger="sgfcf"):
            homophilic_pair_counts(graph, delta=2)
        messages = [r.getMessage() for r in caplog.records if r.name == "sgfcf"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records if r.name == "sgfcf")
        assert messages == [
            "user homophily: 5 co-occurrence blocks of 7 columns over 30 neighbors",
            "item homophily: 6 co-occurrence blocks of 7 columns over 40 neighbors",
        ]

    # inclusive at delta 2 and strict at delta 4 both run the blocked count
    @pytest.mark.parametrize("delta, mode", [(2, "inclusive"), (4, "strict")])
    def test_counts_do_not_depend_on_the_worker_count(self, monkeypatch, delta, mode):
        graph = graph_from_matrix(random_bipartite_graph(np.random.default_rng(21), 300, 200, exponent=2.1))
        # strict at delta 4 counts what inclusive at 2 does, and the oracle
        # takes a second for the one against several for the other
        expected = homophily_counts_bruteforce(graph, 2)
        # a few columns per block, so every worker takes many blocks
        monkeypatch.setattr(filters, "COOCCURRENCE_BLOCK_BYTES", block_bytes(6, (300, 200)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
                users, items = homophilic_pair_counts(graph, delta, mode)
                assert np.array_equal(users, expected[0]), cpus
                assert np.array_equal(items, expected[1]), cpus
        finally:
            sys.setswitchinterval(interval)


class TestIgfMapping:
    def test_zero_width_range(self):
        scores = HomophilyScores(
            user_scores=np.array([0.3, 0.9]), item_scores=np.array([0.5]), delta=2
        )
        profile = map_homo_to_beta(scores, IgfConfig(beta=2.0, beta1=2.0, beta2=2.0))
        assert np.allclose(profile.user_beta, 2.0)
        assert np.allclose(profile.item_beta, 2.0)

    def test_linear_interpolation(self):
        scores = HomophilyScores(
            user_scores=np.array([0.2, 0.5, 0.8]), item_scores=np.array([1.0]), delta=2
        )
        profile = map_homo_to_beta(scores, IgfConfig(beta=2.0, beta1=1.0, beta2=3.0))
        assert np.allclose(profile.user_beta, [1.0, 2.0, 3.0])
        # degenerate item side falls back to the anchor
        assert np.allclose(profile.item_beta, 2.0)

    def test_all_equal_scores_get_anchor(self):
        scores = HomophilyScores(
            user_scores=np.full(4, 0.7), item_scores=np.full(3, 0.7), delta=2
        )
        profile = map_homo_to_beta(scores, IgfConfig(beta=1.5, beta1=1.0, beta2=2.0))
        assert np.allclose(profile.user_beta, 1.5)

    def test_range_invariant(self):
        rng = np.random.default_rng(5)
        scores = HomophilyScores(
            user_scores=rng.uniform(0.01, 1.0, 50),
            item_scores=rng.uniform(0.01, 1.0, 40),
            delta=2,
        )
        cfg = IgfConfig(beta=1.5, beta1=1.2, beta2=1.8)
        profile = map_homo_to_beta(scores, cfg)
        for vec in (profile.user_beta, profile.item_beta):
            assert vec.min() >= cfg.beta1 - 1e-12
            assert vec.max() <= cfg.beta2 + 1e-12

    def test_order_preserved_under_scaling(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.01, 1.0, 30)
        cfg = IgfConfig(beta=2.0, beta1=1.0, beta2=3.0)
        profile_a = map_homo_to_beta(
            HomophilyScores(user_scores=base, item_scores=base, delta=2), cfg
        )
        profile_b = map_homo_to_beta(
            HomophilyScores(user_scores=0.37 * base, item_scores=0.37 * base, delta=2), cfg
        )
        assert np.array_equal(np.argsort(profile_a.user_beta), np.argsort(profile_b.user_beta))
        assert np.allclose(profile_a.user_beta, profile_b.user_beta)

    def test_global_scope(self):
        scores = HomophilyScores(
            user_scores=np.array([0.0, 1.0]), item_scores=np.array([0.5]), delta=2
        )
        profile = map_homo_to_beta(scores, IgfConfig(beta=1.0, beta1=0.0, beta2=2.0), scope="global")
        assert np.allclose(profile.user_beta, [0.0, 2.0])
        assert np.allclose(profile.item_beta, [1.0])

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            IgfConfig(beta=1.0, beta1=2.0, beta2=3.0)

    @pytest.mark.parametrize("ends", [{"beta": -1.0}, {"beta": 0.5, "beta1": -0.1}])
    def test_negative_beta1_rejected(self, ends):
        # beta = -1 with its ends following it used to fit silently
        with pytest.raises(ConfigError, match="beta1"):
            IgfConfig(**ends)

    @pytest.mark.parametrize("ends", [{"beta": float("inf")}, {"beta": 1.0, "beta2": float("inf")}])
    def test_non_finite_beta2_rejected(self, ends):
        with pytest.raises(ConfigError, match="beta2"):
            IgfConfig(**ends)

    def test_range_ends_default_to_beta(self):
        assert IgfConfig(beta=1.5) == IgfConfig(1.5, 1.5, 1.5)
        assert IgfConfig(beta=1.5, beta1=1.2) == IgfConfig(1.5, 1.2, 1.5)
        with pytest.raises(ConfigError):
            IgfConfig(beta=1.5, beta2=1.2)


def test_homophily_csv_export(data_file, tmp_path):
    out = tmp_path / "runs"
    argv = ["fit", "--data", data_file, "--K", "4", "--beta1", "0.5", "--beta2", "1.5", "--out", str(out)]
    assert run_command(argv) == 0
    (run_dir,) = out.iterdir()
    summary = json.loads((run_dir / "model_summary.json").read_text())
    lines = (run_dir / "homophily.csv").read_text().strip().splitlines()
    assert lines[0] == "node_type,node_id,score,beta"
    assert len(lines) == 1 + summary["n_users"] + summary["n_items"]
    node_types = [line.split(",")[0] for line in lines[1:]]
    assert node_types == ["user"] * summary["n_users"] + ["item"] * summary["n_items"]
    assert all(0.5 <= float(line.split(",")[3]) <= 1.5 for line in lines[1:])
