import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sgfcf import (
    BandFilter,
    G2NConfig,
    GridSpec,
    IgfConfig,
    SgfcfConfig,
    build_graph,
    dataset_from_pairs,
    dense_svd,
    evaluate,
    fit,
    frequency_sweep,
    g2n_normalize,
    grid_search,
    ndcg_at_k,
    recall_at_k,
)
from sgfcf import evaluation
from sgfcf.errors import BandOutOfRange, ConfigError, EmptyTestSet, EmptyValidation, KTooLarge, NoEvaluableUsers
from sgfcf.evaluation import write_grid_csv, write_sweep_csv
from sgfcf.model import RankedList
from sgfcf.spectral import top_k_svd
from sgfcf.theory import random_bipartite_graph

from oracles import duplicate_sources_bruteforce


class TestRecallAtK:
    def test_full_hit(self):
        assert recall_at_k(["a", "b"], {"a"}) == 1.0

    def test_no_hit(self):
        assert recall_at_k(["a", "b"], {"c", "d"}) == 0.0

    def test_partial(self):
        assert recall_at_k(["a", "b", "c"], {"a", "c", "x", "y"}) == 0.5

    def test_empty_test_set(self):
        with pytest.raises(EmptyTestSet):
            recall_at_k(["a"], set())

    def test_accepts_ranked_list(self):
        ranked = RankedList(user_id=0, items=np.array([3, 1]), scores=np.array([0.9, 0.1]))
        assert recall_at_k(ranked, {3}) == 1.0


class TestNdcgAtK:
    def test_ideal_rank(self):
        assert ndcg_at_k([5, 6, 7], {5}) == pytest.approx(1.0)

    def test_rank_two_single_item(self):
        got = ndcg_at_k(list(range(10)), {1})  # hit at rank 2
        assert got == pytest.approx(1.0 / np.log2(3.0))

    def test_no_hits_zero(self):
        assert ndcg_at_k([1, 2, 3], {99}) == 0.0

    def test_empty_test_set(self):
        with pytest.raises(EmptyTestSet):
            ndcg_at_k([1], set())

    def test_perfect_prefix(self):
        # all test items in the top |test| ranks -> exactly 1
        assert ndcg_at_k([4, 2, 9, 0], {2, 4}) == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    ranked=st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
    test_items=st.sets(st.integers(0, 30), min_size=1, max_size=10),
)
def test_metric_bounds(ranked, test_items):
    r = recall_at_k(ranked, test_items)
    n = ndcg_at_k(ranked, test_items)
    assert 0.0 <= r <= 1.0
    assert 0.0 <= n <= 1.0
    # both metrics hit 1 together exactly when the top-|test| ranks are all hits
    if set(ranked[: len(test_items)]) == test_items and len(test_items) <= len(ranked):
        assert r == 1.0 and n == pytest.approx(1.0)


class _OracleScorer:
    """Scores equal to test membership; ranks all test items on top."""

    def __init__(self, dataset):
        self.dataset = dataset
        self.train_csr = build_graph(dataset).row_major
        self.n_users = dataset.n_users
        self.n_items = dataset.n_items

    def score_users(self, users):
        scores = np.zeros((len(users), self.n_items))
        for row, u in enumerate(users):
            mask = self.dataset.test[:, 0] == u
            scores[row, self.dataset.test[mask, 1]] = 1.0
        return scores


class TestEvaluate:
    def test_oracle_model_is_perfect(self, toy_dataset):
        result = evaluate(_OracleScorer(toy_dataset), toy_dataset, k=2)
        assert result.recall_at_k == 1.0
        assert result.ndcg_at_k == pytest.approx(1.0)
        assert result.users_evaluated == 3

    def test_hand_checked_average(self):
        dataset = dataset_from_pairs(
            train=[(0, 0), (0, 1), (1, 0), (1, 1)],
            test=[(0, 2), (1, 3)],
            n_users=2,
            n_items=4,
        )
        model = fit(dataset, SgfcfConfig(K=2))
        result = evaluate(model, dataset, k=2)
        per_user = []
        for u in range(2):
            ranked = model.recommend(u, k=2)
            test_items = set(dataset.test[dataset.test[:, 0] == u, 1].tolist())
            per_user.append(
                (recall_at_k(ranked, test_items), ndcg_at_k(ranked, test_items))
            )
        assert result.recall_at_k == pytest.approx(np.mean([p[0] for p in per_user]))
        assert result.ndcg_at_k == pytest.approx(np.mean([p[1] for p in per_user]))

    def test_users_without_test_are_skipped(self):
        dataset = dataset_from_pairs(
            train=[(0, 0), (1, 0), (1, 1), (2, 1)],
            test=[(1, 2)],
            n_users=3,
            n_items=3,
        )
        model = fit(dataset, SgfcfConfig(K=2))
        result = evaluate(model, dataset, k=2)
        assert result.users_evaluated == 1

    def test_no_evaluable_users(self):
        dataset = dataset_from_pairs(train=[(0, 0), (1, 1)], n_users=2, n_items=2)
        model = fit(dataset, SgfcfConfig(K=2))
        with pytest.raises(NoEvaluableUsers):
            evaluate(model, dataset, k=2)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_raises(self, toy_dataset, k):
        # as recommend does; a cutoff below 1 would score every user 0
        model = fit(toy_dataset, SgfcfConfig(K=2))
        with pytest.raises(ConfigError):
            evaluate(model, toy_dataset, k=k)

    def test_rank_only_dependence(self, toy_dataset):
        # a strictly monotone transform of the scores leaves metrics unchanged
        model = fit(toy_dataset, SgfcfConfig(K=2, gamma=0.1))

        class Transformed:
            train_csr = model.train_csr
            n_users = model.n_users
            n_items = model.n_items

            def score_users(self, users):
                return 3.0 * np.tanh(model.score_users(users)) + 7.0

        base = evaluate(model, toy_dataset, k=2)
        warped = evaluate(Transformed(), toy_dataset, k=2)
        assert base.recall_at_k == warped.recall_at_k
        assert base.ndcg_at_k == pytest.approx(warped.ndcg_at_k)

    def test_val_split_selection(self):
        dataset = dataset_from_pairs(
            train=[(0, 0), (0, 1), (1, 0), (1, 1)],
            val=[(0, 2)],
            test=[(1, 3)],
            n_users=2,
            n_items=4,
        )
        model = fit(dataset, SgfcfConfig(K=2))
        val_result = evaluate(model, dataset, k=2, split="val")
        assert val_result.users_evaluated == 1
        with pytest.raises(ConfigError):
            evaluate(model, dataset, k=2, split="train")


def _tied_dataset():
    """50 x 38 with eight duplicated item columns in train. A copy scores
    exactly like its source, so top-k lists hold exact ties, several of them
    straddling the k-th place; three random unseen items per user are held
    out."""
    rng = np.random.default_rng(2024)
    R = random_bipartite_graph(rng, 50, 30, target_edges=300).tocsc()
    popular = np.argsort(-np.diff(R.indptr), kind="stable")[:8]
    train = sp.hstack([R, R[:, popular]]).tocsr()
    n_items = train.shape[1]
    test = []
    for u in range(train.shape[0]):
        unseen = np.setdiff1d(np.arange(n_items), train.indices[train.indptr[u] : train.indptr[u + 1]])
        test += [(u, int(i)) for i in rng.choice(unseen, size=min(3, len(unseen)), replace=False)]
    coo = train.tocoo()
    return dataset_from_pairs(
        list(zip(coo.row.tolist(), coo.col.tolist())), test=test, n_users=train.shape[0], n_items=n_items
    )


# Recorded once duplicate items were tied exactly to their source; with
# exact ties the values follow the ascending-id rule alone, so they must not
# move by a bit when the SVD, top-k or gamma product changes with roundoff.
@pytest.mark.parametrize(
    "igf, k, recall, ndcg",
    [
        (IgfConfig(beta=1.6, beta1=1.6, beta2=1.6), 5, 0.1944444444444444, 0.163318282469438),
        (IgfConfig(beta=1.6, beta1=1.6, beta2=1.6), 10, 0.3958333333333332, 0.2523258477477203),
        (IgfConfig(beta=1.2, beta1=0.8, beta2=1.6), 5, 0.19444444444444442, 0.16160978034615295),
        (IgfConfig(beta=1.2, beta1=0.8, beta2=1.6), 10, 0.36805555555555564, 0.23918570647749116),
    ],
)
def test_golden_metrics_with_ties(igf, k, recall, ndcg):
    dataset = _tied_dataset()
    result = evaluate(fit(dataset, SgfcfConfig(K=12, gamma=0.3, igf=igf, seed=3)), dataset, k=k)
    assert result.users_evaluated == 48
    assert result.recall_at_k == recall
    assert result.ndcg_at_k == ndcg


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(SgfcfConfig(K=12, gamma=gamma, igf=igf, seed=3), id=f"igf{i}-{gamma}")
        for i, igf in enumerate(
            [IgfConfig(beta=1.6, beta1=1.6, beta2=1.6), IgfConfig(beta=1.2, beta1=0.8, beta2=1.6)]
        )
        for gamma in (0.0, 0.3)
    ]
    + [pytest.param(SgfcfConfig(K=12, filter=BandFilter()), id="band")],
)
def test_duplicate_items_score_bitwise_like_their_source(config):
    dataset = _tied_dataset()
    model = fit(dataset, config)
    sources = duplicate_sources_bruteforce(model.train_csr.toarray())
    copies = np.flatnonzero(sources != np.arange(model.n_items))
    assert len(copies) >= 8
    batch = model.score_users(np.arange(model.n_users))
    assert np.array_equal(batch[:, copies], batch[:, sources[copies]])
    for u in range(model.n_users):
        row = model.score_user(u)
        assert np.array_equal(row[copies], row[sources[copies]])


def test_golden_sweep_with_ties():
    # Recorded once sweeps went through fit, whose duplicate items tie
    # exactly with their source; before that, roundoff ordered the copies
    # (K=2 gave recall 0.1875).
    dataset = _tied_dataset()
    norm = g2n_normalize(build_graph(dataset), G2NConfig())
    rows = frequency_sweep(dataset, norm, [2, 8, 12], metric_k=5)
    assert [(row["K"], row["recall"], row["ndcg"]) for row in rows] == [
        (2, 0.18055555555555555, 0.15328704700057363),
        (8, 0.19444444444444445, 0.16122169882790263),
        (12, 0.19444444444444445, 0.15976779204800784),
    ]


def _sweep_dataset(rng, n_users=40, n_items=30):
    R = random_bipartite_graph(rng, n_users, n_items, target_edges=n_users * 6)
    coo = R.tocoo()
    pairs = list(zip(coo.row.tolist(), coo.col.tolist()))
    rng.shuffle(pairs)
    cut = len(pairs) // 5
    return dataset_from_pairs(pairs[cut:], test=pairs[:cut], n_users=n_users, n_items=n_items)


class TestFrequencySweep:
    def test_rows_start_at_one_and_have_fractions(self):
        rng = np.random.default_rng(0)
        dataset = _sweep_dataset(rng)
        norm = g2n_normalize(build_graph(dataset), G2NConfig())
        rows = frequency_sweep(dataset, norm, [1, 2, 5, 10])
        assert [row["K"] for row in rows] == [1, 2, 5, 10]
        assert all(0 < row["fraction"] <= 1 for row in rows)
        with pytest.raises(ConfigError):
            frequency_sweep(dataset, norm, [0, 1])

    def test_clamps_only_a_spectrum_it_takes_itself(self):
        rng = np.random.default_rng(2)
        dataset = _sweep_dataset(rng, 20, 15)
        norm = g2n_normalize(build_graph(dataset), G2NConfig())
        spec = dense_svd(norm)
        assert len(spec) == 15
        rows = frequency_sweep(dataset, norm, [4, 15, 40])
        assert [(row["K"], row["fraction"]) for row in rows] == [(4, 4 / 15), (15, 1.0)]
        assert rows == frequency_sweep(dataset, norm, [4, 15], spectrum=spec)
        with pytest.raises(BandOutOfRange):
            frequency_sweep(dataset, norm, [4, 40], spectrum=spec)

    def test_truncated_spectrum_serves_the_whole_grid(self, monkeypatch):
        # the one spectrum is taken at the grid's largest K
        calls = []

        def spy(matrix, K, **kwargs):
            calls.append((matrix, K, kwargs.get("seed")))
            return top_k_svd(matrix, K, **kwargs)

        monkeypatch.setattr(evaluation, "top_k_svd", spy)
        rng = np.random.default_rng(3)
        dataset = _sweep_dataset(rng)
        norm = g2n_normalize(build_graph(dataset), G2NConfig())
        rows = frequency_sweep(dataset, norm, [2, 4], seed=1)
        assert len(calls) == 1 and calls[0][0] is norm and calls[0][1:] == (4, 1)
        assert [(row["K"], row["fraction"]) for row in rows] == [(2, 0.5), (4, 1.0)]
        dense = frequency_sweep(dataset, norm, [2, 4], spectrum=dense_svd(norm))
        for row, exact in zip(rows, dense):
            assert row["recall"] == pytest.approx(exact["recall"], abs=1e-12)
            assert row["ndcg"] == pytest.approx(exact["ndcg"], abs=1e-12)

    def test_fraction_is_of_the_spectrum_taken_at_an_oracle_size(self, monkeypatch):
        # below the dense oracle's cap too, the spectrum comes from top_k_svd
        # at the grid's largest K, not from a full decomposition
        taken = []

        def spy(matrix, K, **kwargs):
            taken.append(top_k_svd(matrix, K, **kwargs))
            return taken[-1]

        monkeypatch.setattr(evaluation, "top_k_svd", spy)
        rng = np.random.default_rng(4)
        dataset = _sweep_dataset(rng)
        norm = g2n_normalize(build_graph(dataset), G2NConfig())
        assert len(dense_svd(norm)) > 6
        rows = frequency_sweep(dataset, norm, [1, 3, 6])
        assert [len(spectrum) for spectrum in taken] == [6]
        assert [(row["K"], row["fraction"]) for row in rows] == [(1, 1 / 6), (3, 0.5), (6, 1.0)]

    def test_metric_k_below_one_raises_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(2)
        dataset = _sweep_dataset(rng)
        norm = g2n_normalize(build_graph(dataset), G2NConfig())

        def forbidden(*args, **kwargs):
            raise AssertionError("sweep started work with a metric cutoff below 1")

        monkeypatch.setattr(evaluation, "build_graph", forbidden)
        monkeypatch.setattr(evaluation, "top_k_svd", forbidden)
        for metric_k in (0, -3):
            with pytest.raises(ConfigError):
                frequency_sweep(dataset, norm, [1, 4], metric_k=metric_k)

    def test_band_and_mirror_band_agree_on_metrics(self):
        # scores from band [1, K] and from the mirrored (n - K) eigenvector
        # construction coincide, so the sweep metrics must too
        rng = np.random.default_rng(1)
        dataset = _sweep_dataset(rng, 20, 15)
        graph = build_graph(dataset)
        norm = g2n_normalize(graph, G2NConfig())
        from sgfcf import assemble_adjacency
        from sgfcf.theory import _rating_from_eigenvectors

        spec = dense_svd(norm)
        gaps = np.where(np.diff(spec.sigma) < -1e-8)[0]
        K = int(gaps[0]) + 1 if len(gaps) else 1
        rows = frequency_sweep(dataset, norm, [K], metric_k=5, spectrum=spec)

        A = assemble_adjacency(norm)
        eigenvalues, V = np.linalg.eigh(A)
        order = np.argsort(eigenvalues)[::-1]
        V = V[:, order]
        mirrored_scores = _rating_from_eigenvectors(V[:, : A.shape[0] - K], 20)

        class MirroredScorer:
            train_csr = graph.row_major
            n_users, n_items = 20, 15

            def score_users(self, users):
                return mirrored_scores[np.asarray(users)]

        mirrored = evaluate(MirroredScorer(), dataset, k=5)
        assert rows[0]["recall"] == pytest.approx(mirrored.recall_at_k, abs=1e-8)
        assert rows[0]["ndcg"] == pytest.approx(mirrored.ndcg_at_k, abs=1e-8)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(2)
        dataset = _sweep_dataset(rng)
        norm = g2n_normalize(build_graph(dataset), G2NConfig())
        rows = frequency_sweep(dataset, norm, [1, 4])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "K,fraction,recall,ndcg"
        assert len(lines) == 3


def _grid_dataset(rng):
    R = random_bipartite_graph(rng, 30, 24, target_edges=200)
    coo = R.tocoo()
    pairs = list(zip(coo.row.tolist(), coo.col.tolist()))
    rng.shuffle(pairs)
    n = len(pairs)
    return dataset_from_pairs(
        pairs[: int(0.7 * n)],
        val=pairs[int(0.7 * n) : int(0.85 * n)],
        test=pairs[int(0.85 * n) :],
        n_users=30,
        n_items=24,
    )


class TestGridSearch:
    def test_single_point_grid(self):
        rng = np.random.default_rng(3)
        dataset = _grid_dataset(rng)
        grid = GridSpec(axes={"K": [4], "gamma": [0.2]})
        result = grid_search(dataset, grid, k=5)
        assert result.best_config.K == 4
        assert result.best_config.gamma == 0.2
        assert len(result.table) == 1

    def test_selection_on_validation(self):
        rng = np.random.default_rng(4)
        dataset = _grid_dataset(rng)
        grid = GridSpec(axes={"K": [2, 4, 8], "gamma": [0.0, 0.3]})
        result = grid_search(dataset, grid, k=5)
        best_row = max(result.table, key=lambda row: row["val_ndcg"])
        assert result.best_validation.ndcg_at_k == pytest.approx(best_row["val_ndcg"])
        assert result.best_config.K == best_row["K"]
        assert len(result.table) == 6

    def test_matches_direct_fit(self):
        # cached/sliced spectra must give the same numbers as a fresh fit
        rng = np.random.default_rng(5)
        dataset = _grid_dataset(rng)
        grid = GridSpec(axes={"alpha": [2.0], "K": [5]})
        result = grid_search(dataset, grid, k=5)
        config = SgfcfConfig(
            K=5, g2n=G2NConfig(alpha=2.0), igf=IgfConfig(), gamma=0.0,
            svd_power_iters=8, seed=result.best_config.seed,
        )
        direct = evaluate(fit(dataset, config), dataset, k=5, split="test")
        assert result.test_result.ndcg_at_k == pytest.approx(direct.ndcg_at_k, abs=1e-9)
        assert result.test_result.recall_at_k == pytest.approx(direct.recall_at_k, abs=1e-9)

    def test_invalid_beta_combos_skipped(self):
        rng = np.random.default_rng(6)
        dataset = _grid_dataset(rng)
        grid = GridSpec(axes={"K": [4], "beta": [1.0], "beta1": [0.8, 1.2], "beta2": [1.2]})
        result = grid_search(dataset, grid, k=5)
        assert len(result.table) == 1  # beta1=1.2 > beta dropped

    def test_shared_beta_grid_skips_homophily(self, monkeypatch):
        import sgfcf.filters

        rng = np.random.default_rng(9)
        dataset = _grid_dataset(rng)
        axes = {"K": [3, 4], "beta": [1.2], "gamma": [0.0, 0.2]}
        # one beta1 < beta2 combination makes the grid compute homophily
        # and hand it to every fit; its shared-beta rows must not change
        mixed = grid_search(dataset, GridSpec(axes={**axes, "beta1": [1.0, 1.2], "beta2": [1.2]}), k=5)

        def forbidden(*args, **kwargs):
            raise AssertionError("homophily computed for an all-shared-beta grid")

        monkeypatch.setattr(sgfcf.filters, "homophilic_ratio_all", forbidden)
        shared = grid_search(dataset, GridSpec(axes=axes), k=5)
        assert shared.table == [row for row in mixed.table if row["beta1"] == row["beta2"]]

    def test_K_above_the_graph_raises_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(6)
        dataset = _grid_dataset(rng)  # min(|U|, |I|) = 24
        fit(dataset, SgfcfConfig(K=24))
        with pytest.raises(KTooLarge):
            fit(dataset, SgfcfConfig(K=40))

        def forbidden(*args, **kwargs):
            raise AssertionError("grid started work on an axis it cannot serve")

        monkeypatch.setattr(evaluation, "top_k_svd", forbidden)
        with pytest.raises(KTooLarge):
            grid_search(dataset, GridSpec(axes={"K": [20, 24, 40]}), k=5)

    def test_base_igf_range_is_kept(self):
        rng = np.random.default_rng(6)
        dataset = _grid_dataset(rng)
        ranged = SgfcfConfig(K=4, igf=IgfConfig(beta=1.5, beta1=1.2, beta2=1.8))
        result = grid_search(dataset, GridSpec(axes={"K": [4, 6]}), k=5, base=ranged)
        assert [(row["beta1"], row["beta2"]) for row in result.table] == [(1.2, 1.8)] * 2
        assert result.best_config.igf == ranged.igf
        # a beta outside the base's range is skipped, as on an explicit beta1/beta2 axis
        result = grid_search(dataset, GridSpec(axes={"K": [4], "beta": [1.0, 1.5, 2.0]}), k=5, base=ranged)
        assert [row["beta"] for row in result.table] == [1.5]
        # with beta1 == beta == beta2 the ends follow each beta
        shared = SgfcfConfig(K=4, igf=IgfConfig(beta=1.5))
        result = grid_search(dataset, GridSpec(axes={"beta": [1.0, 2.0]}), k=5, base=shared)
        assert [(row["beta1"], row["beta2"]) for row in result.table] == [(1.0, 1.0), (2.0, 2.0)]

    def test_band_filter_base_serves_every_K(self):
        rng = np.random.default_rng(10)
        dataset = _grid_dataset(rng)
        base = SgfcfConfig(K=4, filter=BandFilter())
        result = grid_search(dataset, GridSpec(axes={"K": [2, 4, 6]}), k=5, base=base)
        assert [row["K"] for row in result.table] == [2, 4, 6]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_pass_keeps_only_the_best_group_alive(self, monkeypatch, threads):
        rng = np.random.default_rng(11)
        dataset = _grid_dataset(rng)
        axes = {"alpha": [4.0, 0.0, 2.0], "epsilon": [-0.3, -0.5], "K": [3, 5], "gamma": [0.0, 0.2]}
        calls = []  # (group, K, earlier groups whose spectrum is alive)
        taken = []  # (group, weakrefs to its spectrum and singular vectors)

        def spy(matrix, K, **kwargs):
            gc.collect()
            alive = [group for group, refs in taken if any(ref() is not None for ref in refs)]
            group = (matrix.config.alpha, matrix.config.epsilon)
            calls.append((group, K, alive))
            spectrum = top_k_svd(matrix, K, **kwargs)
            taken.append((group, [weakref.ref(spectrum), weakref.ref(spectrum.P), weakref.ref(spectrum.Q)]))
            return spectrum

        monkeypatch.setattr(evaluation, "top_k_svd", spy)
        result = grid_search(dataset, GridSpec(axes=axes), k=5, threads=threads)
        groups = sorted({(row["alpha"], row["epsilon"]) for row in result.table})
        assert len(groups) == 6
        assert [(group, K) for group, K, _ in calls] == [(group, 5) for group in groups]
        rows = list(enumerate(result.table))
        for n, (_, _, alive) in enumerate(calls):
            earlier = [(i, row) for i, row in rows if (row["alpha"], row["epsilon"]) in groups[:n]]
            if not earlier:
                assert alive == []
                continue
            _, best = max(earlier, key=lambda ir: (ir[1]["val_ndcg"], -ir[0]))
            assert alive == [(best["alpha"], best["epsilon"])]

    def test_k_below_one_raises_before_any_work(self, monkeypatch):
        rng = np.random.default_rng(6)
        dataset = _grid_dataset(rng)

        def forbidden(*args, **kwargs):
            raise AssertionError("grid started work with a metric cutoff below 1")

        monkeypatch.setattr(evaluation, "build_graph", forbidden)
        monkeypatch.setattr(evaluation, "top_k_svd", forbidden)
        for k in (0, -3):
            with pytest.raises(ConfigError):
                grid_search(dataset, GridSpec(axes={"K": [2, 4]}), k=k)

    def test_empty_validation_raises(self, toy_dataset):
        with pytest.raises(EmptyValidation):
            grid_search(toy_dataset, GridSpec(axes={"K": [2]}), k=2)

    def test_threads_do_not_change_results(self):
        rng = np.random.default_rng(7)
        dataset = _grid_dataset(rng)
        grid = GridSpec(axes={"K": [2, 4], "gamma": [0.0, 0.1, 0.2]})
        serial = grid_search(dataset, grid, k=5, threads=1)
        threaded = grid_search(dataset, grid, k=5, threads=4)
        assert serial.best_config == threaded.best_config
        assert serial.test_result == threaded.test_result

    def test_grid_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        dataset = _grid_dataset(rng)
        result = grid_search(dataset, GridSpec(axes={"K": [2, 3]}), k=5)
        path = tmp_path / "grid.csv"
        write_grid_csv(result.table, str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3


class TestGridSpec:
    def test_requires_axes(self):
        with pytest.raises(ConfigError):
            GridSpec(axes={})

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            GridSpec(axes={"zeta": [1]})

    def test_lattice_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(axes={"epsilon": [-0.33]})  # not on the 0.02 lattice
        GridSpec(axes={"epsilon": [-0.38, -0.5, 0.0]})
        with pytest.raises(ConfigError):
            GridSpec(axes={"gamma": [0.05]})
        GridSpec(axes={"alpha": [0.0, 3.0, 16.0], "gamma": [0.0, 0.3]})

    def test_selection_metric(self):
        with pytest.raises(ConfigError):
            GridSpec(axes={"K": [1]}, selection_metric="auc")
