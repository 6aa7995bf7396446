"""The benchmark's own output checks (perfbench/checks.py) on small fitted
models, so that a divergence between ``recommend`` and ``evaluate``, or a
library entry point the benchmark calls going missing, fails the test
suite and not only a benchmark run. perfbench/ is only read."""

import importlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sgfcf import IgfConfig, SgfcfConfig, SplitConfig, fit, ingest, split
from sgfcf import model as model_module
from sgfcf.evaluation import evaluate
from sgfcf.model import model_summary
from sgfcf.theory import random_bipartite_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
K = 10


@pytest.fixture(scope="module")
def checks():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("checks")


def _bench_dataset(tmp_path_factory, n_users, n_items):
    """A skewed graph written as a log and split as the benchmark splits its
    inputs (train 0.8, validation 0.05)."""
    R = random_bipartite_graph(np.random.default_rng(5), n_users, n_items, target_edges=1500, exponent=2.5).tocoo()
    path = tmp_path_factory.mktemp("bench") / "interactions.tsv"
    path.write_text("".join(f"u{u}\ti{i}\n" for u, i in zip(R.row, R.col)))
    return split(ingest(str(path)), SplitConfig(train_ratio=0.8, val_ratio=0.05, seed=3))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """150 x 120: users outnumber items, so a shared filter folds into Q."""
    return _bench_dataset(tmp_path_factory, 150, 120)


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """120 x 150: items outnumber users, as at CiteULike shape, so a shared
    filter folds into P and the item factors are the spectrum's Q."""
    return _bench_dataset(tmp_path_factory, 120, 150)


GAMMA = SgfcfConfig(K=24, igf=IgfConfig(beta=1.6, beta1=1.6, beta2=1.6), gamma=0.2, seed=3)


@pytest.mark.parametrize(
    "config, tile, shape",
    [
        (SgfcfConfig(K=24, igf=IgfConfig(beta=1.6, beta1=1.2, beta2=2.0), seed=3), None, "dataset"),
        (GAMMA, None, "dataset"),
        # 120 items in tiles of 7: score_users adds the gamma term across
        # tile boundaries that score_user and recommend do not have
        (GAMMA, 7, "dataset"),
        (GAMMA, None, "wide_dataset"),
    ],
    ids=["gamma0", "gamma0.2", "gamma0.2-tile7", "gamma0.2-wide"],
)
def test_benchmark_checks_pass(checks, request, config, tile, shape, monkeypatch):
    dataset = request.getfixturevalue(shape)
    if tile is not None:
        monkeypatch.setattr(model_module, "GAMMA_TILE", tile)
    model = fit(dataset, config)
    if config.shared_filter is not None:
        # the side with more rows scores with the spectrum's own array
        assert (model.item_factors is model.spectrum.Q, model.user_factors is model.spectrum.P) == (
            (True, False) if shape == "wide_dataset" else (False, True)
        )
    users = np.unique(dataset.test[:, 0])
    lists = {int(u): model.recommend(int(u), k=K) for u in users}
    for u, ranked in lists.items():
        assert checks.ranked_list_problems(ranked, model.train_items(u), K) == []
    assert checks.cross_check_topk(model, dataset, lists, K) == []
    for split_name in ("test", "val"):
        result = evaluate(model, dataset, k=K, split=split_name)
        assert checks.metric_problems(result, dataset, split_name, split_name) == []
    assert np.isfinite(checks.svd_residual_max(model))
    assert checks.svd_residual_max(model) == model_summary(model)["svd_residual_max"]

    # the cross-check sees a recommend list that evaluate would not rank
    u = next(u for u, ranked in lists.items() if ranked.scores[0] > ranked.scores[1])
    swapped = replace(lists[u], items=lists[u].items[[1, 0, *range(2, K)]])
    assert checks.cross_check_topk(model, dataset, {**lists, u: swapped}, K) != []
