"""The benchmark's own output checks (perfbench/checks.py) on small fitted
models, and its measure-and-check run (perfbench/harness.py) on shrunk
copies of its workloads, so that a divergence between ``recommend`` and
``evaluate``, or a library change that would make a benchmark run fail,
fails the test suite and not only a benchmark run. perfbench/ is only
read."""

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


@pytest.fixture(scope="module")
def harness():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("harness")


def _bench_dataset(tmp_path_factory, n_users, n_items):
    """A skewed graph written as a log and split as the benchmark splits its
    inputs (train 0.8, validation 0.05)."""
    R = random_bipartite_graph(np.random.default_rng(5), n_users, n_items, target_edges=1500, exponent=2.5).tocoo()
    path = tmp_path_factory.mktemp("bench") / "interactions.tsv"
    path.write_text("".join(f"u{u}\ti{i}\n" for u, i in zip(R.row, R.col)))
    return split(ingest(str(path)), SplitConfig(train_ratio=0.8, val_ratio=0.05, seed=3))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """150 x 120: users outnumber items."""
    return _bench_dataset(tmp_path_factory, 150, 120)


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """120 x 150: items outnumber users, as at CiteULike shape."""
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
        # both sides score with the spectrum's own arrays, in either orientation
        assert model.user_factors is model.spectrum.P and model.item_factors is model.spectrum.Q
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


@pytest.mark.parametrize("name", ["citeulike-shared", "wide-igf", "grid-tune"])
def test_benchmark_run_passes_its_checks_on_a_shrunk_workload(harness, name, tmp_path):
    # each workload's config and steps on a 300 x 400 graph of 3000 edges,
    # with K and the grid's K axis cut to at most 40; an untraced run as
    # perfbench/run.py makes it, at a recommend loop of one pass
    workload = harness.WORKLOADS[name]
    shrunk = replace(
        workload, n_users=300, n_items=400, target_edges=3000,
        config=replace(workload.config, K=min(workload.config.K, 40)),
        grid_axes=None if workload.grid_axes is None else {**workload.grid_axes, "K": [20, 40]},
    )
    path = tmp_path / "interactions.tsv"
    harness.write_input(shrunk, 1, path)
    run = harness.Run(shrunk, 1, 0.01)
    run.check(*run.measure(path, traced=False))
    assert (run.failed, run.problems) == (0, [])
    assert run.attempted > 0
