"""The benchmark's workloads and why each one is there.

Every workload generates its graph with
``sgfcf.theory.random_bipartite_graph`` at GRAPH_SEED, writes it as an
interaction file relabelled and shuffled by the run's seed, splits it per
user (train 0.8, validation 0.05, split seed = run seed) and evaluates at
k = 10. Only the generated file is handed to the library.

Left out on purpose: CiteULike shape (5551 x 16981) at generator exponent
2.1. At that skew one synthetic user touches all 16,981 items, the item
co-occurrence Gram that homophily builds reaches 226.8M stored entries (79%
dense) and homophily alone peaks at 7.5 GB of an 8 GB machine's 7.8 GB
MemTotal. The runs would record out-of-memory failures, not a measurement.
This is a known defect of the homophily stage, left for a later change that
bounds its memory; it is not hidden by this choice of inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from sgfcf.filters import IgfConfig
from sgfcf.graph import G2NConfig
from sgfcf.model import SgfcfConfig

SPLIT_TRAIN = 0.8
SPLIT_VAL = 0.05
TOP_K = 10
# Seed of the generated graph's structure; the run seed relabels it and
# seeds everything downstream (see harness.write_input for why).
GRAPH_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_users: int
    n_items: int
    target_edges: int
    exponent: float
    config: SgfcfConfig  # the config fitted cold; also the grid's base config
    grid_axes: dict | None = None
    grid_threads: int = 0
    # Timed fit + test evaluate runs of the config; fit_eval_s is their
    # median. More than one only where a fit is short enough to repeat.
    fit_eval_runs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's 60 s fit+eval bar, at CiteULike shape with criterion 9's
        # single config. gamma is on, so scoring pays the W[u] W^T W term.
        # beta1 = beta = beta2, so homophily is computed but every node gets
        # the same exponent: the work changes no score. Items outnumber
        # users, so every top-k ranks ~17k items. The recommend loop is the
        # online path: one caller, closed loop.
        Workload(
            name="citeulike-shared",
            why="CiteULike shape, criterion-9 config, gamma on, shared beta: homophily computed but unused; fit+eval and recommend latency",
            n_users=5551, n_items=16981, target_edges=210537, exponent=2.5,
            config=SgfcfConfig(
                K=500, svd_power_iters=2, g2n=G2NConfig(alpha=8.0),
                igf=IgfConfig(beta=1.6, beta1=1.6, beta2=1.6), gamma=0.2,
            ),
        ),
        # Users outnumber items and the degree skew is heavy, so homophily is
        # used (beta1 < beta < beta2) and builds large co-occurrence Grams.
        # The SVD runs at the library's default 8 power iterations; at this
        # size its basis, not homophily, sets the memory peak (sampled rises
        # of about 940 MB against 190-710 MB, seeds 3 and 77). With gamma
        # off, eval is pure factor scoring plus top-k. Two fifths of the
        # 20000 x 8000 (390k target edges) shape on each side: at full size
        # one run takes about 70 s on 2 cores, and three workloads of 22 runs
        # each would not fit the benchmark's time budget. The SVD basis (9
        # blocks of K + 8 = 2376 columns) stays below the 3200 items, so the
        # solver still does all its power iterations, as at full size.
        Workload(
            name="wide-igf",
            why="users outnumber items, heavy skew, individualized betas: homophily used, SVD at 8 power iterations sets the memory peak, gamma off",
            n_users=8000, n_items=3200, target_edges=156000, exponent=2.1,
            config=SgfcfConfig(
                K=256, svd_power_iters=8, g2n=G2NConfig(alpha=8.0),
                igf=IgfConfig(beta=1.6, beta1=1.2, beta2=2.0), gamma=0.0,
            ),
        ),
        # The tuning loop that `sgfcf grid` and criterion 9 run: 24 combos
        # on a light-skew input. Spectra are cached per alpha, so per-combo
        # fit, validation evaluate and the thread pool dominate; SVD and
        # homophily are a small share, so a gain there should not show here.
        # Two thirds of the 3000 x 6000 (90k target edges) shape on each
        # side: at full size the grid alone took 31-39 s, and the three
        # workloads' 22 runs each must fit one time budget.
        Workload(
            name="grid-tune",
            why="24-combo grid search on 2 threads, light skew: per-combo fit, validation eval and the pool dominate; SVD and homophily minor",
            n_users=2000, n_items=4000, target_edges=60000, exponent=3.0,
            # The grid's base config (its axes override alpha, K, beta and
            # gamma) and the one grid point that gets the cold fit+eval and
            # the recommend loop. The grid's winner changes with the split
            # seed, and latency triples when it has gamma on, so timing the
            # winner would measure which config won, not the code.
            config=SgfcfConfig(
                K=128, svd_power_iters=2, g2n=G2NConfig(alpha=10.0),
                igf=IgfConfig(beta=1.6, beta1=1.6, beta2=1.6), gamma=0.2,
            ),
            grid_axes={"alpha": [6.0, 10.0], "K": [64, 128], "beta": [1.2, 1.6, 2.0], "gamma": [0.0, 0.2]},
            # OpenBLAS keeps its default thread count during the grid, as
            # `sgfcf grid` runs it, although 2 workers x 2 BLAS threads exceed
            # the 2 cores; README.md gives the measured cost.
            grid_threads=2,
            # A fit + eval here takes about 2.5 s, short enough for one slow
            # stretch of the host (or a slow first fit in a fresh process,
            # up to twice the others) to set it; the median of three, one
            # before the grid and two after, is steadier. A later fit of the
            # same config takes about as long as a first one that is not
            # slowed (1.1-1.3 s against 1.3-1.4 s, seeds 2 and 3).
            fit_eval_runs=3,
        ),
    )
}
