"""One benchmark run: generate the input, run the workload's steps, check
the outputs, and print the metrics. ``run.py`` is the entry point."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import checks
from machine import machine_facts
from sgfcf import dataset, evaluation, model
from sgfcf.dataset import SplitConfig
from sgfcf.theory import random_bipartite_graph
from tracing import Tracer, summarize
from workloads import GRAPH_SEED, SPLIT_TRAIN, SPLIT_VAL, TOP_K, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
# Slices of each recommend half; a set-up sample follows each slice.
RECOMMEND_PIECES = 4
RECOMMEND_USERS = 1000
CROSS_CHECK_USERS = 100


def write_input(workload, seed: int, path: Path) -> int:
    """Write the workload's interaction file for this seed.

    The graph comes from ``random_bipartite_graph`` at the fixed GRAPH_SEED;
    the run seed relabels its users and items and shuffles the line order
    (so the file reads like a log, not a sorted matrix dump), and it also
    seeds the split, the SVD and the recommend order. Every seed thus gives
    the library different bytes with the same graph structure. At the
    generator's heavy skews the structure itself swings with its seed (five
    structure seeds of wide-igf at 10000 x 4000: peak RSS 1290-2624 MB,
    fit+eval 21-28 s, nDCG@10 0.15-0.39), which would swamp any change being
    measured.
    """
    R = random_bipartite_graph(np.random.default_rng(GRAPH_SEED), workload.n_users, workload.n_items,
                               workload.target_edges, workload.exponent).tocoo()
    rng = np.random.default_rng(seed)
    users, items = rng.permutation(workload.n_users), rng.permutation(workload.n_items)
    order = rng.permutation(R.nnz)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"u{u}\ti{i}\n" for u, i in zip(users[R.row[order]], items[R.col[order]])))
    return int(R.nnz)


class Run:
    """One workload run: operations, their timings and failures."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.config = replace(workload.config, seed=seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, float] = {}
        self.setup_samples: list[float] = []
        self.fit_eval_samples: list[float] = []
        self.latencies: list[float] = []
        self.dataset = None

    def op(self, label: str, fn, *args, **kwargs):
        """Call one library operation; a raise counts it failed and aborts."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise RuntimeError(f"{label} raised") from None

    def fail(self, problems: list[str]) -> None:
        """Record one operation's failed checks."""
        if problems:
            self.problems += problems
            self.failed += 1

    def setup_sample(self, path: Path) -> None:
        """One timed ingest + split; every sample must give the same dataset."""
        cfg = SplitConfig(train_ratio=SPLIT_TRAIN, val_ratio=SPLIT_VAL, seed=self.seed)
        gc.collect()  # start each sample from the same heap state
        start = time.perf_counter()
        log = self.op("ingest", dataset.ingest, str(path))
        ds = self.op("split", dataset.split, log, cfg)
        self.setup_samples.append(time.perf_counter() - start)
        if self.dataset is None:
            self.dataset = ds
        elif not all(np.array_equal(getattr(ds, part), getattr(self.dataset, part))
                     for part in ("train", "val", "test")):
            self.fail(["a repeated ingest + split gave a different dataset"])

    def recommend_users(self) -> np.ndarray:
        """RECOMMEND_USERS users with test items, evenly spaced in two-hop
        reach (the summed degree of their train items), in seeded order.
        With gamma on, a recommend call's sparse product grows with that
        reach, so a uniform draw would make the latency tail depend on
        whether the few far-reaching users were drawn."""
        train = self.dataset.train
        item_degree = np.bincount(train[:, 1], minlength=self.dataset.n_items)
        reach = np.bincount(train[:, 0], weights=item_degree[train[:, 1]], minlength=self.dataset.n_users)
        candidates = np.unique(self.dataset.test[:, 0])
        ranked = candidates[np.argsort(reach[candidates], kind="stable")]
        picks = np.linspace(0, len(ranked) - 1, RECOMMEND_USERS).round().astype(np.int64)
        return np.random.default_rng(self.seed).permutation(ranked[picks])

    def recommend_chunk(self, fitted, users: np.ndarray, seconds: float) -> list:
        """Closed loop, one caller: passes over ``users`` until ``seconds``
        have passed, at least one pass (exactly one when ``seconds`` is 0).
        Returns the first pass's lists; later passes must repeat them
        exactly."""
        first = []
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            for index, u in enumerate(users.tolist()):
                t = time.perf_counter()
                ranked = self.op("recommend", fitted.recommend, u, k=TOP_K)
                self.latencies.append(time.perf_counter() - t)
                if passes == 0:
                    first.append(ranked)
                elif not np.array_equal(ranked.items, first[index].items):
                    self.fail([f"user {u}: a repeated recommend returned a different list"])
            passes += 1
        return first

    def recommend_phase(self, fitted, users: np.ndarray, seconds: float, path: Path) -> list:
        """The recommend loop over ``users`` in RECOMMEND_PIECES slices, one
        set-up sample after each slice."""
        lists = []
        for piece in np.array_split(users, RECOMMEND_PIECES):
            lists += self.recommend_chunk(fitted, piece, seconds / RECOMMEND_PIECES)
            self.setup_sample(path)
        return lists

    def refit(self, test) -> None:
        """One more fit + test evaluate of the same config, timed; it must
        reproduce the first one's test metrics."""
        start = time.perf_counter()
        again = self.op("fit", model.fit, self.dataset, self.config)
        result = self.op("evaluate", evaluation.evaluate, again, self.dataset, k=TOP_K, split="test")
        self.fit_eval_samples.append(time.perf_counter() - start)
        if (result.recall_at_k, result.ndcg_at_k) != (test.recall_at_k, test.ndcg_at_k):
            self.fail(["a repeated fit + evaluate gave different test metrics"])

    def measure(self, path: Path, traced: bool):
        """Set-up samples, cold fit + test evaluate (and its repeats on
        grid-tune), the grid (grid-tune only), and the recommend loop.

        The host's speed drifts by up to 60% in stretches of seconds to
        tens of seconds, so the set-up samples are spread over the whole
        run (before the fit, through both halves of the recommend loop,
        after evaluate and after the grid) instead of being taken back to
        back. The traced run makes exactly one recommend pass, so its call
        counts and summed recommend time do not depend on the host's speed.
        """
        w = self.workload
        loop_s = 0.0 if traced else self.seconds / 2
        for _ in range(2):
            self.setup_sample(path)
        ds = self.dataset
        users = self.recommend_users()
        half = len(users) // 2

        start = time.perf_counter()
        fitted = self.op("fit", model.fit, ds, self.config)
        self.times["fit_s"] = time.perf_counter() - start
        lists = self.recommend_phase(fitted, users[:half], loop_s, path)
        start = time.perf_counter()
        test = self.op("evaluate", evaluation.evaluate, fitted, ds, k=TOP_K, split="test")
        self.times["evaluate_s"] = time.perf_counter() - start
        self.fit_eval_samples.append(self.times["fit_s"] + self.times["evaluate_s"])
        self.setup_sample(path)
        grid = None
        if w.grid_axes is not None:
            start = time.perf_counter()
            grid = self.op("grid_search", evaluation.grid_search, ds, evaluation.GridSpec(axes=w.grid_axes),
                           k=TOP_K, base=self.config, threads=w.grid_threads)
            self.times["grid_s"] = time.perf_counter() - start
            self.setup_sample(path)
        if w.fit_eval_runs > 1:
            self.refit(test)
        lists += self.recommend_phase(fitted, users[half:], loop_s, path)
        while len(self.fit_eval_samples) < w.fit_eval_runs:
            self.refit(test)

        self.times["fit_eval_s"] = statistics.median(self.fit_eval_samples)
        self.times["result_s"] = self.times["grid_s"] if grid else self.times["fit_eval_s"]
        # The fastest sample, not the median: the host alternates between a
        # fast and a ~50% slower level for tens of seconds at a time, so a
        # run's median follows how long it spent in the slow level (five
        # seeds of wide-igf: spread 0.31 for the median, 0.10 for the
        # fastest sample, from the same runs).
        self.times["setup_s"] = min(self.setup_samples)
        return grid, fitted, test, lists

    def check(self, grid, fitted, test, lists) -> dict:
        """Run every output check; returns the residual and the digests."""
        ds = self.dataset
        for ranked in lists:
            self.fail(checks.ranked_list_problems(ranked, fitted.train_items(ranked.user_id), TOP_K)[:1])
        by_user = {}
        for ranked in lists:
            by_user.setdefault(int(ranked.user_id), ranked)
            if len(by_user) == CROSS_CHECK_USERS:
                break
        self.fail(checks.cross_check_topk(fitted, ds, by_user, TOP_K))
        self.fail(checks.metric_problems(test, ds, "test", "test evaluate"))
        metric_values = [test.recall_at_k, test.ndcg_at_k, test.users_evaluated]
        if grid is not None:
            combos = int(np.prod([len(values) for values in self.workload.grid_axes.values()]))
            problems = [] if len(grid.table) == combos else [
                f"grid table has {len(grid.table)} rows, expected {combos}"]
            problems += checks.metric_problems(grid.best_validation, ds, "val", "grid best validation")
            problems += checks.metric_problems(grid.test_result, ds, "test", "grid test")
            val_users = len(np.unique(ds.val[:, 0]))
            if any(row["users_evaluated"] != val_users for row in grid.table):
                problems.append("a grid row evaluated the wrong number of validation users")
            self.fail(problems)
            metric_values += [v for row in grid.table for v in (row["val_recall"], row["val_ndcg"])]
        residual = checks.svd_residual_max(fitted)
        if not np.isfinite(residual):
            self.fail([f"svd residual is {residual!r}"])
        return {"svd_residual_max": residual, **checks.digest(lists, metric_values)}


def end_to_end_metrics(run: Run, grid, test, checked: dict, peak_rss_kb: int) -> dict:
    ms = np.array(run.latencies) * 1e3
    quality = grid.test_result if grid else test  # grid-tune: the tuned model
    return {
        "setup_s": (run.times["setup_s"], "s"),
        "fit_eval_s": (run.times["fit_eval_s"], "s"),
        "result_s": (run.times["result_s"], "s"),
        "recommend_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "ndcg_at_10": (float(quality.ndcg_at_k), "ratio"),
        "recall_at_10": (float(quality.recall_at_k), "ratio"),
        "svd_residual_max": (checked["svd_residual_max"], "ratio"),
    }


def per_layer_metrics(summary: dict, run: Run, tracer: Tracer) -> dict:
    def get(name, key="seconds"):
        return summary.get(name, {}).get(key, 0)

    def count(name, key):
        return summary.get(name, {}).get("counts", {}).get(key, 0)

    def mb(name, key):
        return get(name, key) / 1024.0

    return {
        "dataset.ingest_s": (get("dataset.ingest"), "s"),
        "dataset.split_s": (get("dataset.split"), "s"),
        "dataset.pairs": (count("dataset.ingest", "pairs") / max(1, get("dataset.ingest", "calls")), "count"),
        "graph.build_graph_s": (get("graph.build_graph"), "s"),
        "graph.g2n_normalize_s": (get("graph.g2n_normalize"), "s"),
        "graph.nnz": (count("graph.build_graph", "nnz") / max(1, get("graph.build_graph", "calls")), "count"),
        "spectral.truncated_svd_s": (get("spectral.truncated_svd"), "s"),
        "spectral.calls": (get("spectral.truncated_svd", "calls"), "count"),
        "spectral.basis_cols_computed": (count("spectral.truncated_svd", "basis_cols_computed"), "count"),
        "spectral.sparse_products_computed": (count("spectral.truncated_svd", "sparse_products_computed"), "count"),
        "spectral.rss_peak_rise_mb": (mb("spectral.truncated_svd", "rss_peak_rise_kb"), "MB"),
        "filters.homophilic_ratio_all_s": (get("filters.homophilic_ratio_all"), "s"),
        "filters.rss_hwm_rise_mb": (mb("filters.homophilic_ratio_all", "rss_hwm_rise_kb"), "MB"),
        "filters.rss_peak_rise_mb": (mb("filters.homophilic_ratio_all", "rss_peak_rise_kb"), "MB"),
        "filters.map_homo_to_beta_s": (get("filters.map_homo_to_beta"), "s"),
        "model.fit_s": (get("model.fit"), "s"),
        "model.fit_self_s": (get("model.fit", "self_seconds"), "s"),
        "model.score_users_s": (get("model.score_users"), "s"),
        "model.score_users_calls": (get("model.score_users", "calls"), "count"),
        "model.scores_computed": (count("model.score_users", "scores") + count("model.score_user", "scores"), "count"),
        "model.recommend_s": (get("model.recommend"), "s"),
        "evaluation.evaluate_s": (get("evaluation.evaluate"), "s"),
        "evaluation.evaluate_self_s": (get("evaluation.evaluate", "self_seconds"), "s"),
        "evaluation.users_evaluated": (count("evaluation.evaluate", "users_evaluated"), "count"),
        "evaluation.grid_combos": (count("evaluation.grid_search", "combos"), "count"),
        "evaluation.grid_search_s": (get("evaluation.grid_search"), "s"),
        "evaluation.grid_search_self_s": (get("evaluation.grid_search", "self_seconds"), "s"),
        "trace.fit_eval_s": (run.times["fit_eval_s"], "s"),
        "trace.overhead_s": (tracer.bookkeeping_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }


def main(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    input_path = OUT / f"{stem}.tsv"
    run = Run(workload, args.seed, args.seconds)
    facts = machine_facts()
    report = {"workload": asdict(workload) | {"config": repr(workload.config)}, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts}
    tracer = Tracer() if args.trace else None
    metrics: dict = {}
    try:
        report["input_pairs"] = write_input(workload, args.seed, input_path)
        if tracer:
            tracer.install()
        try:
            grid, fitted, test, lists = run.measure(input_path, bool(args.trace))
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checked = run.check(grid, fitted, test, lists)
        report.update(checked)
        if tracer:
            tracer.write(str(OUT / f"{stem}.spans.json"))
            report["layers"] = summarize(tracer.spans, tracer.rss_samples)
            metrics = per_layer_metrics(report["layers"], run, tracer)
        else:
            metrics = end_to_end_metrics(run, grid, test, checked, peak_rss_kb)
    except RuntimeError as exc:
        run.problems.append(str(exc))
    finally:
        input_path.unlink(missing_ok=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["cpu_s"] = {"user": usage.ru_utime, "sys": usage.ru_stime}
    ms = np.array(run.latencies) * 1e3
    report["times"] = run.times | {"setup_samples": run.setup_samples, "fit_eval_samples": run.fit_eval_samples}
    report["recommend_calls"] = len(ms)
    report["recommend_percentiles_ms"] = {q: float(np.percentile(ms, q)) for q in (50, 90, 99)} if len(ms) else {}
    report["problems"] = run.problems
    report["attempted"], report["failed"] = run.attempted, run.failed
    report["failed_ops_ratio"] = run.failed / max(1, run.attempted)
    with open(OUT / f"{stem}.report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    for line in run.problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    blas = "; ".join(f"{b['library']} threads={b['threads']}" for b in facts["blas"])
    print(f"# {workload.name} seed={args.seed} nproc={facts['nproc']} mem_total_kb={facts['mem_total_kb']} "
          f"numpy={facts['numpy']} scipy={facts['scipy']} blas=[{blas}] "
          f"grid_threads={workload.grid_threads}")
    if "topk_sha256" in report:
        print(f"# digest topk={report['topk_sha256']} metrics={report['metrics_sha256']}")
    print(f"# ops attempted={run.attempted} failed={run.failed} failed_ops_ratio={report['failed_ops_ratio']}")
    print(f"# recommend calls={len(ms)} " + " ".join(
        f"p{q}_ms={v!r}" for q, v in report["recommend_percentiles_ms"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = not run.problems and run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
