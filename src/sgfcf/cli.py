"""Command-line pipeline: ingest, split, fit, eval, sweep, grid,
spectrum, and theory-check subcommands.

Every run resolves a full configuration (defaults, then an optional JSON
config file, then explicit flags), writes its artifacts into a directory
named by a content hash of that configuration, and embeds the resolved
configuration and seed in each JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

from . import dataset as ds
from . import evaluation as ev
from . import filters as ft
from . import graph as gr
from . import model as md
from . import spectral as spec
from . import theory
from .errors import ConfigError, SgfcfError

DEFAULTS = {
    "format": "tsv_pairs",
    "x": 0.8,
    "val": 0.05,
    "split_strategy": "per_user",
    "seed": 42,
    "K": 64,
    "alpha": 0.0,
    "epsilon": -0.5,
    "beta": 1.0,
    "beta1": None,  # defaults to beta
    "beta2": None,
    "gamma": 0.0,
    "delta": 2,
    "filter": "igf",
    "filter_beta": 1.0,
    "filter_order": 2,
    "jacobi_a": 1.0,
    "jacobi_b": 1.0,
    "homo_mode": "inclusive",
    "oversample": 8,
    "power_iters": 8,
    "k": 10,
    "metric_k": 20,
    "threads": 0,
    "selection_metric": "ndcg",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgfcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default="runs", help="output root directory")
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None, help="0 = all available")

    def add_data(p):
        p.add_argument("--data", required=False, default=None, help="interaction file path")
        p.add_argument("--format", choices=["tsv", "csv"], default=None)

    def add_split(p):
        p.add_argument("--x", type=float, default=None, help="train ratio")
        p.add_argument("--val", type=float, default=None, help="validation ratio")
        p.add_argument("--split-strategy", choices=["per_user", "global"], default=None)

    def add_model(p):
        p.add_argument("--K", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--beta1", type=float, default=None)
        p.add_argument("--beta2", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--delta", type=int, default=None)
        p.add_argument(
            "--filter",
            choices=["igf", "monomial", "exponential", "markov", "jacobi"],
            default=None,
            help="igf = individualized monomial (default)",
        )
        p.add_argument("--filter-beta", type=float, default=None)
        p.add_argument("--filter-order", type=int, default=None)
        p.add_argument("--jacobi-a", type=float, default=None)
        p.add_argument("--jacobi-b", type=float, default=None)
        p.add_argument("--homo-mode", choices=["inclusive", "strict"], default=None)
        p.add_argument("--oversample", type=int, default=None)
        p.add_argument("--power-iters", type=int, default=None)

    p = sub.add_parser("ingest", help="read and deduplicate an interaction file")
    add_common(p)
    add_data(p)

    p = sub.add_parser("split", help="ingest and write a split manifest")
    add_common(p)
    add_data(p)
    add_split(p)

    p = sub.add_parser("fit", help="fit a model and write its summary")
    add_common(p)
    add_data(p)
    add_split(p)
    add_model(p)
    p.add_argument("--recommend-k", type=int, default=None, help="also dump top-k lists")

    p = sub.add_parser("eval", help="fit and evaluate on the test split")
    add_common(p)
    add_data(p)
    add_split(p)
    add_model(p)
    p.add_argument("--k", type=int, default=None, help="metric cutoff")

    p = sub.add_parser("sweep", help="frequency sweep with the uniform band filter")
    add_common(p)
    add_data(p)
    add_split(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--K-grid", default=None, help="comma-separated band sizes")
    p.add_argument("--metric-k", type=int, default=None)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    add_common(p)
    add_data(p)
    add_split(p)
    add_model(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--grid-alpha", default=None, help="comma-separated values")
    p.add_argument("--grid-epsilon", default=None)
    p.add_argument("--grid-K", default=None)
    p.add_argument("--grid-beta", default=None)
    p.add_argument("--grid-beta1", default=None)
    p.add_argument("--grid-beta2", default=None)
    p.add_argument("--grid-gamma", default=None)
    p.add_argument("--selection-metric", choices=["ndcg", "recall"], default=None)

    p = sub.add_parser("spectrum", help="export singular values and the appro curve")
    add_common(p)
    add_data(p)
    add_split(p)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--oversample", type=int, default=None)
    p.add_argument("--power-iters", type=int, default=None)

    p = sub.add_parser("theory-check", help="run all theorem oracles")
    add_common(p)

    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    resolved = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_config = json.load(fh)
        unknown = set(file_config) - set(DEFAULTS) - {"data", "out", "grid", "K_grid", "recommend_k"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_config)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        resolved[key.replace("-", "_")] = value
    resolved["command"] = args.command
    return resolved


def _config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _run_dir(resolved: dict) -> str:
    out = os.path.join(resolved.get("out", "runs"), f"{resolved['command']}-{_config_hash(resolved)}")
    os.makedirs(out, exist_ok=True)
    # CSV artifacts cannot carry metadata, so the run directory itself
    # records the resolved configuration next to them.
    with open(os.path.join(out, "run_config.json"), "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=str)
    return out


def _write_json(payload: dict, resolved: dict, path: str) -> None:
    payload = dict(payload)
    payload["config"] = {k: v for k, v in resolved.items() if k != "out"}
    payload["seed"] = resolved["seed"]
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)


def _require_data(resolved: dict) -> str:
    path = resolved.get("data")
    if not path:
        raise ConfigError("--data is required for this command")
    return path


def _load_dataset(resolved: dict) -> ds.InteractionDataset:
    fmt = "csv_pairs" if resolved["format"] in ("csv", "csv_pairs") else "tsv_pairs"
    log = ds.ingest(_require_data(resolved), fmt)
    cfg = ds.SplitConfig(
        train_ratio=resolved["x"],
        val_ratio=resolved["val"],
        seed=resolved["seed"],
        strategy=resolved["split_strategy"],
    )
    return ds.split(log, cfg)


def _filter_family(resolved: dict) -> ft.FilterFamily | None:
    name = resolved["filter"]
    if name in (None, "igf"):
        return None
    if name == "monomial":
        return ft.MonomialFilter(beta=resolved["filter_beta"])
    if name == "exponential":
        return ft.ExponentialFilter(beta=resolved["filter_beta"])
    if name == "markov":
        return ft.MarkovFilter(order=resolved["filter_order"])
    if name == "jacobi":
        return ft.JacobiFilter(
            a=resolved["jacobi_a"], b=resolved["jacobi_b"], order=resolved["filter_order"]
        )
    raise ConfigError(f"unknown filter {name!r}")


def _model_config(resolved: dict) -> md.SgfcfConfig:
    beta = resolved["beta"]
    beta1 = beta if resolved["beta1"] is None else resolved["beta1"]
    beta2 = beta if resolved["beta2"] is None else resolved["beta2"]
    return md.SgfcfConfig(
        K=resolved["K"],
        g2n=gr.G2NConfig(alpha=resolved["alpha"], epsilon=resolved["epsilon"]),
        igf=ft.IgfConfig(beta=beta, beta1=beta1, beta2=beta2),
        gamma=resolved["gamma"],
        delta=resolved["delta"],
        filter=_filter_family(resolved),
        homo_mode=resolved["homo_mode"],
        svd_oversample=resolved["oversample"],
        svd_power_iters=resolved["power_iters"],
        seed=resolved["seed"],
    )


def _parse_number_list(text: str, cast=float) -> list:
    return [cast(tok) for tok in str(text).split(",") if tok.strip() != ""]


def _cmd_ingest(resolved: dict) -> int:
    fmt = "csv_pairs" if resolved["format"] in ("csv", "csv_pairs") else "tsv_pairs"
    log = ds.ingest(_require_data(resolved), fmt)
    maps = ds.build_id_maps(log)
    out = _run_dir(resolved)
    _write_json(
        {
            "records": len(log),
            "duplicates_dropped": log.duplicates_dropped,
            "users": maps.n_users,
            "items": maps.n_items,
        },
        resolved,
        os.path.join(out, "ingest.json"),
    )
    print(f"{len(log)} interactions ({log.duplicates_dropped} duplicates dropped) -> {out}")
    return 0


def _cmd_split(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    out = _run_dir(resolved)
    ds.save_manifest(dataset, os.path.join(out, "split.json"))
    _write_json(
        {
            "users": dataset.n_users,
            "items": dataset.n_items,
            "train": len(dataset.train),
            "val": len(dataset.val),
            "test": len(dataset.test),
        },
        resolved,
        os.path.join(out, "split_summary.json"),
    )
    print(f"split {len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} -> {out}")
    return 0


def _cmd_fit(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    model = md.fit(dataset, _model_config(resolved))
    out = _run_dir(resolved)
    _write_json(md.model_summary(model), resolved, os.path.join(out, "model_summary.json"))
    spec.write_spectrum_csv(model.spectrum, os.path.join(out, "spectrum.csv"))
    if model.profile is not None:
        homophily = model.homophily
        if homophily is None:  # fit skips it when beta1 == beta2; the artifact still reports it
            config = model.config
            homophily = ft.homophilic_ratio_all(
                gr.build_graph(dataset), delta=config.delta, mode=config.homo_mode, seed=config.seed
            )
        ft.write_homophily_csv(homophily, model.profile, os.path.join(out, "homophily.csv"))
    if resolved.get("recommend_k"):
        md.write_recommendations_csv(
            model,
            range(model.n_users),
            int(resolved["recommend_k"]),
            os.path.join(out, "recommendations.csv"),
        )
    print(f"fit in {model.fit_seconds:.2f}s -> {out}")
    return 0


def _cmd_eval(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    start = time.perf_counter()
    model = md.fit(dataset, _model_config(resolved))
    fit_seconds = model.fit_seconds
    result = ev.evaluate(model, dataset, k=resolved["k"], split="test")
    eval_seconds = time.perf_counter() - start - fit_seconds
    out = _run_dir(resolved)
    _write_json(
        {
            "k": result.k,
            "recall": result.recall_at_k,
            "ndcg": result.ndcg_at_k,
            "users_evaluated": result.users_evaluated,
            "fit_seconds": fit_seconds,
            "eval_seconds": eval_seconds,
        },
        resolved,
        os.path.join(out, "report.json"),
    )
    print(
        f"recall@{result.k}={result.recall_at_k:.4f} ndcg@{result.k}={result.ndcg_at_k:.4f} "
        f"({result.users_evaluated} users) -> {out}"
    )
    return 0


def _cmd_sweep(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    graph = gr.build_graph(dataset)
    norm = gr.g2n_normalize(graph, gr.G2NConfig(alpha=resolved["alpha"], epsilon=resolved["epsilon"]))
    if resolved.get("K_grid"):
        K_list = _parse_number_list(resolved["K_grid"], int)
    else:
        cap = min(graph.n_users, graph.n_items)
        K_list = [max(1, int(cap * f)) for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)]
    rows = ev.frequency_sweep(
        dataset, norm, K_list, metric_k=resolved["metric_k"], seed=resolved["seed"]
    )
    out = _run_dir(resolved)
    ev.write_sweep_csv(rows, os.path.join(out, "sweep.csv"))
    _write_json({"points": rows}, resolved, os.path.join(out, "sweep.json"))
    best = max(rows, key=lambda r: r["recall"])
    print(f"best K={best['K']} recall@{resolved['metric_k']}={best['recall']:.4f} -> {out}")
    return 0


def _cmd_grid(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    axes = {}
    file_grid = resolved.get("grid") or {}
    for axis in ev.GRID_AXES:
        flag = resolved.get(f"grid_{axis}")
        if flag is not None:
            cast = int if axis == "K" else float
            axes[axis] = _parse_number_list(flag, cast)
        elif axis in file_grid:
            axes[axis] = list(file_grid[axis])
    if not axes:
        raise ConfigError("grid search needs at least one --grid-<axis> or a config grid")
    grid = ev.GridSpec(axes=axes, selection_metric=resolved["selection_metric"])
    base = _model_config(resolved)
    result = ev.grid_search(dataset, grid, k=resolved["k"], base=base, threads=resolved["threads"])
    out = _run_dir(resolved)
    ev.write_grid_csv(result.table, os.path.join(out, "grid.csv"))
    _write_json(
        {
            "best_config": md.config_to_dict(result.best_config),
            "validation": {
                "recall": result.best_validation.recall_at_k,
                "ndcg": result.best_validation.ndcg_at_k,
            },
            "test": {
                "recall": result.test_result.recall_at_k,
                "ndcg": result.test_result.ndcg_at_k,
                "users_evaluated": result.test_result.users_evaluated,
            },
            "k": resolved["k"],
            "configurations": len(result.table),
        },
        resolved,
        os.path.join(out, "grid_report.json"),
    )
    print(
        f"grid over {len(result.table)} configs: test ndcg@{resolved['k']}="
        f"{result.test_result.ndcg_at_k:.4f} -> {out}"
    )
    return 0


def _cmd_spectrum(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    graph = gr.build_graph(dataset)
    norm = gr.g2n_normalize(graph, gr.G2NConfig(alpha=resolved["alpha"], epsilon=resolved["epsilon"]))
    K = min(resolved["K"], min(graph.n_users, graph.n_items))
    spectrum = spec.truncated_svd(
        norm,
        K,
        oversample=resolved["oversample"],
        power_iters=resolved["power_iters"],
        seed=resolved["seed"],
    )
    stats = spec.spectrum_stats(spectrum, norm.frobenius_sq())
    out = _run_dir(resolved)
    spec.write_spectrum_csv(spectrum, os.path.join(out, "spectrum.csv"))
    spec.write_stats_csv(stats, os.path.join(out, "stats.csv"))
    _write_json(
        {"K": len(spectrum), "sigma_1": float(spectrum.sigma[0])},
        resolved,
        os.path.join(out, "spectrum.json"),
    )
    print(f"spectrum K={len(spectrum)} -> {out}")
    return 0


def _cmd_theory_check(resolved: dict) -> int:
    out = _run_dir(resolved)
    reports = theory.run_all_checks(seed=resolved["seed"])
    all_passed = True
    for report in reports:
        theory.write_report_json(report, os.path.join(out, f"theory_{report.check_name}.json"))
        status = "PASS" if report.passed else "FAIL"
        print(
            f"[{status}] {report.check_name}: max_abs_error={report.max_abs_error:.3e} "
            f"tol={report.tolerance:.1e} ({report.instances_run} instances)"
        )
        all_passed &= report.passed
    _write_json(
        {"passed": all_passed, "checks": [r.to_dict() for r in reports]},
        resolved,
        os.path.join(out, "theory_summary.json"),
    )
    return 0 if all_passed else 2


COMMANDS = {
    "ingest": _cmd_ingest,
    "split": _cmd_split,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "grid": _cmd_grid,
    "spectrum": _cmd_spectrum,
    "theory-check": _cmd_theory_check,
}


def run_command(argv: list[str]) -> int:
    """Parse and execute one subcommand; returns the process exit code
    (0 success, 1 validation error, 2 failed checks)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        resolved = _resolve_config(args)
        return COMMANDS[args.command](resolved)
    except SgfcfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
