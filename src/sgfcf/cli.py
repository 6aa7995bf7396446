"""Command-line pipeline: ingest, split, fit, eval, sweep, grid,
spectrum, and theory-check subcommands.

Every run resolves the options its command takes (command-level
defaults, then an optional JSON config file, then explicit flags) and
builds the library's config dataclasses from the options given, so model,
filter and split defaults are the library's. It writes its artifacts into
a directory named by a content hash of its record (the configs it built,
its command-level values and the data file's SHA-256) and embeds that
record and its seed in each JSON report. This module is the one that
writes files: the library returns data, and each command turns it into
its CSV rows and JSON payloads.
"""

from __future__ import annotations

import argparse
import csv
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
from .errors import ConfigError, SgfcfError, check_integer

# Command-level values that no config dataclass holds, each taken by the
# commands that list its option in COMMAND_OPTIONS. Every model, filter and
# split default comes from its dataclass: a key left out of the flags and
# the config file takes the library's default.
DEFAULTS = {
    "out": "runs",
    "format": "tsv",
    "x": 0.8,  # x and val are the CLI's split protocol
    "val": 0.05,
    "k": 10,
    "metric_k": 20,
    "threads": 0,
    "selection_metric": "ndcg",
}
FORMATS = {"tsv": "tsv_pairs", "csv": "csv_pairs"}

# CLI key -> dataclass field, one table per config the CLI builds.
SPLIT_FIELDS = {"x": "train_ratio", "val": "val_ratio", "seed": "seed", "split_strategy": "strategy"}
G2N_FIELDS = {"alpha": "alpha", "epsilon": "epsilon"}
IGF_FIELDS = {"beta": "beta", "beta1": "beta1", "beta2": "beta2"}
MODEL_FIELDS = {
    "K": "K", "gamma": "gamma", "delta": "delta", "homo_mode": "homo_mode",
    "oversample": "svd_oversample", "power_iters": "svd_power_iters", "seed": "seed",
}
FILTERS = {
    "monomial": (ft.MonomialFilter, {"filter_beta": "beta"}),
    "exponential": (ft.ExponentialFilter, {"filter_beta": "beta"}),
    "markov": (ft.MarkovFilter, {"filter_order": "order"}),
    "jacobi": (ft.JacobiFilter, {"jacobi_a": "a", "jacobi_b": "b", "filter_order": "order"}),
}
# Keys a built config holds: a run's record carries them only inside it.
CONFIG_KEYS = {"filter", *SPLIT_FIELDS, *G2N_FIELDS, *IGF_FIELDS, *MODEL_FIELDS}
CONFIG_KEYS.update(key for _, fields in FILTERS.values() for key in fields)

GRID_OPTIONS = tuple(f"grid_{axis}" for axis in ev.GRID_AXES)
# Every option as its dest and its add_argument keywords. Its flag is
# "--" + dest with "-" for "_", and a --config file sets it by its dest,
# through its type (str when it has none).
OPTIONS = {
    "out": {"help": "output root directory"},
    "config": {"help": "JSON config file; flags override it"},
    "data": {"help": "interaction file path"},
    "format": {"choices": list(FORMATS)},
    "x": {"type": float, "help": "train ratio"},
    "val": {"type": float, "help": "validation ratio"},
    "split_strategy": {"choices": list(ds.STRATEGIES)},
    "filter": {"choices": ["igf", *FILTERS], "help": "igf = individualized monomial (default)"},
    "homo_mode": {"choices": ["inclusive", "strict"]},
    "recommend_k": {"type": int, "help": "also dump top-k lists"},
    "k": {"type": int, "help": "metric cutoff"},
    "K_grid": {"help": "comma-separated band sizes"},
    "selection_metric": {"choices": ["ndcg", "recall"]},
    "threads": {"type": int, "help": "0 = all available"},
    **dict.fromkeys(
        ("seed", "K", "delta", "filter_order", "oversample", "power_iters", "metric_k"),
        {"type": int},
    ),
    **dict.fromkeys(
        ("alpha", "epsilon", "beta", "beta1", "beta2", "gamma", "filter_beta", "jacobi_a", "jacobi_b"),
        {"type": float},
    ),
    **dict.fromkeys(GRID_OPTIONS, {"help": "comma-separated values"}),
}
COMMON = ("out", "config", "seed")
DATA = ("data", "format")
SPLIT = ("x", "val", "split_strategy")
MODEL = (
    "K", "alpha", "epsilon", "beta", "beta1", "beta2", "gamma", "delta", "filter",
    "filter_beta", "filter_order", "jacobi_a", "jacobi_b", "homo_mode", "oversample", "power_iters",
)
# Each command's help line and its options, in --help order.
COMMAND_OPTIONS = {
    "ingest": ("read and deduplicate an interaction file", ("out", "config", *DATA)),
    "split": ("ingest and write a split manifest", (*COMMON, *DATA, *SPLIT)),
    "fit": ("fit a model and write its summary", (*COMMON, *DATA, *SPLIT, *MODEL, "recommend_k")),
    "eval": ("fit and evaluate on the test split", (*COMMON, *DATA, *SPLIT, *MODEL, "k")),
    "sweep": (
        "frequency sweep with the uniform band filter",
        (*COMMON, *DATA, *SPLIT, "alpha", "epsilon", "K_grid", "metric_k"),
    ),
    "grid": (
        "hyperparameter grid search",
        (*COMMON, *DATA, *SPLIT, *MODEL, "k", *GRID_OPTIONS, "selection_metric", "threads"),
    ),
    "spectrum": (
        "export singular values and the appro curve",
        (*COMMON, *DATA, *SPLIT, "K", "alpha", "epsilon", "oversample", "power_iters"),
    ),
    "theory-check": ("run all theorem oracles", COMMON),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgfcf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, options) in COMMAND_OPTIONS.items():
        p = sub.add_parser(command, help=help_line)
        for dest in options:
            p.add_argument("--" + dest.replace("_", "-"), **OPTIONS[dest])
    return parser


def _config_types(command: str) -> dict:
    """Keys a --config file may set for ``command``, each with its
    option's type (str for an untyped option, as argparse reads its flag):
    the command's options, plus the axes table for ``grid`` (None)."""
    _, options = COMMAND_OPTIONS[command]
    types = {dest: OPTIONS[dest].get("type", str) for dest in options if dest != "config"}
    return types | {"grid": None} if command == "grid" else types


def _resolve_config(args: argparse.Namespace, types: dict) -> dict:
    """DEFAULTS of the command's options, then the --config file, then
    explicit flags. Null values count as not given, so the dataclasses
    fill them in. A file key the command does not take is an error; a
    file value goes through its option's type as the flag's text would,
    so ``{"gamma": 0}`` and ``--gamma 0`` resolve alike."""
    file_config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read --config {args.config}: {exc.strerror}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"--config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_config, dict):
            raise ConfigError(
                f"--config {args.config} must hold a JSON object, got {json.dumps(file_config)[:40]}"
            )
        unknown = set(file_config) - set(types)
        if unknown:
            raise ConfigError(f"config keys not taken by {args.command!r}: {sorted(unknown)}")
        for key, value in file_config.items():
            if value is not None and types[key] is not None:
                try:
                    file_config[key] = types[key](str(value))
                except ValueError:
                    raise ConfigError(
                        f"config key {key!r}: {value!r} is not a valid {types[key].__name__}"
                    ) from None
    resolved = {k: v for k, v in DEFAULTS.items() if k in types}
    for source in (file_config, vars(args)):
        resolved.update((k, v) for k, v in source.items() if v is not None and k != "config")
    return resolved


def _given(resolved: dict, fields: dict[str, str]) -> dict:
    """Keyword arguments for a dataclass from the keys that were given;
    ``fields`` maps each CLI key to its field."""
    return {field: resolved[key] for key, field in fields.items() if key in resolved}


def _seed(resolved: dict) -> int:
    seed = resolved.get("seed", md.SgfcfConfig.seed)
    check_integer("--seed", seed, lo=0)
    return seed


def _config_hash(record: dict) -> str:
    """Hash of a run's record without the data path; the record names
    the data by its bytes' SHA-256."""
    canonical = json.dumps({k: v for k, v in record.items() if k != "data"}, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _run_dir(resolved: dict, **configs) -> tuple[str, dict]:
    """Create the run directory and return it with the run's record.

    The record holds the command's own command-level values, its seed
    (for a command that takes one), the data file's SHA-256 and each
    config the run built, serialized by
    ``md.serialize_config``; a key that a built config holds appears only
    inside it. The directory is named by ``_config_hash(record)``, so
    the same run on the same bytes lands in the same directory under any
    output root and through any path.
    """
    record = {k: v for k, v in resolved.items() if k not in CONFIG_KEYS and k != "out"}
    if resolved["command"] != "ingest":  # the one command without --seed
        record["seed"] = _seed(resolved)
    record.update((name, md.serialize_config(config)) for name, config in configs.items())
    out = os.path.join(resolved["out"], f"{resolved['command']}-{_config_hash(record)}")
    os.makedirs(out, exist_ok=True)
    # CSV artifacts cannot carry metadata, so the run directory itself
    # records the run next to them.
    _dump_json(os.path.join(out, "run_config.json"), record, indent=2, sort_keys=True)
    return out, record


def _dump_json(path: str, payload, **options) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, **options)


def _write_json(payload: dict, record: dict, path: str) -> None:
    """A report: ``payload`` with the run's record, its seed and a timestamp."""
    payload = dict(payload, config=record)
    if "seed" in record:
        payload["seed"] = record["seed"]
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _dump_json(path, payload, indent=2, default=float)


def _write_csv(path: str, header: list[str], rows) -> None:
    """A data table: ``header``, then one line per row. A float is written
    in its shortest round-trip form, so the table reads back bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_spectrum(spectrum: spec.TruncatedSpectrum, out: str) -> None:
    """``spectrum.csv``, as ``fit`` and ``spectrum`` write it."""
    rows = zip(range(1, len(spectrum) + 1), spectrum.sigma.tolist(), spectrum.sigma_normalized.tolist())
    _write_csv(os.path.join(out, "spectrum.csv"), ["k", "sigma", "sigma_normalized"], rows)


def _recommendation_rows(model: md.SgfcfModel, k: int):
    """Each user's top-k list, train items excluded, as (user, rank, item, score)."""
    for u in range(model.n_users):
        ranked = model.recommend(u, k=k)
        for rank, (item, score) in enumerate(zip(ranked.items.tolist(), ranked.scores.tolist()), start=1):
            yield u, rank, item, score


def _ingest(resolved: dict) -> ds.InteractionLog:
    """Read --data, and identify it by the SHA-256 of its bytes."""
    path = resolved.get("data")
    if not path:
        raise ConfigError("--data is required for this command")
    log = ds.ingest(path, FORMATS.get(resolved["format"], resolved["format"]))
    with open(path, "rb") as fh:
        resolved["data_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return log


def _load_dataset(resolved: dict) -> ds.InteractionDataset:
    return ds.split(_ingest(resolved), ds.SplitConfig(**_given(resolved, SPLIT_FIELDS)))


def _filter_family(resolved: dict) -> ft.FilterFamily | None:
    name = resolved.get("filter", "igf")
    if name == "igf":  # the individualized filter, SgfcfConfig's filter=None
        return None
    if name not in FILTERS:
        raise ConfigError(f"unknown filter {name!r}")
    family, fields = FILTERS[name]
    return family(**_given(resolved, fields))


def _model_config(resolved: dict) -> md.SgfcfConfig:
    return md.SgfcfConfig(
        g2n=gr.G2NConfig(**_given(resolved, G2N_FIELDS)),
        igf=ft.IgfConfig(**_given(resolved, IGF_FIELDS)),
        filter=_filter_family(resolved),
        **_given(resolved, MODEL_FIELDS),
    )


def _parse_number_list(text: str, option: str, cast=float) -> list:
    try:
        return [cast(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{option}: {text!r} is not a comma-separated list of {cast.__name__}s") from None


def _cmd_ingest(resolved: dict) -> int:
    log = _ingest(resolved)
    out, record = _run_dir(resolved)
    _write_json(
        {
            "records": len(log),
            "duplicates_dropped": log.duplicates_dropped,
            "users": log.id_maps.n_users,
            "items": log.id_maps.n_items,
        },
        record,
        os.path.join(out, "ingest.json"),
    )
    print(f"{len(log)} interactions ({log.duplicates_dropped} duplicates dropped) -> {out}")
    return 0


def _cmd_split(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    out, record = _run_dir(resolved, split=dataset.split_config)
    manifest = {
        "users": dataset.n_users,
        "items": dataset.n_items,
        "train": dataset.train.tolist(),
        "val": dataset.val.tolist(),
        "test": dataset.test.tolist(),
        "seed": dataset.split_config.seed,
    }
    _dump_json(os.path.join(out, "split.json"), manifest)
    _write_json(
        {
            "users": dataset.n_users,
            "items": dataset.n_items,
            "train": len(dataset.train),
            "val": len(dataset.val),
            "test": len(dataset.test),
        },
        record,
        os.path.join(out, "split_summary.json"),
    )
    print(f"split {len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} -> {out}")
    return 0


def _cmd_fit(resolved: dict) -> int:
    recommend_k = resolved.get("recommend_k")
    if recommend_k is not None:
        check_integer("--recommend-k", recommend_k, lo=1)
    dataset = _load_dataset(resolved)
    config = _model_config(resolved)
    graph = homophily = None
    if config.filter is None and config.shared_filter is not None:
        # fit skips homophily at beta1 == beta2, but the artifact still
        # reports it; computed first, so a delta it rejects fails before the SVD
        graph = gr.build_graph(dataset)
        homophily = ft.homophilic_ratio_all(graph, delta=config.delta, mode=config.homo_mode)
    model = md.fit(dataset, config, graph=graph, homophily=homophily)
    out, record = _run_dir(resolved, split=dataset.split_config, model=model.config)
    _write_json(md.model_summary(model), record, os.path.join(out, "model_summary.json"))
    _write_spectrum(model.spectrum, out)
    if model.homophily is not None:
        profile = model.profile
        if profile is None:
            profile = ft.map_homo_to_beta(model.homophily, config.igf, scope=config.homo_scope)
        rows = [
            (node_type, node_id, score, beta)
            for node_type, scores, betas in (
                ("user", model.homophily.user_scores, profile.user_beta),
                ("item", model.homophily.item_scores, profile.item_beta),
            )
            for node_id, (score, beta) in enumerate(zip(scores.tolist(), betas.tolist()))
        ]
        _write_csv(os.path.join(out, "homophily.csv"), ["node_type", "node_id", "score", "beta"], rows)
    if recommend_k is not None:
        _write_csv(
            os.path.join(out, "recommendations.csv"),
            ["user_id", "rank", "item_id", "score"],
            _recommendation_rows(model, recommend_k),
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
    out, record = _run_dir(resolved, split=dataset.split_config, model=model.config)
    _write_json(
        {
            "k": result.k,
            "recall": result.recall_at_k,
            "ndcg": result.ndcg_at_k,
            "users_evaluated": result.users_evaluated,
            "fit_seconds": fit_seconds,
            "eval_seconds": eval_seconds,
        },
        record,
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
    norm = gr.g2n_normalize(graph, gr.G2NConfig(**_given(resolved, G2N_FIELDS)))
    if resolved.get("K_grid"):
        K_list = _parse_number_list(resolved["K_grid"], "--K-grid", int)
    else:
        cap = min(graph.n_users, graph.n_items)
        K_list = [max(1, int(cap * f)) for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)]
    rows = ev.frequency_sweep(
        dataset, norm, K_list, metric_k=resolved["metric_k"], seed=_seed(resolved)
    )
    out, record = _run_dir(resolved, split=dataset.split_config, g2n=norm.config)
    header = ["K", "fraction", "recall", "ndcg"]
    _write_csv(os.path.join(out, "sweep.csv"), header, ([row[c] for c in header] for row in rows))
    _write_json({"points": rows}, record, os.path.join(out, "sweep.json"))
    best = max(rows, key=lambda r: r["recall"])
    print(f"best K={best['K']} recall@{resolved['metric_k']}={best['recall']:.4f} -> {out}")
    return 0


def _cmd_grid(resolved: dict) -> int:
    dataset = _load_dataset(resolved)
    axes = {}
    file_grid = resolved.get("grid") or {}
    if not isinstance(file_grid, dict):
        raise ConfigError(f"config grid must map axis names to value lists, got {file_grid!r}")
    for axis in ev.GRID_AXES:
        flag = resolved.get(f"grid_{axis}")
        if flag is not None:
            cast = int if axis == "K" else float
            axes[axis] = _parse_number_list(flag, f"--grid-{axis}", cast)
        elif axis in file_grid:
            axes[axis] = file_grid[axis]
    if not axes:
        raise ConfigError("grid search needs at least one --grid-<axis> or a config grid")
    grid = ev.GridSpec(axes=axes, selection_metric=resolved["selection_metric"])
    base = _model_config(resolved)
    result = ev.grid_search(dataset, grid, k=resolved["k"], base=base, threads=resolved["threads"])
    out, record = _run_dir(resolved, split=dataset.split_config, model=base)
    _write_csv(os.path.join(out, "grid.csv"), list(result.table[0]), (row.values() for row in result.table))
    _write_json(
        {
            "best_config": md.serialize_config(result.best_config),
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
        record,
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
    config = _model_config(resolved)
    norm = gr.g2n_normalize(graph, config.g2n)
    spectrum = spec.top_k_svd(norm, config.K, **md.svd_settings(config))
    curve = spec.appro_curve(spectrum, norm.frobenius_sq())
    out, record = _run_dir(resolved, split=dataset.split_config, model=config)
    _write_spectrum(spectrum, out)
    _write_csv(os.path.join(out, "stats.csv"), ["k", "appro"], enumerate(curve.tolist(), start=1))
    _write_json(
        {"K": len(spectrum), "sigma_1": float(spectrum.sigma[0])},
        record,
        os.path.join(out, "spectrum.json"),
    )
    print(f"spectrum K={len(spectrum)} -> {out}")
    return 0


def _cmd_theory_check(resolved: dict) -> int:
    out, record = _run_dir(resolved)
    reports = theory.run_all_checks(seed=record["seed"])
    all_passed = True
    for report in reports:
        _dump_json(os.path.join(out, f"theory_{report.check_name}.json"), report.to_dict(), indent=2)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"[{status}] {report.check_name}: max_abs_error={report.max_abs_error:.3e} "
            f"tol={report.tolerance:.1e} ({report.instances_run} instances)"
        )
        all_passed &= report.passed
    _write_json(
        {"passed": all_passed, "checks": [r.to_dict() for r in reports]},
        record,
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
        resolved = _resolve_config(args, _config_types(args.command))
        return COMMANDS[args.command](resolved)
    except SgfcfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
