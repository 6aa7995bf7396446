import ast
import json
import os
import re
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sgfcf import JacobiFilter, MarkovFilter, SgfcfConfig, SplitConfig
from sgfcf.cli import COMMAND_OPTIONS, MODEL, run_command
from sgfcf.evaluation import GRID_AXES
from sgfcf.model import serialize_config


@pytest.fixture
def roomy_file(tmp_path):
    """80 users and 100 items, each user with 12: room for the default K of 64."""
    lines = [f"user{u}\titem{(7 * u + 13 * j) % 100}" for u in range(80) for j in range(12)]
    path = tmp_path / "roomy.tsv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _only_run_dir(out_root):
    entries = sorted(os.listdir(out_root))
    assert len(entries) == 1
    return os.path.join(out_root, entries[0])


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestIngestSplit:
    def test_ingest(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        assert run_command(["ingest", "--data", data_file, "--out", out]) == 0
        payload = _load(os.path.join(_only_run_dir(out), "ingest.json"))
        assert payload["users"] == 30
        assert payload["duplicates_dropped"] == 0
        assert payload["config"]["data"] == data_file
        assert "timestamp" in payload

    def test_split_manifest(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        code = run_command(
            ["split", "--data", data_file, "--x", "0.7", "--val", "0.1", "--seed", "3", "--out", out]
        )
        assert code == 0
        run_dir = _only_run_dir(out)
        manifest = _load(os.path.join(run_dir, "split.json"))
        assert set(manifest) == {"users", "items", "train", "val", "test", "seed"}
        assert manifest["seed"] == 3
        summary = _load(os.path.join(run_dir, "split_summary.json"))
        assert summary["train"] == len(manifest["train"])

    def test_missing_data_flag(self, tmp_path):
        assert run_command(["split", "--out", str(tmp_path / "r")]) == 1

    def test_missing_file(self, tmp_path):
        assert run_command(["ingest", "--data", str(tmp_path / "nope.tsv")]) == 1

    def test_ingest_counts_the_duplicates_it_drops(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("u1\ti1\nu2\ti1\nu1\ti1\t99\n\nu2\ti2\nu2\ti1\nu1\ti1\n")
        out = str(tmp_path / "runs")
        assert run_command(["ingest", "--data", str(path), "--out", out]) == 0
        payload = _load(os.path.join(_only_run_dir(out), "ingest.json"))
        assert (payload["records"], payload["duplicates_dropped"]) == (3, 3)
        assert (payload["users"], payload["items"]) == (2, 2)


class TestFitEval:
    def test_fit_artifacts(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        code = run_command(
            ["fit", "--data", data_file, "--K", "8", "--alpha", "2", "--gamma", "0.2", "--out", out]
        )
        assert code == 0
        run_dir = _only_run_dir(out)
        summary = _load(os.path.join(run_dir, "model_summary.json"))
        assert summary["K"] == 8
        assert summary["config"]["model"]["K"] == 8
        spectrum = Path(run_dir, "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "k,sigma,sigma_normalized" and len(spectrum) == 1 + 8
        assert os.path.exists(os.path.join(run_dir, "homophily.csv"))

    def test_eval_report(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        argv = [
            "eval", "--data", data_file, "--x", "0.8", "--val", "0.05",
            "--K", "6", "--alpha", "0", "--epsilon", "-0.38",
            "--beta", "1.5", "--beta1", "1.2", "--beta2", "1.8",
            "--gamma", "0.3", "--k", "10", "--seed", "42", "--out", out,
        ]
        assert run_command(argv) == 0
        report = _load(os.path.join(_only_run_dir(out), "report.json"))
        assert set(report) >= {"k", "recall", "ndcg", "users_evaluated", "fit_seconds", "eval_seconds", "config", "seed"}
        assert 0.0 <= report["recall"] <= 1.0
        assert 0.0 <= report["ndcg"] <= 1.0
        assert report["config"]["model"]["g2n"]["epsilon"] == -0.38
        assert report["seed"] == 42

    def test_eval_reproducible_modulo_timing(self, data_file, tmp_path):
        argv = lambda out: [
            "eval", "--data", data_file, "--K", "5", "--seed", "7", "--out", out,
        ]
        assert run_command(argv(str(tmp_path / "a"))) == 0
        assert run_command(argv(str(tmp_path / "b"))) == 0
        a = _load(os.path.join(_only_run_dir(str(tmp_path / "a")), "report.json"))
        b = _load(os.path.join(_only_run_dir(str(tmp_path / "b")), "report.json"))
        for volatile in ("timestamp", "fit_seconds", "eval_seconds"):
            a.pop(volatile), b.pop(volatile)
        a["config"].pop("out", None), b["config"].pop("out", None)
        assert a == b

    def test_run_dir_name_is_config_hash(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        assert run_command(["fit", "--data", data_file, "--K", "4", "--out", out]) == 0
        (run_dir,) = os.listdir(out)
        assert run_dir.startswith("fit-")
        assert len(run_dir.split("-", 1)[1]) == 12

    def test_run_dir_hash_ignores_out_root_and_data_path(self, data_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(data_file, "d.tsv")
        shutil.copy(data_file, "copy.tsv")
        paths = ["d.tsv", "./d.tsv", "copy.tsv", str(tmp_path / "d.tsv")]
        for n, path in enumerate(paths):
            assert run_command(["eval", "--data", path, "--K", "4", "--out", f"root{n}"]) == 0
        names = {name for n in range(len(paths)) for name in os.listdir(f"root{n}")}
        assert len(names) == 1
        # the directory follows the bytes, not the name
        Path("copy.tsv").write_text(Path("d.tsv").read_text() + "userX\titemY\n")
        assert run_command(["eval", "--data", "copy.tsv", "--K", "4", "--out", "root0"]) == 0
        assert len(os.listdir("root0")) == 2

    def test_library_defaults_given_explicitly_share_the_run_dir(self, roomy_file, tmp_path):
        out = str(tmp_path / "runs")
        assert run_command(["eval", "--data", roomy_file, "--out", out]) == 0
        argv = ["eval", "--data", roomy_file, "--K", "64", "--seed", "0", "--alpha", "0", "--out", out]
        assert run_command(argv) == 0
        assert len(os.listdir(out)) == 1

    def test_no_model_flags_records_the_library_defaults(self, roomy_file, tmp_path):
        out = str(tmp_path / "runs")
        assert run_command(["fit", "--data", roomy_file, "--out", out]) == 0
        run_dir = _only_run_dir(out)
        summary = _load(os.path.join(run_dir, "model_summary.json"))
        assert summary["config"]["model"] == serialize_config(SgfcfConfig())
        assert summary["config"] == _load(os.path.join(run_dir, "run_config.json"))
        split = SplitConfig(train_ratio=0.8, val_ratio=0.05)
        assert summary["config"]["split"] == asdict(split)
        assert summary["seed"] == SgfcfConfig().seed == split.seed
        assert run_command(["eval", "--data", roomy_file, "--out", out]) == 0
        (eval_dir,) = [d for d in os.listdir(out) if d.startswith("eval-")]
        report = _load(os.path.join(out, eval_dir, "report.json"))
        assert report["config"]["model"] == serialize_config(SgfcfConfig())

    @pytest.mark.parametrize("name, family", [("jacobi", JacobiFilter()), ("markov", MarkovFilter())])
    def test_filter_without_order_records_the_family_default(self, data_file, tmp_path, name, family):
        out = str(tmp_path / "runs")
        assert run_command(["fit", "--data", data_file, "--K", "4", "--filter", name, "--out", out]) == 0
        summary = _load(os.path.join(_only_run_dir(out), "model_summary.json"))
        assert summary["config"]["model"]["filter"] == {"family": name, **asdict(family)}

    def test_invalid_k_flag(self, data_file, tmp_path):
        code = run_command(
            ["fit", "--data", data_file, "--K", "100000", "--out", str(tmp_path / "r")]
        )
        assert code == 1


class TestSweepGridSpectrum:
    def test_sweep(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        code = run_command(
            ["sweep", "--data", data_file, "--K-grid", "1,2,4,8", "--metric-k", "5", "--out", out]
        )
        assert code == 0
        run_dir = _only_run_dir(out)
        lines = Path(run_dir, "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "K,fraction,recall,ndcg"
        assert len(lines) == 5
        for line in lines[1:]:
            assert all(np.isfinite(float(field)) for field in line.split(","))

    def test_sweep_default_grid_stops_at_the_spectrum(self, tmp_path):
        # 25 two-item users hold all their items in train and draw them from
        # ten items, so the train matrix has rank <= 15 below min(|U|,|I|) = 30
        lines = [f"user{u}\titem{i}" for u in range(25) for i in (u % 10, (u + 3) % 10)]
        lines += [f"user{u}\titem{i}" for u in range(25, 30) for i in range(6 * u - 140, 6 * u - 130)]
        data = tmp_path / "low_rank.tsv"
        data.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "runs")
        assert run_command(["sweep", "--data", str(data), "--out", out]) == 0
        rows = Path(_only_run_dir(out), "sweep.csv").read_text().strip().splitlines()[1:]
        K, fraction = (float(field) for field in rows[-1].split(",")[:2])
        assert fraction == 1.0  # K equals the spectrum's length
        assert K < 30

    def test_grid(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        code = run_command(
            [
                "grid", "--data", data_file, "--grid-K", "4,6", "--grid-gamma", "0.0,0.2",
                "--k", "5", "--out", out,
            ]
        )
        assert code == 0
        run_dir = _only_run_dir(out)
        report = _load(os.path.join(run_dir, "grid_report.json"))
        assert report["configurations"] == 4
        assert report["best_config"]["K"] in (4, 6)
        lines = Path(run_dir, "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 5

    def test_grid_requires_axes(self, data_file, tmp_path):
        assert run_command(["grid", "--data", data_file, "--out", str(tmp_path / "r")]) == 1

    def test_spectrum(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        code = run_command(
            ["spectrum", "--data", data_file, "--K", "10", "--alpha", "8", "--out", out]
        )
        assert code == 0
        run_dir = _only_run_dir(out)
        spectrum_lines = Path(run_dir, "spectrum.csv").read_text().strip().splitlines()
        assert spectrum_lines[0] == "k,sigma,sigma_normalized"
        stats_lines = Path(run_dir, "stats.csv").read_text().strip().splitlines()
        assert stats_lines[0] == "k,appro"
        # appro column is non-decreasing
        appro = [float(line.split(",")[1]) for line in stats_lines[1:]]
        assert all(b >= a - 1e-15 for a, b in zip(appro, appro[1:]))

    def test_spectrum_K_above_the_graph_fails_like_fit(self, data_file, tmp_path):
        out = tmp_path / "runs"
        for command in ("spectrum", "fit"):
            assert run_command([command, "--data", data_file, "--K", "100000", "--out", str(out)]) == 1
        assert not out.exists()

    def test_sweep_csv_byte_identical_across_runs(self, data_file, tmp_path):
        argv = lambda out: [
            "sweep", "--data", data_file, "--K-grid", "1,3,6", "--seed", "4", "--out", out,
        ]
        assert run_command(argv(str(tmp_path / "a"))) == 0
        assert run_command(argv(str(tmp_path / "b"))) == 0
        read = lambda root: Path(_only_run_dir(str(tmp_path / root)), "sweep.csv").read_bytes()
        assert read("a") == read("b")

    def test_config_file_with_flag_override(self, data_file, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"K": 4, "gamma": 0.3, "seed": 5}))
        out = str(tmp_path / "runs")
        code = run_command(
            ["eval", "--data", data_file, "--config", str(config_path), "--gamma", "0.1", "--out", out]
        )
        assert code == 0
        report = _load(os.path.join(_only_run_dir(out), "report.json"))
        assert report["config"]["model"]["K"] == 4  # from file
        assert report["config"]["model"]["gamma"] == 0.1  # flag wins
        assert report["seed"] == 5

    def test_grid_keeps_the_base_igf_range(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        argv = [
            "grid", "--data", data_file, "--beta", "1.5", "--beta1", "1.2", "--beta2", "1.8",
            "--grid-K", "4,6", "--k", "5", "--out", out,
        ]
        assert run_command(argv) == 0
        run_dir = _only_run_dir(out)
        rows = Path(run_dir, "grid.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        ends = {tuple(row.split(",")[header.index(c)] for c in ("beta1", "beta2")) for row in rows[1:]}
        assert ends == {("1.2", "1.8")}
        best = _load(os.path.join(run_dir, "grid_report.json"))["best_config"]
        assert best["igf"] == {"beta": 1.5, "beta1": 1.2, "beta2": 1.8}

    def test_config_file_takes_any_option(self, data_file, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"K": 4, "gamma": 0.3, "seed": 5, "grid_K": "4,6"}))
        out = str(tmp_path / "runs")
        assert run_command(["grid", "--data", data_file, "--config", str(config_path), "--out", out]) == 0
        report = _load(os.path.join(_only_run_dir(out), "grid_report.json"))
        assert report["configurations"] == 2
        assert report["config"]["model"]["gamma"] == 0.3
        assert report["seed"] == 5

    def test_config_file_values_take_their_option_type(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        argv = ["eval", "--data", data_file, "--K", "4", "--out", out]
        for name, value in (("int", 0), ("float", 0.0)):
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps({"gamma": value}))
            assert run_command(argv + ["--config", str(config_path)]) == 0
        assert run_command(argv + ["--gamma", "0"]) == 0
        record = _load(os.path.join(_only_run_dir(out), "run_config.json"))
        assert type(record["model"]["gamma"]) is float
        # a value the flag would reject is rejected from the file too
        config_path = tmp_path / "fractional_K.json"
        config_path.write_text(json.dumps({"K": 4.5}))
        assert run_command(["eval", "--data", data_file, "--config", str(config_path), "--out", out]) == 1

    def test_unknown_config_key(self, data_file, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        assert run_command(["eval", "--data", data_file, "--config", str(config_path)]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read --config"),  # no such file
            ("{bad", "is not valid JSON"),
            ("5", "must hold a JSON object"),
            ("null", "must hold a JSON object"),
            ("[]", "must hold a JSON object"),
        ],
    )
    def test_unreadable_config_fails_cleanly(self, data_file, tmp_path, capsys, text, message):
        # each raised FileNotFoundError, JSONDecodeError, TypeError or
        # AttributeError as a traceback
        config_path = tmp_path / "config.json"
        if text is not None:
            config_path.write_text(text)
        out = tmp_path / "runs"
        argv = ["ingest", "--data", data_file, "--config", str(config_path), "--out", str(out)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()


class TestRunRecord:
    def test_a_run_records_only_what_its_command_takes(self, data_file, tmp_path):
        out = tmp_path / "runs"
        spectrum = ["spectrum", "--data", data_file, "--K", "4", "--out", str(out)]
        config_path = tmp_path / "k.json"
        config_path.write_text(json.dumps({"k": 5}))
        # an option of another command is no option of this one, as a flag or a config key
        assert run_command(["ingest", "--data", data_file, "--seed", "1", "--out", str(out)]) == 1
        assert run_command(["ingest", "--data", data_file, "--threads", "3", "--out", str(out)]) == 1
        assert run_command(spectrum + ["--threads", "7"]) == 1
        assert run_command(spectrum + ["--config", str(config_path)]) == 1
        assert not out.exists()
        assert run_command(["ingest", "--data", data_file, "--out", str(out)]) == 0
        assert run_command(spectrum) == 0
        records = {name.split("-")[0]: _load(out / name / "run_config.json") for name in os.listdir(out)}
        assert set(records["ingest"]) == {"command", "data", "data_sha256", "format"}
        assert set(records["spectrum"]) == {"command", "data", "data_sha256", "format", "seed", "split", "model"}

    def test_threads_is_a_grid_option(self, data_file, tmp_path):
        out = str(tmp_path / "runs")
        argv = ["grid", "--data", data_file, "--grid-K", "4,6", "--k", "5", "--threads", "1", "--out", out]
        assert run_command(argv) == 0
        record = _load(os.path.join(_only_run_dir(out), "run_config.json"))
        assert (record["threads"], record["k"], record["selection_metric"]) == (1, 5, "ndcg")
        assert "metric_k" not in record

    def test_negative_threads_fail_cleanly(self, data_file, tmp_path, capsys):
        out = tmp_path / "runs"
        argv = ["grid", "--data", data_file, "--grid-K", "4,6", "--k", "5", "--threads", "-1", "--out", str(out)]
        assert run_command(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: threads must be >= 0") and "Traceback" not in err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize(
        "argv, option",
        [(["sweep", "--K-grid", "2,x"], "--K-grid"), (["grid", "--grid-K", "4.5"], "--grid-K")],
    )
    def test_bad_number_list_fails_cleanly(self, data_file, tmp_path, capsys, argv, option):
        assert run_command(argv + ["--data", data_file, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {option}: ")

    def test_empty_K_grid_fails_before_the_run_dir(self, data_file, tmp_path, capsys):
        # the sweep once returned no rows, wrote its run directory, then
        # crashed taking the best of them
        out = tmp_path / "r"
        assert run_command(["sweep", "--data", data_file, "--K-grid", ",", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "K" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes", [{"K": ["x"]}, {"gamma": ["a"]}, {"K": 4}, {"K": [2.5]}, {"alpha": [True]}, 5], ids=str
    )
    def test_malformed_config_grid_fails_cleanly(self, data_file, tmp_path, capsys, axes):
        config_path = tmp_path / "grid.json"
        config_path.write_text(json.dumps({"grid": axes}))
        out = tmp_path / "r"
        assert run_command(["grid", "--data", data_file, "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_fit_recommend_k_below_one_fails_before_any_work(self, data_file, tmp_path, capsys, k):
        argv = ["fit", "--data", data_file, "--K", "4", "--out", str(tmp_path / "r")]
        assert run_command(argv + ["--recommend-k", k]) == 1
        assert capsys.readouterr().err.startswith("error: --recommend-k")
        assert not (tmp_path / "r").exists()
        assert run_command(argv + ["--recommend-k", "2"]) == 0
        rows = Path(_only_run_dir(str(tmp_path / "r")), "recommendations.csv").read_text().splitlines()
        assert rows[0] == "user_id,rank,item_id,score" and len(rows) == 1 + 2 * 30

    def test_fit_delta_four_above_the_exact_cap_fails(self, tmp_path, capsys):
        # 150 users and 120 items exceed the 200 nodes of exact delta >= 4
        lines = [f"user{u}\titem{(7 * u + 13 * j) % 120}" for u in range(150) for j in range(12)]
        data = tmp_path / "wide.tsv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r"
        assert run_command(["fit", "--data", str(data), "--K", "4", "--delta", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "200 nodes" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["theory-check"], ["split"], ["fit", "--K", "4"], ["eval", "--K", "4"], ["sweep"], ["spectrum", "--K", "4"]],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_fails_before_the_run_dir(self, data_file, tmp_path, capsys, argv):
        data = [] if argv[0] == "theory-check" else ["--data", data_file]
        out = tmp_path / "r"
        assert run_command(argv + data + ["--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err
        assert not out.exists()

    def test_eval_k_below_one_fails(self, data_file, tmp_path):
        out = tmp_path / "r"
        assert run_command(["eval", "--data", data_file, "--K", "4", "--k", "0", "--out", str(out)]) == 1
        assert not out.exists()


class TestTheoryCheck:
    def test_exit_zero_and_reports(self, tmp_path):
        out = str(tmp_path / "runs")
        assert run_command(["theory-check", "--seed", "1", "--out", out]) == 0
        run_dir = _only_run_dir(out)
        names = sorted(os.listdir(run_dir))
        assert "theory_summary.json" in names
        check_files = [n for n in names if n.startswith("theory_") and n != "theory_summary.json"]
        assert len(check_files) == 6
        summary = _load(os.path.join(run_dir, "theory_summary.json"))
        assert summary["passed"] is True


class TestArgErrors:
    def test_unknown_subcommand(self):
        assert run_command(["frobnicate"]) == 1

    def test_help_returns_zero(self, capsys):
        assert run_command(["--help"]) == 0
        out = capsys.readouterr().out
        # each subcommand heads its own line of the listing, with its help after it
        for name in ("ingest", "split", "fit", "eval", "sweep", "grid", "spectrum", "theory-check"):
            assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), name


class TestOptionTable:
    # a value every option may take on the data_file fixture, by config key
    VALUES = {
        "seed": 3, "format": "tsv", "x": 0.7, "val": 0.1, "split_strategy": "per_user",
        "K": 4, "alpha": 1, "epsilon": -0.4, "beta": 1.2, "beta1": 1.0, "beta2": 1.4, "gamma": 0.1,
        "delta": 2, "filter": "igf", "filter_beta": 1.5, "filter_order": 3, "jacobi_a": 0.5,
        "jacobi_b": 0.5, "homo_mode": "inclusive", "oversample": 6, "power_iters": 3,
        "recommend_k": 2, "k": 5, "K_grid": "2,4", "metric_k": 5, "grid_alpha": "0,1",
        "grid_epsilon": "-0.4", "grid_K": "4", "grid_beta": "1.2", "grid_beta1": "1.0",
        "grid_beta2": "1.4", "grid_gamma": "0.1", "selection_metric": "recall", "threads": 1,
        "grid": {"K": [4, 6]},
    }

    @staticmethod
    def _help_flags(command, capsys):
        assert run_command([command, "--help"]) == 0
        options = capsys.readouterr().out.split("options:\n", 1)[1]
        return re.findall(r"^ {2}(?:-h, )?(--[\w-]+)", options, re.MULTILINE)

    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_help_lists_each_flag_once(self, command, capsys):
        flags = self._help_flags(command, capsys)
        assert len(flags) == len(set(flags))
        keys = set(COMMAND_OPTIONS[command][1])
        assert set(flags) == {"--help"} | {"--" + key.replace("_", "-") for key in keys}

    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_config_file_may_set_every_key_its_flags_take(
        self, command, data_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        keys = [flag[2:].replace("-", "_") for flag in self._help_flags(command, capsys)]
        keys = [key for key in keys if key not in ("help", "config", "out", "data")]
        out = tmp_path / "root"
        config = {key: self.VALUES[key] for key in keys} | {"out": str(out)}
        if command != "theory-check":
            config["data"] = data_file
        if command == "grid":
            config["grid"] = self.VALUES["grid"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert run_command([command, "--config", str(config_path)]) == 0
        record = _load(os.path.join(_only_run_dir(str(out)), "run_config.json"))
        assert record.get("seed") == config.get("seed")
        # one key of another command is one too many
        extra = next(key for key in self.VALUES if key not in config)
        config_path.write_text(json.dumps(config | {extra: self.VALUES[extra]}))
        shutil.rmtree(out)
        assert run_command([command, "--config", str(config_path)]) == 1
        assert f"config keys not taken by {command!r}: [{extra!r}]" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_sets_the_output_root(self, data_file, tmp_path, monkeypatch):
        # the file's out key was once accepted and then lost to the "runs" default
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "out.json"
        config_path.write_text(json.dumps({"out": "from_file"}))
        assert run_command(["ingest", "--data", data_file, "--config", str(config_path)]) == 0
        assert not os.path.exists("runs")
        (name,) = os.listdir("from_file")
        # an explicit --out beats the file, and the run directory's name
        # does not depend on where the root came from
        argv = ["ingest", "--data", data_file, "--config", str(config_path), "--out", "from_flag"]
        assert run_command(argv) == 0
        assert os.listdir("from_flag") == [name]
        assert os.listdir("from_file") == [name]

    def test_config_file_text_options_take_the_flags_text(self, data_file, tmp_path, monkeypatch):
        # a number for a text option once reached os.path.join as an int and
        # gave a grid record other than its flag's
        monkeypatch.chdir(tmp_path)
        config_path = tmp_path / "text.json"
        config_path.write_text(json.dumps({"out": 7, "grid_K": 4}))
        assert run_command(["grid", "--data", data_file, "--config", str(config_path), "--k", "5"]) == 0
        argv = ["grid", "--data", data_file, "--grid-K", "4", "--k", "5", "--out", "7"]
        assert run_command(argv) == 0
        (name,) = os.listdir("7")
        assert _load(os.path.join("7", name, "run_config.json"))["grid_K"] == "4"

    def test_readme_names_the_tables_model_options_and_grid_axes(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        match = re.search(r"The model options are `([^`]*)`, and the grid axes\s+`([^`]*)`", readme)
        assert match, "README's model-option sentence is missing"
        assert match[1].split() == ["--" + key.replace("_", "-") for key in MODEL]
        assert tuple(match[2].split()) == GRID_AXES

    # flags that make each command write every file it can
    ARTIFACT_RUNS = {
        "ingest": [],
        "split": [],
        "fit": ["--K", "4", "--recommend-k", "2"],
        "eval": ["--K", "4"],
        "sweep": ["--K-grid", "1,2"],
        "grid": ["--grid-K", "2,4", "--k", "5"],
        "spectrum": ["--K", "4"],
        "theory-check": [],
    }

    @staticmethod
    def _readme_artifacts():
        """README's table of the files the commands write, as
        {file: (commands, CSV columns)}."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| file | commands | CSV columns |\n|---|---|---|\n", 1)[1]
        artifacts = {}
        for line in table.split("\n\n", 1)[0].splitlines():
            name, commands, columns = (cell.strip() for cell in line.strip("|").split("|"))
            if commands == "every command":
                commands = set(COMMAND_OPTIONS)
            else:
                commands = set(re.findall(r"`([\w-]+)`", commands)) & set(COMMAND_OPTIONS)
            artifacts[name.strip("`")] = (commands, columns.strip("`").split())
        return artifacts

    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_readme_names_the_files_each_command_writes(self, command, data_file, tmp_path):
        artifacts = self._readme_artifacts()
        data = [] if command == "theory-check" else ["--data", data_file]
        out = str(tmp_path / "runs")
        assert run_command([command, *data, *self.ARTIFACT_RUNS[command], "--out", out]) == 0
        run_dir = Path(_only_run_dir(out))
        named = {name for name, (commands, _) in artifacts.items() if command in commands}
        written = set(os.listdir(run_dir))
        if command == "theory-check":
            checks = _load(run_dir / "theory_summary.json")["checks"]
            named = named - {"theory_<check>.json"} | {f"theory_{c['check_name']}.json" for c in checks}
        assert written == named
        for name in written:
            columns = artifacts.get(name, (None, []))[1]
            assert (name.endswith(".csv") and columns) or (name.endswith(".json") and not columns), name
            if columns:
                assert (run_dir / name).read_text().splitlines()[0].split(",") == columns


class TestFitStages:
    def _counting(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))
        return calls

    @pytest.mark.parametrize(
        "flags, igf",
        [
            # --filter igf, individualized or at a shared beta: the CLI builds
            # both and hands them in, so fit_seconds covers neither
            (["--beta1", "1.0", "--beta2", "1.4"], True),
            ([], True),
            # an explicit family: fit builds the graph, and no homophily runs
            (["--filter", "markov"], False),
        ],
    )
    def test_the_cli_builds_the_graph_and_homophily_of_every_igf_fit(
        self, data_file, tmp_path, monkeypatch, flags, igf
    ):
        from sgfcf import filters, graph, model

        cli_graph = self._counting(monkeypatch, graph, "build_graph")
        cli_homophily = self._counting(monkeypatch, filters, "homophilic_ratio_all")
        fit_graph = self._counting(monkeypatch, model, "build_graph")
        fit_homophily = self._counting(monkeypatch, model, "homophilic_ratio_all")
        out = str(tmp_path / "runs")
        assert run_command(["fit", "--data", data_file, "--K", "4", "--out", out, *flags]) == 0
        assert (len(cli_graph), len(cli_homophily)) == (igf, igf)
        assert (len(fit_graph), len(fit_homophily)) == (1 - igf, 0)
        run_dir = _only_run_dir(out)
        assert os.path.exists(os.path.join(run_dir, "homophily.csv")) == igf

    def test_fit_delta_four_above_the_exact_cap_fails_with_a_beta_range(self, tmp_path, capsys):
        lines = [f"user{u}\titem{(7 * u + 13 * j) % 120}" for u in range(150) for j in range(12)]
        data = tmp_path / "wide.tsv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r"
        argv = ["fit", "--data", str(data), "--K", "4", "--delta", "4", "--beta1", "0.8", "--beta2", "1.2"]
        assert run_command(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "200 nodes" in err and "Traceback" not in err
        assert not out.exists()


def _file_writes(source: str) -> list[str]:
    """Lines of ``source`` that import csv or call ``open`` (or a
    ``.open`` method) with a mode that writes, or one not spelled out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            found.append(f"{node.lineno}: import csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(f"{node.lineno}: from csv import")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                positional = node.args[1:2]
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                positional = node.args[:1]
            else:
                continue
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] or positional
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
                    found.append(f"{node.lineno}: open for writing")
    return found


@pytest.mark.parametrize(
    "source",
    [
        "import csv",
        "def f():\n    import csv as _csv",
        "from csv import writer",
        "open('p', 'w')",
        "open('p', mode='a', encoding='utf-8')",
        "open('p', 'r+')",
        "open('p', MODE)",
        "path.open('x')",
    ],
)
def test_file_write_finder_sees_each_form(source):
    assert _file_writes(source)


def test_only_the_cli_writes_files():
    # the artifact formats are one decision: the library returns data and
    # sgfcf.cli writes every file; reading (open(p) or open(p, "rb")) is fine
    package = Path(__file__).parents[1] / "src" / "sgfcf"
    writes = {path.name: _file_writes(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert writes.pop("cli.py")
    assert {name: found for name, found in writes.items() if found} == {}
    assert _file_writes("open('p')\nopen('p', 'rb')\nopen('p', mode='r', encoding='utf-8')") == []
