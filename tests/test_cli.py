import json
import os
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sgfcf import JacobiFilter, MarkovFilter, SgfcfConfig, SplitConfig
from sgfcf.cli import run_command
from sgfcf.model import serialize_config


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    lines = set()
    for u in range(30):
        for _ in range(rng.integers(4, 14)):
            lines.add(f"user{u}\titem{rng.integers(0, 40)}")
    path = tmp_path / "interactions.tsv"
    path.write_text("\n".join(sorted(lines)) + "\n")
    return str(path)


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
        assert os.path.exists(os.path.join(run_dir, "spectrum.csv"))
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

    @pytest.mark.parametrize(
        "argv, option",
        [(["sweep", "--K-grid", "2,x"], "--K-grid"), (["grid", "--grid-K", "4.5"], "--grid-K")],
    )
    def test_bad_number_list_fails_cleanly(self, data_file, tmp_path, capsys, argv, option):
        assert run_command(argv + ["--data", data_file, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {option}: ")

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
        assert "subcommand" in capsys.readouterr().out or True
