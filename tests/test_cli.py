import json
import os
from pathlib import Path

import numpy as np
import pytest

from sgfcf.cli import run_command


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
        assert summary["config"]["K"] == 8
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
        assert report["config"]["epsilon"] == -0.38
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
        assert report["config"]["K"] == 4  # from file
        assert report["config"]["gamma"] == 0.1  # flag wins
        assert report["seed"] == 5

    def test_unknown_config_key(self, data_file, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bogus": 1}))
        assert run_command(["eval", "--data", data_file, "--config", str(config_path)]) == 1


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
