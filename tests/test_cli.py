import json
from pathlib import Path

import numpy as np
import pytest

from boltznet.cli import (ExperimentConfig, emit_metrics, export_pgm, main,
                          parse_metrics)
from boltznet.core import ConfigError
from boltznet.synth import write_mnist_style_dir


@pytest.fixture(scope="module")
def tiny_data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tinymnist")
    write_mnist_style_dir(d, n_train=400, n_test=80, seed=2)
    return d


def run(args):
    return main([str(a) for a in args])


class TestMetrics:
    def test_round_trip(self, tmp_path):
        records = [
            {"record": "epoch", "epoch": 0, "lr": 0.1, "momentum": 0.5,
             "loss": 1.2345678901234567, "error": 0.25, "wall_ms": 12},
            {"record": "summary", "error": 0.125, "n": 80, "wall_ms": 99},
        ]
        emit_metrics(records, tmp_path / "metrics.txt")
        back = parse_metrics(tmp_path / "metrics.txt")
        assert back == records

    def test_one_line_per_record(self, tmp_path):
        emit_metrics([{"a": 1}, {"b": 2.5}], tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert lines == ["a=1", "b=2.5"]


class TestExportPgm:
    def test_single_image_header(self, tmp_path):
        export_pgm(np.array([[0.0, 0.5, 0.5, 1.0]]), 2, 2, tmp_path / "img.pgm")
        raw = (tmp_path / "img.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert len(raw) == len(b"P5\n2 2\n255\n") + 4

    def test_constant_matrix_constant_gray(self, tmp_path):
        export_pgm(np.full((1, 9), 0.7), 3, 3, tmp_path / "img.pgm")
        raw = (tmp_path / "img.pgm").read_bytes()
        body = raw.split(b"\n", 3)[3]
        assert len(set(body)) == 1

    def test_tiling_multiple_rows(self, tmp_path):
        export_pgm(np.random.default_rng(0).random((5, 4)), 2, 2, tmp_path / "img.pgm")
        raw = (tmp_path / "img.pgm").read_bytes()
        # five 2x2 tiles pack into a 3x2 grid of tiles: 6x4 pixels
        assert raw.startswith(b"P5\n6 6\n255\n") or raw.startswith(b"P5\n6 4\n255\n")

    def test_reshape_mismatch(self, tmp_path):
        with pytest.raises(ConfigError):
            export_pgm(np.zeros((1, 5)), 2, 2, tmp_path / "img.pgm")


class TestConfig:
    def test_validation_catches_bad_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="vae", layers=[4, 2]).validate()

    def test_serializes_to_json(self, tmp_path):
        from dataclasses import asdict

        cfg = ExperimentConfig(model="rbm", layers=[784, 16], epochs=1)
        text = json.dumps(asdict(cfg))
        back = ExperimentConfig(**json.loads(text))
        assert back == cfg


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["run-rbm", "--frobnicate", "1"]) == 1

    def test_missing_data_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MDL_DATA_DIR", raising=False)
        assert run(["run-rbm", "--epochs", "0", "--out-dir", tmp_path / "o"]) == 2

    def test_missing_files(self, tmp_path):
        assert run(["run-rbm", "--epochs", "0", "--data-dir", tmp_path,
                    "--out-dir", tmp_path / "o"]) == 2

    def test_invalid_config(self, tiny_data_dir, tmp_path):
        assert run(["run-rbm", "--epochs", "-3", "--data-dir", tiny_data_dir,
                    "--out-dir", tmp_path / "o"]) == 1

    def test_env_var_fallback(self, tiny_data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MDL_DATA_DIR", str(tiny_data_dir))
        code = run(["run-rbm", "--hidden", "16", "--epochs", "1",
                    "--batches", "8", "--out-dir", tmp_path / "o"])
        assert code == 0

    @pytest.mark.parametrize("override", [{"bogus": 1}, {"layers": "784,16"}],
                             ids=["unknown-key", "layers-as-string"])
    def test_bad_config_json_is_invalid_configuration(self, tiny_data_dir, tmp_path,
                                                      capsys, override):
        raw = {"model": "rbm", "layers": [784, 16], "epochs": 0,
               "data_dir": str(tiny_data_dir), "out_dir": str(tmp_path / "o")}
        (tmp_path / "c.json").write_text(json.dumps({**raw, **override}))
        assert run(["run-rbm", "--config", tmp_path / "c.json"]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_three(self, tiny_data_dir, tmp_path):
        # a self-amplifying weight-decay coefficient overflows the weights
        code = run(["run-rbm", "--hidden", "16", "--epochs", "2",
                    "--batches", "8", "--decay", "l2", "--decay-k", "1e200",
                    "--lr", "1.0",
                    "--data-dir", tiny_data_dir, "--out-dir", tmp_path / "o"])
        assert code == 3


class TestRuns:
    def test_epochs_zero_emits_baseline(self, tiny_data_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["run-rbm", "--hidden", "16", "--epochs", "0",
                    "--batches", "8", "--data-dir", tiny_data_dir,
                    "--out-dir", out])
        assert code == 0
        records = parse_metrics(out / "metrics.txt")
        assert len(records) == 1
        assert records[0]["record"] == "summary"
        assert (out / "model.mdlr").exists()
        assert (out / "config.json").exists()

    def test_record_count_is_epochs_plus_summary(self, tiny_data_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["run-rbm", "--hidden", "16", "--epochs", "3",
                    "--batches", "8", "--data-dir", tiny_data_dir,
                    "--out-dir", out])
        assert code == 0
        records = parse_metrics(out / "metrics.txt")
        assert len(records) == 4
        assert [r["epoch"] for r in records[:-1]] == [0, 1, 2]
        assert all("loss" in r and "error" in r for r in records[:-1])

    def test_dae_run_writes_reconstruction(self, tiny_data_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["run-dae", "--layers", "784,32,16", "--epochs", "1",
                    "--batches", "8", "--denoise", "0.3",
                    "--data-dir", tiny_data_dir, "--out-dir", out])
        assert code == 0
        assert (out / "recon.pgm").exists()
        summary = parse_metrics(out / "metrics.txt")[-1]
        assert "recon_error" in summary

    def test_config_echo_reruns_identically(self, tiny_data_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run-rbm", "--hidden", "16", "--epochs", "2", "--batches", "8",
                "--seed", "5", "--data-dir", tiny_data_dir]
        assert run(args + ["--out-dir", out1]) == 0
        # rerun from the echoed config
        cfg = json.loads((out1 / "config.json").read_text())
        cfg["out_dir"] = str(out2)
        (tmp_path / "echo.json").write_text(json.dumps(cfg))
        assert run(["run-rbm", "--config", tmp_path / "echo.json"]) == 0

        def strip_wall(path):
            return [
                " ".join(t for t in line.split() if not t.startswith("wall_ms="))
                for line in Path(path, "metrics.txt").read_text().splitlines()
            ]

        assert strip_wall(out1) == strip_wall(out2)

    def test_subset_truncates(self, tiny_data_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["run-rbm", "--hidden", "8", "--epochs", "1", "--batches", "4",
                    "--subset", "100", "--data-dir", tiny_data_dir,
                    "--out-dir", out])
        assert code == 0
        summary = parse_metrics(out / "metrics.txt")[-1]
        assert summary["n"] == 20
