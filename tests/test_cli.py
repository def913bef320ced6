import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boltznet import cli
from boltznet import dbn as dbn_mod
from boltznet.cli import (ExperimentConfig, _check_finite, emit_metrics, export_pgm,
                          load_mnist, main, parse_metrics)
from boltznet.core import ConfigError, DivergenceError, classify, make_rng
from boltznet.data import make_batches, one_of_k
from boltznet.dbm import predict_dbm, pretrain_dbm
from boltznet.dnn import predict, pretrain_stack
from boltznet.model_io import load_model
from boltznet.rbm import TrainConfig
from boltznet.synth import write_idx_labels, write_mnist_style_dir


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

    @pytest.mark.parametrize("flag", [("--momentum-early", "1.5"), ("--anneal-k", "-1"),
                                      ("--decay-k", "-1")],
                             ids=["momentum", "anneal-k", "decay-k"])
    def test_bad_schedule_caught_before_data_loads(self, tmp_path, flag):
        out = tmp_path / "o"
        assert run(["run-rbm", *flag, "--data-dir", tmp_path / "missing",
                    "--out-dir", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("model, layers", [("dbm", "784,500"), ("bimodal", "100,50"),
                                               ("dnn", "100,50,10"), ("dnn", "784,300,7"),
                                               ("rbm", "784,16,12")],
                             ids=["dbm-one-hidden", "bimodal-width", "dnn-width",
                                  "dnn-output", "rbm-three-sizes"])
    def test_layer_rules_caught_before_output(self, tiny_data_dir, tmp_path, model, layers):
        out = tmp_path / "o"
        assert run([f"run-{model}", "--layers", layers, "--data-dir", tiny_data_dir,
                    "--out-dir", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, count", [("t10k-labels-idx1-ubyte", 30),
                                             ("train-labels-idx1-ubyte", 150)],
                             ids=["test-labels", "train-labels"])
    def test_image_label_count_mismatch_is_a_data_error(self, tmp_path, capsys,
                                                        name, count):
        data, out = tmp_path / "d", tmp_path / "o"
        write_mnist_style_dir(data, n_train=200, n_test=40, seed=2)
        write_idx_labels(data / name, np.zeros(count))
        assert run(["run-dbn", "--layers", "784,16,12", "--epochs", "1",
                    "--batches", "8", "--data-dir", data, "--out-dir", out]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_fallback(self, tiny_data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MDL_DATA_DIR", str(tiny_data_dir))
        code = run(["run-rbm", "--hidden", "16", "--epochs", "1",
                    "--batches", "8", "--out-dir", tmp_path / "o"])
        assert code == 0

    # a --config file reaches only validate(): argparse choices guard the flags
    @pytest.mark.parametrize("override", [
        {"bogus": 1}, {"layers": "784,16"}, {"anneal": "bogus"}, {"decay": "bogus"},
        {"layers": [784]}, {"num_batches": 0}, {"subset": -1}, {"denoise": 1.5},
    ], ids=["unknown-key", "layers-as-string", "anneal", "decay", "one-layer",
            "no-batches", "negative-subset", "denoise-above-one"])
    def test_bad_config_json_is_invalid_configuration(self, tiny_data_dir, tmp_path,
                                                      capsys, override):
        raw = {"model": "rbm", "layers": [784, 16], "epochs": 0,
               "data_dir": str(tiny_data_dir), "out_dir": str(tmp_path / "o")}
        (tmp_path / "c.json").write_text(json.dumps({**raw, **override}))
        assert run(["run-rbm", "--config", tmp_path / "c.json"]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_three(self, tiny_data_dir, tmp_path):
        # a self-amplifying weight-decay coefficient overflows the weights
        code = run(["run-rbm", "--hidden", "16", "--epochs", "2",
                    "--batches", "8", "--decay", "l2", "--decay-k", "1e200",
                    "--lr", "1.0",
                    "--data-dir", tiny_data_dir, "--out-dir", tmp_path / "o"])
        assert code == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_stops_at_the_first_nan_sample(self, tiny_data_dir, tmp_path,
                                                      capsys):
        code = run(["run-rbm", "--hidden", "16", "--epochs", "2",
                    "--batches", "8", "--decay", "l2", "--decay-k", "1e200",
                    "--lr", "1.0",
                    "--data-dir", tiny_data_dir, "--out-dir", tmp_path / "o"])
        assert code == 3
        assert "NaN bernoulli probability" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.txt").exists()

    def test_nan_planted_after_training_exits_three(self, tiny_data_dir, tmp_path,
                                                    capsys, monkeypatch):
        # the DBN's generative weights are checked too, not only the
        # recognition and top weights
        fine_tune = dbn_mod.up_down_fine_tune

        def diverging(model, *args, **kwargs):
            fine_tune(model, *args, **kwargs)
            model.generative_w[0][0, 0] = np.inf

        monkeypatch.setattr(dbn_mod, "up_down_fine_tune", diverging)
        code = run(["run-dbn", "--layers", "784,16,12", "--epochs", "1",
                    "--batches", "8", "--data-dir", tiny_data_dir,
                    "--out-dir", tmp_path / "o"])
        assert code == 3
        assert "dbn.generative_w[0]" in capsys.readouterr().err


def _toy_batches():
    rng = make_rng(0)
    x = (rng.random((12, 4)) > 0.5).astype(float)
    y = one_of_k(rng.integers(0, 2, (12, 1)).astype(float), 2)
    return make_batches(x, y, 3)


def _dbn():
    batches = _toy_batches()
    return dbn_mod.pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1), labels=True)


def _dbm():
    batches = _toy_batches()
    return pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1), labels=True)


# every field below was skipped by the per-runner lists of weights the CLI
# used to check: (model builder, field name, the field's array)
PLANTED = [
    (lambda: pretrain_stack([4, 3, 2], _toy_batches(), TrainConfig(epochs=1)),
     "m.layers[0].b_v", lambda m: m.layers[0].b_v),
    (_dbn, "m.generative_w[0]", lambda m: m.generative_w[0]),
    (_dbn, "m.generative_b[0]", lambda m: m.generative_b[0]),
    (_dbn, "m.top.b_h", lambda m: m.top.b_h),
    (_dbm, "m.label_bias", lambda m: m.label_bias),
    (_dbm, "m.hidden_biases[1]", lambda m: m.hidden_biases[1]),
    (_dbm, "m.chain_h[1]", lambda m: m.chain_h[1]),
    (_dbm, "m.chain_y", lambda m: m.chain_y),
]


class TestFiniteCheck:
    @pytest.mark.parametrize("build, field, array", PLANTED,
                             ids=[field for _, field, _ in PLANTED])
    def test_nan_in_any_array_field_is_divergence(self, build, field, array):
        model = build()
        _check_finite(model, "m")  # the trained model itself is finite
        array(model)[0, 0] = np.nan
        with pytest.raises(DivergenceError, match=re.escape(field)):
            _check_finite(model, "m")


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

    def test_dbn_without_fine_tuning_writes_summary_only(self, tiny_data_dir, tmp_path):
        # like run-dae and run-dbm: no per-epoch records when nothing trains
        out = tmp_path / "o"
        code = run(["run-dbn", "--layers", "784,16,12", "--epochs", "2",
                    "--batches", "8", "--fine-tune", "0",
                    "--data-dir", tiny_data_dir, "--out-dir", out])
        assert code == 0
        records = parse_metrics(out / "metrics.txt")
        assert [r["record"] for r in records] == ["summary"]

    def test_bimodal_without_fine_tuning_writes_summary_only(self, tiny_data_dir,
                                                              tmp_path):
        out = tmp_path / "o"
        code = run(["run-bimodal", "--layers", "784,16,8", "--epochs", "2",
                    "--batches", "8", "--fine-tune", "0",
                    "--data-dir", tiny_data_dir, "--out-dir", out])
        assert code == 0
        records = parse_metrics(out / "metrics.txt")
        assert [r["record"] for r in records] == ["summary"]

    def test_bimodal_clamps_the_batch_count_to_the_rows(self, tiny_data_dir, tmp_path):
        # like every other runner: 100 batches of a 20-row subset become 20
        out = tmp_path / "o"
        code = run(["run-bimodal", "--layers", "784,16,8", "--epochs", "1",
                    "--subset", "20", "--batches", "100",
                    "--data-dir", tiny_data_dir, "--out-dir", out])
        assert code == 0
        assert [r["record"] for r in parse_metrics(out / "metrics.txt")] == \
            ["epoch", "summary"]

    def test_dae_run_writes_reconstruction(self, tiny_data_dir, tmp_path):
        out = tmp_path / "o"
        code = run(["run-dae", "--layers", "784,32,16", "--epochs", "1",
                    "--batches", "8", "--denoise", "0.3",
                    "--data-dir", tiny_data_dir, "--out-dir", out])
        assert code == 0
        assert (out / "recon.pgm").exists()
        summary = parse_metrics(out / "metrics.txt")[-1]
        assert "recon_error" in summary

    def test_epoch_wall_ms_counts_from_the_end_of_pretraining(self, tiny_data_dir,
                                                              tmp_path, monkeypatch):
        # a runner that builds slowly: the summary's clock counts the build,
        # the epochs' clock starts once the model is built and pretrained
        build = cli._RUNNERS["dae"]

        def slow_build(*args):
            built = build(*args)
            time.sleep(0.5)
            return built
        monkeypatch.setitem(cli._RUNNERS, "dae", slow_build)
        out = tmp_path / "o"
        assert run(["run-dae", "--layers", "784,16,8", "--epochs", "1",
                    "--batches", "8", "--data-dir", tiny_data_dir,
                    "--out-dir", out]) == 0
        epoch, summary = parse_metrics(out / "metrics.txt")
        assert epoch["wall_ms"] < 500 <= summary["wall_ms"]

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

    # model -> (layers, the saved model's class scores)
    CLASSIFIERS = {"rbm": ("784,16", predict), "dnn": ("784,16,12,10", predict),
                   "dbn": ("784,16,12", dbn_mod.predict_dbn),
                   "dbm": ("784,16,12", predict_dbm)}

    @pytest.mark.parametrize("model", list(CLASSIFIERS))
    def test_scores_are_those_of_the_saved_model(self, tiny_data_dir, tmp_path, model):
        # the summary and the last epoch score every test row of the saved model
        layers, scores = self.CLASSIFIERS[model]
        out = tmp_path / "o"
        assert run([f"run-{model}", "--layers", layers, "--epochs", "2", "--batches", "8",
                    "--data-dir", tiny_data_dir, "--out-dir", out]) == 0
        _, _, test_x, test_y = load_mnist(tiny_data_dir)
        saved = classify(scores(load_model(out / "model.mdlr"), test_x), test_y)
        *epochs, summary = parse_metrics(out / "metrics.txt")
        assert [r["epoch"] for r in epochs] == [0, 1]
        assert summary["n"] == len(test_x)
        assert summary["error"] == epochs[-1]["error"] == saved.error_rate

    def test_a_dbm_run_holds_its_data_and_model_sized_work(self, tmp_path):
        # 784-16-200 with 10 labels predicts in groups of 784*16 // 200 = 62
        # rows, so its 500-row probe and 1,000-row final score run 9 and 17
        # groups. The run holds its rows as float64 and at most twice the
        # training rows more (their shuffled copy; a training group joined
        # and settled), plus working arrays within 20 times the model's
        # size; a whole-set settle of the test rows would not fit
        d = tmp_path / "corpus"
        write_mnist_style_dir(d, n_train=200, n_test=1000, seed=3)
        tracemalloc.start()
        try:
            code = run(["run-dbm", "--layers", "784,16,200", "--epochs", "1",
                        "--batches", "4", "--data-dir", d, "--out-dir", tmp_path / "o"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        model = load_model(tmp_path / "o" / "model.mdlr")
        assert model.group_rows == 62
        train_bytes, data_bytes = 200 * 784 * 8, 1200 * 784 * 8
        model_bytes = sum(w.nbytes for w in model.weights)
        assert peak < data_bytes + 2 * train_bytes + 20 * model_bytes
