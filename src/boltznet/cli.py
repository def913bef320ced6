"""Experiment harness: configure, train, evaluate, persist models, and emit
metrics plus PGM visualizations.

One subcommand per model: run-rbm, run-dnn, run-dbn, run-dae, run-dbm,
run-bimodal. Every run writes the echoed config, a metrics file (one
key=value record per tuned epoch plus a summary), the trained model
container and, but for run-bimodal, a PGM visualization into the output
directory. Runs are reproducible: the same config and seed give
byte-identical metrics apart from the wall-clock fields.

Exit codes: 0 success, 1 invalid configuration or usage, 2 missing dataset
files, 3 training divergence (non-finite values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import autoencoder as ae
from . import dbm as dbm_mod
from . import dbn as dbn_mod
from . import dnn as dnn_mod
from . import multimodal as mm
from . import rbm as rbm_mod
from .core import (ConfigError, DivergenceError, LossKind, classify, loss as loss_fn,
                   make_rng)
from .data import (FormatError, make_batches, one_of_k, read_mnist_images,
                   read_mnist_labels, shuffle_paired)
from .model_io import save_model
from .optim import (AnnealKind, AnnealSchedule, DecayKind, MomentumSchedule,
                    WeightDecaySpec, _check_finite)

DEFAULT_LAYERS = {
    "rbm": [784, 500],
    "dnn": [784, 500, 300, 200, 10],
    "dbn": [784, 500, 300],
    "dae": [784, 500, 300],
    "dbm": [784, 500, 500],
    "bimodal": [784, 500, 300],
}

# JSON value types accepted for each ExperimentConfig annotation
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool,
               "list": list}


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    model: str
    layers: list
    epochs: int = 6
    num_batches: int = 100
    lr: float = 0.1
    anneal: str = "none"
    anneal_k: float = 0.0
    momentum_early: float = 0.5
    momentum_late: float = 0.9
    momentum_threshold: int = 5
    decay: str = "none"
    decay_k: float = 0.0
    dropout: float = 0.0
    denoise: float = 0.0
    gibbs: int = 1
    seed: int = 0
    fine_tune: bool = True
    data_dir: str = ""
    out_dir: str = "out"
    subset: int = 0  # 0 means the full dataset

    def validate(self) -> "ExperimentConfig":
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if len(self.layers) < 2 or any(n < 1 for n in self.layers):
            raise ConfigError("layers must list at least two positive sizes")
        if self.model == "rbm" and len(self.layers) != 2:
            raise ConfigError("an RBM takes two layer sizes, visible and hidden")
        if self.model == "dbm" and len(self.layers) < 3:
            raise ConfigError("a DBM needs at least two hidden layers")
        if self.model == "dnn" and self.layers[-1] != 10:
            raise ConfigError("a DNN's output layer needs 10 units, one per class")
        if self.num_batches < 1:
            raise ConfigError("batches must be >= 1")
        if not 0.0 <= self.denoise <= 1.0:
            raise ConfigError("denoise rate must lie in [0, 1]")
        if self.subset < 0:
            raise ConfigError("subset must be >= 0")
        self.train_config()  # the training hyperparameters and kinds check themselves
        return self

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """Strict constructor for a JSON config: unknown or missing keys and
        values of the wrong JSON type raise ConfigError; an integer is
        accepted where a float is expected."""
        try:
            cfg = cls(**raw)
        except TypeError as exc:  # not an object, or unknown or missing keys
            raise ConfigError(str(exc)) from None
        for f in fields(cls):
            value = getattr(cfg, f.name)
            ok = (isinstance(value, _JSON_TYPES[f.type])
                  and isinstance(value, bool) == (f.type == "bool"))
            if not ok or f.type == "list" and any(type(n) is not int for n in value):
                raise ConfigError(f"config key {f.name!r} must be {f.type}, "
                                  f"got {value!r}")
            if f.type == "float":
                setattr(cfg, f.name, float(value))
        return cfg

    def train_config(self) -> rbm_mod.TrainConfig:
        return rbm_mod.TrainConfig(
            epochs=self.epochs,
            lr=self.lr,
            anneal=AnnealSchedule(_kind(AnnealKind, self.anneal), self.anneal_k),
            momentum=MomentumSchedule(self.momentum_early, self.momentum_late,
                                      self.momentum_threshold),
            decay=WeightDecaySpec(_kind(DecayKind, self.decay), self.decay_k),
            dropout_rate=self.dropout,
            gibbs_steps=self.gibbs,
            seed=self.seed,
        )


def _kind(kind: type, value: str):
    """The member of the enum `kind` whose value is `value`; ConfigError
    when there is none."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"unknown {kind.__name__} {value!r}") from None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_metrics(records, path) -> None:
    """Write line-delimited key=value records; one line per record."""
    lines = []
    for rec in records:
        lines.append(" ".join(f"{k}={_format_value(v)}" for k, v in rec.items()))
    Path(path).write_text("\n".join(lines) + "\n")


def parse_metrics(path):
    """Read records back with int/float recovery."""
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = {}
        for token in line.split():
            k, _, v = token.partition("=")
            try:
                rec[k] = int(v)
            except ValueError:
                try:
                    rec[k] = float(v)
                except ValueError:
                    rec[k] = v
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# PGM export
# ---------------------------------------------------------------------------

def export_pgm(matrix, rows: int, cols: int, path) -> None:
    """Write matrix rows as a binary PGM (P5) image.

    A single row becomes one rows x cols image; several rows are tiled into
    a near-square grid. Values are mapped linearly from [min, max] of the
    whole matrix onto [0, 255]; a constant matrix becomes mid-gray.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if m.shape[1] != rows * cols:
        raise ConfigError(f"rows {m.shape[1]} values do not reshape to {rows}x{cols}")
    lo, hi = m.min(), m.max()
    if hi > lo:
        scaled = (m - lo) / (hi - lo) * 255.0
    else:
        scaled = np.full_like(m, 128.0)
    tiles = scaled.reshape(-1, rows, cols)
    n = tiles.shape[0]
    grid_cols = int(math.ceil(math.sqrt(n)))
    grid_rows = int(math.ceil(n / grid_cols))
    canvas = np.zeros((grid_rows * rows, grid_cols * cols))
    for i in range(n):
        r, c = divmod(i, grid_cols)
        canvas[r * rows:(r + 1) * rows, c * cols:(c + 1) * cols] = tiles[i]
    height, width = canvas.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.rint(canvas).astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

def load_mnist(data_dir, subset: int = 0):
    """(train_x, train_y, test_x, test_y) from the four MNIST IDX files,
    named with either `-idx` or `.idx` before the format suffix."""
    d = Path(data_dir)

    def find(stem, suffix):
        for name in (f"{stem}-{suffix}", f"{stem}.{suffix}"):
            if (d / name).exists():
                return d / name
        raise FileNotFoundError(f"none of {stem}[-.]{suffix} found in {d}")

    def pair(prefix):
        images = find(f"{prefix}-images", "idx3-ubyte")
        labels = find(f"{prefix}-labels", "idx1-ubyte")
        x, y = read_mnist_images(images), read_mnist_labels(labels)
        if len(x) != len(y):
            raise FormatError(f"{images} holds {len(x)} images, {labels} {len(y)} labels")
        return x, y

    (train_x, train_y), (test_x, test_y) = pair("train"), pair("t10k")
    if subset:
        n_test = max(1, subset // 5)
        train_x, train_y = train_x[:subset], train_y[:subset]
        test_x, test_y = test_x[:n_test], test_y[:n_test]
    return train_x, train_y, test_x, test_y


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig):
    """Build and pretrain the model per config, tune it with one record per
    epoch, score it, draw it, write the artifacts; return the summary record."""
    cfg.validate()
    data_dir = cfg.data_dir or os.environ.get("MDL_DATA_DIR", "")
    if not data_dir:
        raise FileNotFoundError("no data directory: pass --data-dir or set MDL_DATA_DIR")
    train_x, train_y, test_x, test_y = load_mnist(data_dir, cfg.subset)
    if cfg.layers[0] != train_x.shape[1]:
        raise ConfigError(f"first layer size {cfg.layers[0]} != data width {train_x.shape[1]}")
    train_onehot = one_of_k(train_y, 10)
    train_x, train_onehot = shuffle_paired(train_x, train_onehot, make_rng(cfg.seed))
    num_batches = min(cfg.num_batches, train_x.shape[0])
    batches = make_batches(train_x, train_onehot, num_batches)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(asdict(cfg), indent=2) + "\n")

    t0 = time.monotonic()
    model, tune, probe, score, picture = _RUNNERS[cfg.model](
        cfg, cfg.train_config(), batches, train_x, test_x, test_y)
    records, t_tune = [], time.monotonic()

    def hook(epoch, lr, rho):  # epoch wall_ms counts from the end of pretraining
        records.append({"record": "epoch", "epoch": epoch, "lr": lr, "momentum": rho,
                        **probe(), "wall_ms": int((time.monotonic() - t_tune) * 1000)})

    if tune:
        tune(hook=hook)
    summary = {"record": "summary", **score(), "n": test_x.shape[0]}
    if picture:
        name, draw = picture
        rows = draw()
        side = math.isqrt(rows.shape[1])
        if side * side == rows.shape[1]:
            export_pgm(rows, side, side, out_dir / name)
    _check_finite(model, cfg.model)
    summary["wall_ms"] = int((time.monotonic() - t0) * 1000)
    save_model(out_dir / "model.mdlr", model)
    emit_metrics(records + [summary], out_dir / "metrics.txt")
    if "error" in summary:
        print(f"final error rate: {summary['error']}")
    elif "recon_error" in summary:
        print(f"final reconstruction error: {summary['recon_error']}")
    return summary


def _classifier(model, predict, tune, w, batches, test_x, test_y, probe_rows=None):
    """A classifier's run: its probe is the first batch's cross entropy and
    the error on the first `probe_rows` test rows, its score the error on
    every test row, and its picture the first 100 filters of `w`.
    `predict(x)` gives the class scores."""
    probe_x, probe_y = batches[0]
    return (model, tune,
            lambda: {"loss": loss_fn(predict(probe_x), probe_y, LossKind.CROSS_ENTROPY),
                     "error": classify(predict(test_x[:probe_rows]),
                                       test_y[:probe_rows]).error_rate},
            lambda: {"error": classify(predict(test_x), test_y).error_rate},
            ("filters.pgm", lambda: w[:, :100].T))


def _run_rbm(cfg, *args):
    # one pretrained RBM under a softmax head trained on its features
    return _run_dnn(replace(cfg, layers=cfg.layers + [10], fine_tune=False), *args)


def _run_dnn(cfg, tc, batches, train_x, test_x, test_y):
    stack = dnn_mod.pretrain_stack(cfg.layers, batches, tc, pretrain=True)
    feats = dnn_mod.hidden_features(stack, batches)

    def tune(hook):  # the head's epochs are recorded when no backprop follows
        rbm_mod.train_classifier_head(stack.layers[-1], feats, tc,
                                      hook=None if cfg.fine_tune else hook)
        if cfg.fine_tune:
            dnn_mod.backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY, tc, hook=hook)
    return _classifier(stack, partial(dnn_mod.predict, stack), tune, stack.layers[0].w,
                       batches, test_x, test_y)


def _run_dbn(cfg, tc, batches, train_x, test_x, test_y):
    model = dbn_mod.pretrain_dbn(cfg.layers, batches, tc, labels=True)
    tune = partial(dbn_mod.up_down_fine_tune, model, batches, tc) if cfg.fine_tune else None
    return _classifier(model, partial(dbn_mod.predict_dbn, model), tune,
                       model.recognition[0].w if model.recognition else model.top.w,
                       batches, test_x, test_y)


def _run_dae(cfg, tc, batches, train_x, test_x, test_y):
    model = ae.build_symmetric(cfg.layers, batches, tc, denoise_rate=cfg.denoise)
    return (model,
            partial(ae.fine_tune_mse, model, batches, tc) if cfg.fine_tune else None,
            lambda: {"loss": ae.reconstruction_error(model, batches[0][0])},
            lambda: {"recon_error": ae.reconstruction_error(model, test_x)},
            ("recon.pgm", lambda: ae.reconstruct(model, test_x[:36])))


def _run_dbm(cfg, tc, batches, train_x, test_x, test_y):
    model = dbm_mod.pretrain_dbm(cfg.layers, batches, tc, labels=True)
    tune = partial(dbm_mod.mean_field_train, model, batches, tc) if cfg.fine_tune else None
    return _classifier(model, partial(dbm_mod.predict_dbm, model), tune, model.weights[0],
                       batches, test_x, test_y, probe_rows=500)


def _run_bimodal(cfg, tc, batches, train_x, test_x, test_y):
    half = train_x.shape[1] // 2
    denoise = cfg.denoise if cfg.denoise > 0 else 0.3
    model, joined_batches = mm.build_bimodal(train_x[:, :half], train_x[:, half:],
                                             cfg.layers, tc, len(batches),
                                             denoise_rate=denoise)
    # the first 50 joined rows, which may span several batches
    rows = [x for x, _ in joined_batches]
    probe_x = np.vstack(rows[:math.ceil(50 / len(rows[0]))])[:50]
    return (model,
            partial(ae.fine_tune_mse, model.ae, joined_batches, tc) if cfg.fine_tune else None,
            lambda: {"loss": ae.reconstruction_error(model.ae, probe_x)},
            lambda: {"modal_error_pct": mm.modal_error_rate(
                mm.predict_modal(model, test_x[:, :half]), test_x[:, half:])},
            None)


# model -> runner(cfg, train config, batches, train_x, test_x, test_y), which
# builds and pretrains the model and returns what run_experiment runs:
# (model, tune(hook) or None, probe(), score(), (file name, draw()) or None)
_RUNNERS = {"rbm": _run_rbm, "dnn": _run_dnn, "dbn": _run_dbn, "dae": _run_dae,
            "dbm": _run_dbm, "bimodal": _run_bimodal}
MODELS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# flags named other than their ExperimentConfig field, and flag help texts
_FLAG_NAMES = {"num_batches": "batches"}
_FLAG_HELP = {"subset": "truncate to N training rows (test gets N/5)"}


def _add_common_flags(p: argparse.ArgumentParser, model: str):
    """One flag per ExperimentConfig field after model and layers, with the
    field's default; booleans take 0 or 1."""
    p.add_argument("--layers", type=str, default=None,
                   help="comma-separated layer sizes")
    if model == "rbm":
        p.add_argument("--hidden", type=int, default=None,
                       help="hidden units (shorthand for --layers 784,N)")
    for f in fields(ExperimentConfig)[2:]:
        name = _FLAG_NAMES.get(f.name, f.name)
        kind = {"int": int, "float": float, "str": str, "bool": int}[f.type]
        choices = {"anneal": [k.value for k in AnnealKind],
                   "decay": [k.value for k in DecayKind], "fine_tune": [0, 1]}.get(f.name)
        p.add_argument("--" + name.replace("_", "-"), type=kind, choices=choices,
                       default=kind(f.default), help=_FLAG_HELP.get(f.name))
    p.add_argument("--config", type=str, default=None,
                   help="load a previously echoed config.json (other flags ignored)")


def build_parser() -> _Parser:
    parser = _Parser(prog="boltznet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for model in MODELS:
        p = sub.add_parser(f"run-{model}")
        _add_common_flags(p, model)
    return parser


def config_from_args(args) -> ExperimentConfig:
    if args.config:
        return ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    model = args.command.removeprefix("run-")
    if args.layers:
        layers = [int(s) for s in args.layers.split(",") if s]
    elif model == "rbm" and getattr(args, "hidden", None):
        layers = [784, args.hidden]
    else:
        layers = list(DEFAULT_LAYERS[model])
    values = {f.name: getattr(args, _FLAG_NAMES.get(f.name, f.name))
              for f in fields(ExperimentConfig)[2:]}
    return ExperimentConfig(model=model, layers=layers,
                            **{**values, "fine_tune": bool(args.fine_tune)})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
        run_experiment(cfg)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (FileNotFoundError, FormatError) as exc:
        print(f"missing or unreadable data: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
