"""The benchmark's three workloads, their output checks and their
end-to-end metrics.

Every workload is a closed loop with one client in one process: it trains
models through the `boltznet` command-line entry point, reloads the saved
containers, and answers a seeded stream of prediction requests against
them, one request at a time. The workloads differ in which models they
train and where the time goes:

    train-stack  rbm, dnn, dbn, dae and bimodal, retrained every pass;
                 CD-k, the momentum update, backprop, up-down and the MSE
                 fine-tune dominate, and no DBM code runs.
    train-dbm    the 784-500-500 DBM with 10 labels, retrained every pass;
                 the mean-field settle and the persistent chains dominate.
    serve        all six models, trained once in preparation; the request
                 stream dominates, with no update and no CD in the passes.

A pass is one set-up (IDX read, one-of-K, shuffle, batching and the
`load_model` of every saved model), the training (train-* only) and one
round of requests. Passes repeat until the run's seconds are used, after
one discarded warm-up, and the metrics are medians over passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from boltznet import autoencoder as ae
from boltznet import cli, data, model_io, synth
from boltznet import dbm as dbm_mod
from boltznet import dbn as dbn_mod
from boltznet import dnn as dnn_mod
from boltznet import multimodal as mm
from boltznet.core import LossKind, loss, make_rng, sigmoid

N_TRAIN = 2400
N_TEST = 1500
BULK_ROWS = 1000
CHECK_EVERY = 100  # requests timed back to back before their responses are checked
SMALL_SIZES = (1, 30)
CLASSIFIERS = ("rbm", "dnn", "dbn", "dbm")
# name -> unit of every end-to-end metric, in the order BENCHMARK.json lists them
END_TO_END = {"setup_s": "s", "train_s": "s", "test_error": "fraction",
              "recon_mse": "mse", "modal_error_pct": "%", "request_ms_p50": "ms",
              "request_ms_p99": "ms", "bulk_rows_per_s": "rows/s",
              "peak_rss_mb": "MB"}
TRAIN_SEED = 0   # the seed of every training run
CORPUS_SEED = 0  # the training images; the workload seed draws the test images
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import boltznet; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class TrainSpec:
    """One `boltznet run-*` configuration and the models trained with it."""

    models: tuple
    batches: int
    epochs: int


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple             # TrainSpec per model group
    retrain: bool            # train in every pass, or once in preparation
    requests: int            # at least this many 1- and 30-row requests per round
    share_30: float          # fraction of those with 30 rows
    bulk: int                # 1000-row requests per model per round

    @property
    def models(self):
        return tuple(m for s in self.specs for m in s.models)


# 50-row batches for the stacked models (the shape of criteria 04/05) and
# 30-row batches for the DBM (the shape of criterion 08).
STACK = TrainSpec(("rbm", "dnn", "dbn", "dae", "bimodal"), batches=48, epochs=2)
DBM = TrainSpec(("dbm",), batches=80, epochs=2)

WORKLOADS = {
    w.name: w for w in (
        # small requests are cheap here, so many: p99 then has 60 beyond it
        Workload("train-stack", (STACK,), retrain=True,
                 requests=3000, share_30=0.3, bulk=3),
        # DBM requests cost 5 ms at 1 row and 40 ms at 30 rows, so the
        # stream leans on single rows to stay a minor part of the pass.
        Workload("train-dbm", (DBM,), retrain=True,
                 requests=500, share_30=0.06, bulk=2),
        Workload("serve", (STACK, DBM), retrain=False,
                 requests=500, share_30=0.3, bulk=1),
    )
}


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def _labels(probs):
    return probs, probs.argmax(axis=1)


# model -> predict. A response is (raw output, labels); labels are None for
# the two reconstruction models.
SERVE = {
    "rbm": lambda m, x: _labels(dnn_mod.predict(m, x)),
    "dnn": lambda m, x: _labels(dnn_mod.predict(m, x)),
    "dbn": lambda m, x: _labels(dbn_mod.predict_dbn(m, x)),
    "dbm": lambda m, x: _labels(dbm_mod.predict_dbm(m, x)),
    "dae": lambda m, x: (ae.reconstruct(m, x), None),
    "bimodal": lambda m, x: (mm.predict_modal(m, x), None),
}


def _payload(model: str, x):
    """The bimodal model is given the left half of each image."""
    return x[:, :x.shape[1] // 2] if model == "bimodal" else x


def make_round(wl: Workload, seed: int, index: int, n_test: int):
    """One round of requests, (model, row indices), in a seeded order.

    The mix is fixed, so only the rows and the order vary with the seed:
    every model gets the same number of small requests, `share_30` of them
    with 30 rows, then one or more 1000-row requests at the end."""
    rng = np.random.default_rng([seed, 7, index])
    per_model = -(-wl.requests // len(wl.models))
    n_30 = round(per_model * wl.share_30)
    sizes = [SMALL_SIZES[1]] * n_30 + [SMALL_SIZES[0]] * (per_model - n_30)
    small = [(m, size) for m in wl.models for size in sizes]
    out = [(m, rng.choice(n_test, size, replace=False))
           for m, size in (small[i] for i in rng.permutation(len(small)))]
    for model in wl.models:
        for _ in range(wl.bulk):
            out.append((model, rng.choice(n_test, BULK_ROWS, replace=False)))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def strip_wall(text: str) -> str:
    """metrics.txt without its timing fields, which alone may differ."""
    return re.sub(r" ?wall_ms=\d+", "", text)


def check_artifacts(out_dir: Path, scratch: Path) -> list:
    """Problems with one training run's artifacts: the container must load,
    hold only finite values and save back to the same bytes."""
    problems = []
    path = out_dir / "model.mdlr"
    model = model_io.load_model(path)
    if not all(np.all(np.isfinite(a)) for a in _arrays(model)):
        problems.append(f"{out_dir.name}: non-finite weights")
    copy = scratch / f"{out_dir.name}-roundtrip.mdlr"
    model_io.save_model(copy, model)
    if copy.read_bytes() != path.read_bytes():
        problems.append(f"{out_dir.name}: save/load round trip changed bytes")
    copy.unlink()
    return problems


def check_response(model: str, raw, labels, ref, rows) -> tuple:
    """(well formed and consistent, DBM label flips, DBM deviation) for one
    response.

    Each response must match the whole-set prediction of the same rows:
    labels exactly, reconstructions to 1e-9. The DBM's output depends on
    the batch (its mean-field stopping rule is shared by the batch), so its
    label flips and its largest probability deviation are counted, not
    failed.
    """
    raw = np.asarray(raw)
    expect = ref[rows]
    if raw.shape != expect.shape or not np.all(np.isfinite(raw)):
        return False, 0, 0.0
    if labels is None:
        return bool(np.abs(raw - expect).max() <= 1e-9), 0, 0.0
    if raw.min() < 0 or raw.max() > 1 or not np.allclose(raw.sum(axis=1), 1.0):
        return False, 0, 0.0
    flips = int((labels != expect.argmax(axis=1)).sum())
    if model == "dbm":
        return True, flips, float(np.abs(raw - expect).max())
    return flips == 0, 0, 0.0


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload.

    `new_tracer`, when given, makes the per-pass tracer of a traced run
    (see bench/layers.py): every second pass runs its timed blocks inside
    `tracer.active()`, and `passes` keeps each pass's tracer with its
    block walls.
    """

    def __init__(self, wl: Workload, seed: int, root: Path, work: Path,
                 new_tracer=None):
        self.wl, self.seed, self.root, self.work = wl, seed, root, work
        self.new_tracer = new_tracer
        self.prep_root = work / "prep"
        self.attempted = 0
        self.failures = []
        self.dbm_flips = 0
        self.dbm_rows = 0
        self.dbm_max_dev = 0.0
        self.passes = []          # per pass: (block walls, tracer or None)
        self.latencies = []       # seconds, 1- and 30-row requests
        self.bulk_rows = 0
        self.bulk_seconds = 0.0
        self.models = {}          # name -> loaded model
        self.refs = {}            # name -> whole-test-set output
        self.first_artifacts = {}
        self.quality = {}

    # -- inputs ------------------------------------------------------------

    def make_corpus(self):
        """The training images are fixed, as a real dataset is; the
        workload seed draws the test images, which the requests use.

        With the training images drawn from the seed too, the trained DBM,
        and with it its test error and mean-field sweep counts, varied by
        up to 2x between seeds."""
        self.data_dir = self.work / "corpus"
        synth.write_mnist_style_dir(self.data_dir, N_TRAIN, 1,
                                    seed=CORPUS_SEED)
        _, _, test_x, test_y = synth.make_digit_corpus(0, N_TEST, seed=[self.seed, 1])
        synth.write_idx_images(self.data_dir / "t10k-images-idx3-ubyte", test_x)
        synth.write_idx_labels(self.data_dir / "t10k-labels-idx1-ubyte", test_y)
        _, _, self.test_x, self.test_y = cli.load_mnist(self.data_dir)

    def train_set(self):
        """(train rows, one-of-K labels) of the corpus."""
        train_x, train_y, _, _ = cli.load_mnist(self.data_dir)
        return train_x, data.one_of_k(train_y, 10)

    def import_seconds(self) -> float:
        """Median time to import the package in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        times = [float(subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=self.root,
            capture_output=True, text=True, timeout=120, check=True).stdout)
            for _ in range(IMPORT_PROBES)]
        return median(times)

    def data_setup(self):
        """The set-up the command-line runs perform before training."""
        train_x, onehot = self.train_set()
        for spec in self.wl.specs:
            x, y = data.shuffle_paired(train_x, onehot, make_rng(TRAIN_SEED))
            data.make_batches(x, y, spec.batches)

    # -- training ----------------------------------------------------------

    def train(self, out_root: Path, warm: bool = False):
        """Run every model of the workload through `boltznet run-*`."""
        for spec in self.wl.specs:
            for model in spec.models:
                argv = [f"run-{model}", "--seed", str(TRAIN_SEED),
                        "--data-dir", str(self.data_dir),
                        "--out-dir", str(out_root / model)]
                if warm:
                    argv += ["--epochs", "1", "--subset", "300", "--batches", "6"]
                else:
                    argv += ["--epochs", str(spec.epochs),
                             "--batches", str(spec.batches)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if not warm:
                    self.attempted += 1
                    if code != 0:
                        self.failures.append(f"run-{model} exited {code}")

    def check_training(self, out_root: Path):
        """Artifact checks, and byte-identical reruns under one seed."""
        for model in self.wl.models:
            out_dir = out_root / model
            if not (out_dir / "model.mdlr").exists():
                continue  # the failed exit is already counted
            problems = check_artifacts(out_dir, self.work)
            artifacts = (strip_wall((out_dir / "metrics.txt").read_text()),
                         (out_dir / "model.mdlr").read_bytes())
            first = self.first_artifacts.setdefault(model, artifacts)
            if artifacts != first:
                problems.append(f"run-{model}: rerun with the same seed differs")
            if problems:
                self.failures.append("; ".join(problems))

    # -- serving -----------------------------------------------------------

    def load_models(self, out_root: Path):
        self.models = {m: model_io.load_model(out_root / m / "model.mdlr")
                       for m in self.wl.models}

    def reference(self, out_root: Path):
        """Whole-test-set outputs of every model, the quality metrics, and
        the check that the reloaded models reproduce what training reported."""
        x, y = self.test_x, self.test_y.reshape(-1).astype(int)
        for m, model in self.models.items():
            if m == "dbm":
                mus, self.refs[m] = dbm_mod.mean_field_states(model, x)
                dbm_visible = sigmoid(mus[0] @ model.weights[0].T + model.visible_bias)
            else:
                self.refs[m] = SERVE[m](model, _payload(m, x))[0]
        measured = {m: float((self.refs[m].argmax(axis=1) != y).mean())
                    for m in self.models if m in CLASSIFIERS}
        test_error = float(np.mean(list(measured.values())))
        if "dae" in self.models:
            recon = measured["dae"] = loss(self.refs["dae"], x, LossKind.MSE)
        else:  # the DBM's mean-field reconstruction of the visible layer
            recon = loss(dbm_visible, x, LossKind.MSE)
        if "bimodal" in self.models:
            modal = measured["bimodal"] = mm.modal_error_rate(
                self.refs["bimodal"], x[:, x.shape[1] // 2:])
        else:  # image -> label units, the DBM's second modality
            modal = mm.modal_error_rate(self.refs["dbm"], data.one_of_k(self.test_y, 10))
        for m, value in measured.items():
            key = {"dae": "recon_error", "bimodal": "modal_error_pct"}.get(m, "error")
            reported = cli.parse_metrics(out_root / m / "metrics.txt")[-1][key]
            if not np.isclose(value, reported, rtol=1e-12, atol=0):
                self.failures.append(f"{m}: reloaded model gives {key} {value}, "
                                     f"training reported {reported}")
        self.quality = {"test_error": test_error, "recon_mse": float(recon),
                        "modal_error_pct": float(modal)}

    def serve_round(self, requests, block):
        """Answer the requests one at a time. Each chunk is checked after it
        is timed, so the responses are not all held at once."""
        for first in range(0, len(requests), CHECK_EVERY):
            chunk = [(m, rows, _payload(m, self.test_x[rows]))
                     for m, rows in requests[first:first + CHECK_EVERY]]
            responses = []
            with block("serve"):
                for m, rows, x in chunk:
                    t0 = time.perf_counter()
                    raw, labels = SERVE[m](self.models[m], x)
                    responses.append((time.perf_counter() - t0, raw, labels))
            for (m, rows, _), (seconds, raw, labels) in zip(chunk, responses):
                self.attempted += 1
                ok, flips, dev = check_response(m, raw, labels, self.refs[m], rows)
                self.dbm_flips += flips
                self.dbm_max_dev = max(self.dbm_max_dev, dev)
                self.dbm_rows += len(rows) if m == "dbm" else 0
                if not ok:
                    self.failures.append(f"{m}: bad response to {len(rows)} rows")
                if len(rows) == BULK_ROWS:
                    self.bulk_rows += len(rows)
                    self.bulk_seconds += seconds
                else:
                    self.latencies.append(seconds)

    # -- passes --------------------------------------------------------------

    def one_pass(self, index: int, traced: bool):
        walls = {"setup": 0.0, "train": 0.0, "serve": 0.0}
        tracer = self.new_tracer() if traced else None

        @contextlib.contextmanager
        def block(kind):
            with tracer.active() if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                yield
                walls[kind] += time.perf_counter() - t0

        walls["import"] = self.import_seconds()
        out_root = self.work / f"pass{index}" if self.wl.retrain else self.prep_root
        with block("setup"):
            self.data_setup()
        if self.wl.retrain:
            with block("train"):
                self.train(out_root)
            self.check_training(out_root)
        with block("setup"):
            self.load_models(out_root)
        if not self.refs:
            self.reference(out_root)
        # a traced pass replays the round of the untraced pass before it
        round_index = index // 2 if self.new_tracer else index
        self.serve_round(make_round(self.wl, self.seed, round_index, N_TEST), block)
        self.passes.append((walls, tracer))

    def run(self, seconds: float):
        self.make_corpus()
        # warm-up, discarded: the first training in a process runs slower
        warm = self.work / "warm"
        self.train(warm, warm=True)
        if not self.wl.retrain:
            t0 = time.perf_counter()
            self.train(self.prep_root)
            self.prep_train_s = time.perf_counter() - t0
            self.check_training(self.prep_root)
        self.data_setup()
        self.load_models(self.prep_root if not self.wl.retrain else warm)
        for m, model in self.models.items():
            SERVE[m](model, _payload(m, self.test_x[:30]))
        start = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - start < seconds:
            self.one_pass(index, traced=bool(self.new_tracer) and index % 2 == 1)
            index += 1

    # -- results -------------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict:
        plain = [walls for walls, tracer in self.passes if tracer is None]
        setup = median(p["import"] for p in plain) + median(p["setup"] for p in plain)
        train = (median(p["train"] for p in plain) if self.wl.retrain
                 else self.prep_train_s)
        lat = np.array(self.latencies) * 1e3
        values = {
            "setup_s": setup,
            "train_s": train,
            **self.quality,
            "request_ms_p50": float(np.percentile(lat, 50)),
            "request_ms_p99": float(np.percentile(lat, 99)),
            "bulk_rows_per_s": self.bulk_rows / self.bulk_seconds,
            "peak_rss_mb": peak_rss_mb,
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}
