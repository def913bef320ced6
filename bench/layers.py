"""Per-layer metrics of the traced run.

The layers are the modules of `src/boltznet`. In a traced pass every public
function of every layer is wrapped (see spans.py); this module says which
of them are reported, which counters their spans carry, and how one
traced pass's spans become metrics. It also holds the kernel table: fixed
shapes timed in isolation, outside any pass.
"""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter

import numpy as np

import boltznet
from boltznet import (autoencoder, cli, core, data, dbm, dbn, dnn, model_io,
                      multimodal, optim, rbm)
from spans import (Tracer, child_calls, info_sum, instrumented, nested_ns,
                   totals, unattributed_ns)

LAYERS = (core, optim, rbm, dnn, dbn, autoencoder, dbm, multimodal, data,
          model_io, cli)
NAMESPACES = LAYERS + (boltznet,)

# Functions reported with .calls and .self_ms. Every public function is
# wrapped, so the self time of these excludes their wrapped callees.
REPORTED = {
    "core": ("sigmoid", "sample_bernoulli"),
    "optim": ("apply_update",),
    "rbm": ("train_binary", "train_classifier_head", "cd_step",
            "hidden_given_visible", "classify_rbm"),
    "dnn": ("pretrain_stack", "backprop_gradients", "backprop_fine_tune",
            "forward", "classify_dnn"),
    "dbn": ("pretrain_dbn", "up_down_fine_tune", "predict_dbn"),
    "autoencoder": ("build_symmetric", "fine_tune_mse", "reconstruct"),
    "multimodal": ("train_bimodal", "predict_modal"),
    "dbm": ("pretrain_dbm", "mean_field_train", "mean_field_states",
            "predict_dbm"),
    "data": ("read_mnist_images", "read_mnist_labels", "shuffle_paired",
             "make_batches"),
    "model_io": ("save_model", "load_model"),
    "cli": ("emit_metrics", "export_pgm"),
}

TRAINING = {"rbm.train_binary", "rbm.train_linear", "rbm.train_classifier_head",
            "dnn.pretrain_stack", "dnn.backprop_fine_tune", "dbn.pretrain_dbn",
            "dbn.up_down_fine_tune", "autoencoder.build_symmetric",
            "autoencoder.fine_tune_mse", "dbm.pretrain_dbm",
            "dbm.mean_field_train", "multimodal.train_bimodal"}


def is_probe(name: str) -> bool:
    """The per-epoch probes of `cli`: classification, prediction and the
    reconstruction-error probe of the autoencoders."""
    fn = name.rsplit(".", 1)[-1]
    return fn.startswith(("classify_", "predict")) or fn == "reconstruction_error"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(index, name):
    return lambda a, k, r: {"elements": int(np.size(_arg(a, k, index, name)))}


def _file_bytes(a, k, r):
    return {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}


MEASURES = {
    "core.sigmoid": _size(0, "z"),
    "core.sample_bernoulli": _size(0, "p"),
    "optim.apply_update": _size(0, "param"),
    "dbm.mean_field_states": lambda a, k, r: {
        "rows": len(_arg(a, k, 1, "data")),
        "layers": _arg(a, k, 0, "model").n_layers},
    "data.read_mnist_images": _file_bytes,
    "data.read_mnist_labels": _file_bytes,
    "model_io.save_model": _file_bytes,
    "model_io.load_model": _file_bytes,
    "cli.run_experiment": lambda a, k, r: {"model": _arg(a, k, 0, "cfg").model},
}

COUNTERS = (("core.sigmoid", "elements"), ("core.sample_bernoulli", "elements"),
            ("optim.apply_update", "elements"), ("dbm.mean_field_states", "rows"),
            ("data.read_mnist_images", "bytes"), ("data.read_mnist_labels", "bytes"),
            ("model_io.save_model", "bytes"), ("model_io.load_model", "bytes"))

# (name, unit) of the kernel table, in the order it is measured
KERNELS = (
    [(f"kernel.sigmoid.{r}x500.us", "us") for r in (50, 1000)]
    + [("kernel.sample_bernoulli.1000x500.us", "us")]
    + [(f"kernel.cd_step.{v}x{h}.b50.us", "us")
       for v, h in ((784, 500), (500, 300), (300, 200), (510, 500))]
    + [("kernel.apply_update.784x500.us", "us"),
       ("kernel.backprop_gradients.784-500-300-200-10.b50.us", "us")]
    + [(f"kernel.mean_field_states.b{r}.{k}", u) for r in (30, 1000)
       for k, u in (("us", "us"), ("sweeps", "count"))])


def per_layer_spec() -> list:
    """Every per-layer metric as (name, unit); all are lower-is-better."""
    out = []
    for module, fns in REPORTED.items():
        for fn in fns:
            out += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_ms", "ms")]
    out += [(f"{name}.{key}", "count" if key != "bytes" else "bytes")
            for name, key in COUNTERS]
    out += [("core.sigmoid.ns_per_elem", "ns"),
            ("dbm.mean_field_states.sweeps_per_call", "count")]
    out += [(f"cli.run_experiment.{m}.ms", "ms") for m in cli.MODELS]
    out += [("cli.probe_ms", "ms"), ("trace.unattributed_ms", "ms"),
            ("trace.overhead_frac", "fraction"),
            ("check.dbm_batch_flips", "count"), ("check.dbm_rows_checked", "count"),
            ("check.dbm_batch_max_dev", "prob")]
    return out + KERNELS


class PassTracer(Tracer):
    """A tracer whose `active()` block instruments every layer."""

    def active(self):
        return instrumented(self, LAYERS, NAMESPACES, MEASURES)


def pass_metrics(spans, wall_ns: int) -> dict:
    """Per-layer metrics of one traced pass whose timed blocks took
    `wall_ns` in all."""
    t = totals(spans)
    out = {}
    for module, fns in REPORTED.items():
        for fn in fns:
            s = t.get(f"{module}.{fn}", {"calls": 0, "self_ns": 0})
            out[f"{module}.{fn}.calls"] = s["calls"]
            out[f"{module}.{fn}.self_ms"] = s["self_ns"] / 1e6
    for name, key in COUNTERS:
        out[f"{name}.{key}"] = info_sum(spans, name, key)
    elements = out["core.sigmoid.elements"]
    out["core.sigmoid.ns_per_elem"] = (
        out["core.sigmoid.self_ms"] * 1e6 / elements if elements else 0.0)
    # each call runs one bottom-up pass and then one sigmoid per layer and sweep
    layers = info_sum(spans, "dbm.mean_field_states", "layers")
    out["dbm.mean_field_states.sweeps_per_call"] = (
        child_calls(spans, "dbm.mean_field_states", "core.sigmoid") / layers - 1
        if layers else 0.0)
    for m in cli.MODELS:
        out[f"cli.run_experiment.{m}.ms"] = sum(
            s.end - s.start for s in spans
            if s.name == "cli.run_experiment" and s.info.get("model") == m) / 1e6
    out["cli.probe_ms"] = nested_ns(spans, is_probe, TRAINING.__contains__) / 1e6
    out["trace.unattributed_ms"] = unattributed_ns(spans, wall_ns) / 1e6
    return out


# ---------------------------------------------------------------------------
# kernel table
# ---------------------------------------------------------------------------

def _median_us(fn, reps: int):
    """Median microseconds of `reps` calls after one warm call."""
    fn()
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times) * 1e6


def kernel_table(seed: int, train_x, train_onehot) -> dict:
    """ROADMAP item 1's kernels at fixed shapes on seeded inputs."""
    rng = np.random.default_rng([seed, 11])
    out = []
    for rows in (50, 1000):
        z = rng.normal(0.0, 4.0, (rows, 500))
        out.append(_median_us(lambda: core.sigmoid(z), 20))
    p = rng.random((1000, 500))
    out.append(_median_us(lambda: core.sample_bernoulli(p, rng), 20))
    for n_v, n_h in ((784, 500), (500, 300), (300, 200), (510, 500)):
        layer = rbm.RbmLayer.random(n_v, n_h, rng)
        batch = rng.random((50, n_v))
        out.append(_median_us(lambda: rbm.cd_step(layer, batch, 1, 0.0, rng), 20))
    w, g, v = (rng.normal(0.0, 0.01, (784, 500)) for _ in range(3))
    out.append(_median_us(lambda: optim.apply_update(w, g, v, 0.1, 0.5), 20))
    x, t = train_x[:50], train_onehot[:50]
    stack = dnn.pretrain_stack([784, 500, 300, 200, 10], [(x, t)],
                               rbm.TrainConfig(epochs=0), pretrain=False)
    out.append(_median_us(lambda: dnn.backprop_gradients(
        stack, x, t, core.LossKind.CROSS_ENTROPY), 20))
    # a DBM after one pretraining epoch on 300 rows in 30-row batches
    batches = data.make_batches(train_x[:300], train_onehot[:300], 10)
    model = dbm.pretrain_dbm([784, 500, 500], batches,
                             rbm.TrainConfig(epochs=1, seed=0), labels=batches)
    for rows, reps in ((30, 10), (1000, 2)):
        xs = train_x[:rows]
        out.append(_median_us(lambda: dbm.mean_field_states(model, xs), reps))
        out.append(len(dbm.mean_field_states(model, xs, return_history=True)[2]))
    return {name: value for (name, _), value in zip(KERNELS, out)}
