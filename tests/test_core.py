import tracemalloc

import numpy as np
import pytest

from boltznet.autoencoder import build_symmetric, reconstruct, reconstruction_error
from boltznet.core import (ActivationKind, ConfigError, DivergenceError, DomainError,
                           LossKind, ShapeError, activate, activation_derivative,
                           classify, group_rows, in_row_groups, loss, loss_derivative,
                           make_rng, matrix, sample_bernoulli, sigmoid)
from boltznet.data import make_batches, one_of_k
from boltznet.dbm import predict_dbm, pretrain_dbm
from boltznet.dbn import predict_dbn, pretrain_dbn
from boltznet.dnn import LayerStack, forward, predict, pretrain_stack
from boltznet.multimodal import build_bimodal, predict_modal
from boltznet.rbm import RbmLayer, TrainConfig

SIG = ActivationKind.SIGMOID


class TestActivate:
    def test_sigmoid_at_zero(self):
        assert activate(matrix([0.0]), SIG)[0, 0] == 0.5

    def test_sigmoid_ln3(self):
        np.testing.assert_allclose(activate(matrix([np.log(3)]), SIG), [[0.75]],
                                   atol=1e-15)

    def test_softmax_uniform(self):
        out = activate(matrix([1.0, 1.0, 1.0, 1.0]), ActivationKind.SOFTMAX)
        np.testing.assert_allclose(out, [[0.25] * 4], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        z = make_rng(0).normal(0, 10, (50, 7))
        out = activate(z, ActivationKind.SOFTMAX)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_extreme_inputs_stay_finite(self):
        out = activate(matrix([1e300, -1e300, 0.0]), ActivationKind.SOFTMAX)
        assert np.all(np.isfinite(out))

    def test_sigmoid_open_interval(self):
        # strictly inside (0, 1) within the float64-resolvable range
        z = make_rng(1).uniform(-36, 36, (1, 10000))
        out = activate(z, SIG)
        assert out.min() > 0.0 and out.max() < 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            activate(matrix([0.0]), "not-a-kind")

    @pytest.mark.parametrize("kind", [ActivationKind.TANH, ActivationKind.RELU,
                                      ActivationKind.LEAKY_RELU,
                                      ActivationKind.IDENTITY])
    def test_shapes_preserved(self, kind):
        z = make_rng(2).normal(size=(3, 5))
        assert activate(z, kind).shape == (3, 5)


def masked_sigmoid(z):
    """The sigmoid split by sign with boolean-mask gathers and scatters, so
    exp never overflows: the reference the in-place kernel must equal."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoidReference:
    EDGES = [800.0, -800.0, 40.0, -40.0, 0.0, -0.0, np.inf, -np.inf,
             1e-300, -1e-300, 5e-324, -5e-324]

    @pytest.mark.parametrize("scale", [1.0, 5.0, 40.0, 800.0])
    def test_bitwise_on_random_normals(self, scale):
        z = make_rng(31).normal(0.0, scale, (60, 70))
        z[0, :len(self.EDGES)] = self.EDGES
        got, want = sigmoid(z), masked_sigmoid(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        inplace = z.copy()
        assert sigmoid(inplace, out=inplace) is inplace
        np.testing.assert_array_equal(inplace.view(np.int64), want.view(np.int64))

    def test_bitwise_on_edge_values(self):
        z = matrix(self.EDGES)
        np.testing.assert_array_equal(sigmoid(z).view(np.int64),
                                      masked_sigmoid(z).view(np.int64))

    def test_input_is_not_modified(self):
        z = make_rng(32).normal(0.0, 5.0, (4, 6))
        before = z.copy()
        sigmoid(z)
        np.testing.assert_array_equal(z.view(np.int64), before.view(np.int64))

    def test_nan_maps_to_nan(self):
        out = sigmoid(matrix([np.nan, -np.nan, 0.0]))
        assert np.isnan(out[0, 0]) and np.isnan(out[0, 1]) and out[0, 2] == 0.5


class TestActivationDerivative:
    def test_sigmoid_peak(self):
        assert activation_derivative(matrix([0.5]), SIG)[0, 0] == 0.25

    def test_sigmoid_at_zero_activation(self):
        assert activation_derivative(matrix([0.0]), SIG)[0, 0] == 0.0

    def test_sigmoid_at_three_quarters(self):
        np.testing.assert_allclose(
            activation_derivative(matrix([0.75]), SIG), [[0.1875]], atol=1e-15)

    def test_softmax_rejected(self):
        with pytest.raises(ConfigError):
            activation_derivative(matrix([0.5]), ActivationKind.SOFTMAX)

    @pytest.mark.parametrize("kind", [SIG, ActivationKind.TANH,
                                      ActivationKind.LEAKY_RELU,
                                      ActivationKind.IDENTITY])
    def test_matches_finite_differences(self, kind):
        # derivative rule (in terms of the activation) against a central
        # difference of the activation itself; the piecewise-linear kinds are
        # checked away from their kink at zero
        z = np.linspace(-10, 10, 400).reshape(1, -1)
        z = z[np.abs(z) > 1e-3].reshape(1, -1)
        h = 1e-6
        numeric = (activate(z + h, kind) - activate(z - h, kind)) / (2 * h)
        analytic = activation_derivative(activate(z, kind), kind)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestLoss:
    def test_mse_zero_on_equal(self):
        p = make_rng(3).random((4, 6))
        assert loss(p, p.copy(), LossKind.MSE) == 0.0

    def test_mse_half_square(self):
        assert loss(matrix([1.0, 0.0]), matrix([0.0, 0.0]), LossKind.MSE) == 0.5

    def test_cross_entropy_uniform(self):
        p = matrix([0.25, 0.25, 0.25, 0.25])
        t = matrix([0.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(loss(p, t, LossKind.CROSS_ENTROPY), np.log(4),
                                   atol=1e-12)

    def test_cross_entropy_zero_pred_guarded(self):
        val = loss(matrix([0.0, 1.0]), matrix([1.0, 0.0]), LossKind.CROSS_ENTROPY)
        assert np.isfinite(val)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss(np.zeros((2, 3)), np.zeros((3, 2)), LossKind.MSE)

    def test_binary_counts_mismatches(self):
        p = matrix([0.9, 0.1, 0.8])
        t = matrix([1.0, 1.0, 0.0])
        assert loss(p, t, LossKind.BINARY) == 2.0

    @pytest.mark.parametrize("kind", [LossKind.MSE, LossKind.CROSS_ENTROPY,
                                      LossKind.ABSOLUTE])
    def test_derivative_matches_finite_differences(self, kind):
        rng = make_rng(4)
        pred = rng.uniform(0.1, 0.9, (3, 4))
        target = rng.uniform(0.1, 0.9, (3, 4))
        if kind == LossKind.CROSS_ENTROPY:
            target = target / target.sum(axis=1, keepdims=True)
        analytic = loss_derivative(pred, target, kind)
        h = 1e-7
        numeric = np.zeros_like(pred)
        for i in range(pred.shape[0]):
            for j in range(pred.shape[1]):
                up, dn = pred.copy(), pred.copy()
                up[i, j] += h
                dn[i, j] -= h
                numeric[i, j] = (loss(up, target, kind) - loss(dn, target, kind)) / (2 * h)
        denom = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / denom < 1e-6

    def test_binary_has_no_derivative(self):
        with pytest.raises(ConfigError):
            loss_derivative(matrix([0.5]), matrix([1.0]), LossKind.BINARY)

    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.name)
    def test_zero_rows_are_a_domain_error(self, kind):
        # a mean over no rows is 0/0, not a NaN with a warning or an empty derivative
        for fn in (loss, loss_derivative):
            with pytest.raises(DomainError, match="at least one row"):
                fn(np.zeros((0, 3)), np.zeros((0, 3)), kind)


class TestSampleBernoulli:
    def test_all_ones(self):
        p = np.ones((5, 5))
        assert np.all(sample_bernoulli(p, make_rng(0)) == 1.0)

    def test_all_zeros(self):
        p = np.zeros((5, 5))
        assert np.all(sample_bernoulli(p, make_rng(0)) == 0.0)

    def test_law_of_large_numbers(self):
        p = np.full((1, 100000), 0.7)
        s = sample_bernoulli(p, make_rng(42))
        assert abs(s.mean() - 0.7) < 0.01

    def test_reproducible(self):
        p = make_rng(5).random((20, 20))
        a = sample_bernoulli(p, make_rng(9))
        b = sample_bernoulli(p, make_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            sample_bernoulli(matrix([1.5]), make_rng(0))

    def test_nan_is_divergence_not_a_zero_sample(self):
        with pytest.raises(DivergenceError):
            sample_bernoulli(matrix([[np.nan, 0.5]]), make_rng(0))
        # outside the ValueError family, so the CLI maps it to its own exit code
        assert not issubclass(DivergenceError, ValueError)


def test_classification_report_counts():
    rep = classify(one_of_k(np.array([[0], [1], [2], [1]]), 3), [[0], [1], [1], [1]])
    assert rep.n_samples == 4
    assert rep.error_rate == 0.25
    assert rep.confusion[1, 2] == 1
    assert rep.confusion.sum() == 4


@pytest.fixture(scope="module")
def tiny_classifiers():
    """Each classifier's prediction function bound to a tiny 4-visible,
    3-class model; `classify` scores its output. The RBM classifier is the
    stack [RBM, softmax head], as the CLI builds it."""
    rng = make_rng(7)
    x = (rng.random((12, 4)) > 0.5).astype(float)
    batches = make_batches(x, one_of_k(rng.integers(0, 3, (12, 1)), 3), 2)
    cfg = TrainConfig(epochs=1, seed=8)
    rbm = LayerStack([RbmLayer.random(4, 3, rng),
                      RbmLayer.random(3, 3, rng, activation=ActivationKind.SOFTMAX)])
    stack = pretrain_stack([4, 3, 3], batches, cfg)
    dbn = pretrain_dbn([4, 3, 2], batches, cfg, labels=True)
    dbm = pretrain_dbm([4, 3, 2], batches, cfg, labels=True)
    return {"rbm": lambda d: predict(rbm, d), "dnn": lambda d: predict(stack, d),
            "dbn": lambda d: predict_dbn(dbn, d), "dbm": lambda d: predict_dbm(dbm, d)}


@pytest.mark.parametrize("kind", ["rbm", "dnn", "dbn", "dbm"])
@pytest.mark.parametrize("rows, labels, error", [
    (2, [0, -1], DomainError), (2, [0, 3], DomainError), (2, [0, 2.5], DomainError),
    (0, [], DomainError), (3, [0, 1], ShapeError),
], ids=["negative", "k", "fractional", "zero-rows", "row-count"])
def test_every_classifier_scores_class_indices_in_range(tiny_classifiers, kind, rows,
                                                        labels, error):
    """One class index in [0, K) per data row, and at least one row."""
    scores = tiny_classifiers[kind](np.ones((rows, 4)))
    with pytest.raises(error):
        classify(scores, np.array(labels, float).reshape(-1, 1))


@pytest.fixture(scope="module")
def tiny_predictors():
    """Each prediction entry point bound to a tiny model with 4 inputs."""
    rng = make_rng(9)
    x = (rng.random((12, 4)) > 0.5).astype(float)
    batches = make_batches(x, one_of_k(rng.integers(0, 3, (12, 1)), 3), 2)
    cfg = TrainConfig(epochs=1, seed=10)
    stack = pretrain_stack([4, 3, 3], batches, cfg)
    dbn = pretrain_dbn([4, 3, 2], batches, cfg, labels=True)
    dbm = pretrain_dbm([4, 3, 2], batches, cfg, labels=True)
    dae = build_symmetric([4, 3], batches, cfg)
    bimodal, _ = build_bimodal(x[:, :2], x[:, 2:], [4, 3], cfg, 2)
    return {"predict": lambda d: predict(stack, d),
            "predict_dbn": lambda d: predict_dbn(dbn, d),
            "predict_dbm": lambda d: predict_dbm(dbm, d),
            "reconstruct": lambda d: reconstruct(dae, d),
            "predict_modal": lambda d: predict_modal(bimodal, d[:, :2])}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", ["predict", "predict_dbn", "predict_dbm", "reconstruct",
                                   "predict_modal", "rbm", "dnn", "dbn", "dbm"])
def test_every_prediction_rejects_non_finite_input(tiny_predictors, tiny_classifiers,
                                                   entry, value):
    """A NaN or infinite input value is the caller's error: no scores come
    out of it, and no classifier counts its argmax."""
    data = np.full((2, 4), 0.5)
    data[1, 1] = value
    with pytest.raises(DomainError, match="non-finite"):
        if entry in tiny_classifiers:
            classify(tiny_classifiers[entry](data), np.zeros((2, 1)))
        else:
            tiny_predictors[entry](data)


def test_row_groups_pass_one_group_through_and_split_more():
    """At most one group is one call on the caller's own array; more rows
    run as views of consecutive groups into one output."""
    seen = []

    def twice_first_column(part):
        seen.append(part)
        return part[:, :1] * 2.0

    x = np.arange(14.0).reshape(7, 2)
    in_row_groups(twice_first_column, x, 7)
    assert len(seen) == 1 and seen[0] is x
    seen.clear()
    out = in_row_groups(twice_first_column, x, 3)
    assert [len(p) for p in seen] == [3, 3, 1] and all(np.shares_memory(p, x) for p in seen)
    np.testing.assert_array_equal(out, x[:, :1] * 2.0)
    assert group_rows([np.zeros((6, 4)), np.zeros((4, 2))], [4, 2]) == 6


SIX_MODELS = ["rbm", "dnn", "dbn", "dae", "dbm", "bimodal"]


@pytest.fixture(scope="module")
def grouped_nets():
    """The six models on 60-wide rows, by name. Every weight is redrawn at
    std 0.3, so outputs vary from row to row and the DBM's rows settle in
    different sweep counts."""
    rng = make_rng(11)
    x = (rng.random((40, 60)) > 0.5).astype(float)
    batches = make_batches(x, one_of_k(rng.integers(0, 10, (40, 1)), 10), 4)
    cfg = TrainConfig(epochs=0, seed=12)
    rbm = pretrain_stack([60, 50, 10], batches, cfg)
    dnn = pretrain_stack([60, 50, 40, 10], batches, cfg)
    dbn = pretrain_dbn([60, 50, 40], batches, cfg, labels=True)
    dae = build_symmetric([60, 50, 40], batches, cfg)
    dbm = pretrain_dbm([60, 50, 50], batches, cfg, labels=True)
    bimodal, _ = build_bimodal(x[:, :30], x[:, 30:], [60, 50, 40], cfg, 4)
    stacks = [rbm, dnn, dae.stack, bimodal.ae.stack]
    for w in ([l.w for s in stacks for l in s.layers] + dbm.weights + dbn.generative_w
              + [l.w for l in dbn.recognition + [dbn.top]]):
        w[...] = rng.normal(0.0, 0.3, w.shape)
    return {"rbm": rbm, "dnn": dnn, "dbn": dbn, "dae": dae, "dbm": dbm, "bimodal": bimodal}


@pytest.fixture(scope="module")
def grouped_models(grouped_nets):
    """Each of `grouped_nets`' prediction entry points on 60-wide rows,
    with its rows per prediction group: name -> (predict(x), rows)."""
    rbm, dnn, dbn, dae, dbm, bimodal = (grouped_nets[n] for n in SIX_MODELS)
    return {"rbm": (lambda d: predict(rbm, d), rbm.group_rows),
            "dnn": (lambda d: predict(dnn, d), dnn.group_rows),
            "dbn": (lambda d: predict_dbn(dbn, d), dbn.group_rows),
            "dae": (lambda d: reconstruct(dae, d), dae.stack.group_rows),
            "dbm": (lambda d: predict_dbm(dbm, d), dbm.group_rows),
            "bimodal": (lambda d: predict_modal(bimodal, d[:, :30]),
                        bimodal.ae.stack.group_rows)}


@pytest.mark.parametrize("name", SIX_MODELS)
def test_grouped_predictions_do_not_depend_on_batching(grouped_models, name):
    """Over 2.5 groups of rows, the prediction equals each row's own and
    each one-group slice's, wherever the slice starts."""
    run, rows = grouped_models[name]
    x = make_rng(13).random((5 * rows // 2 + 7, 60))
    whole = run(x)
    assert whole.shape[0] == len(x)
    singles = np.vstack([run(x[i:i + 1]) for i in range(len(x))])
    np.testing.assert_allclose(whole, singles, rtol=0, atol=1e-12)
    for start in (0, rows // 3, len(x) - rows):
        np.testing.assert_allclose(whole[start:start + rows], run(x[start:start + rows]),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", SIX_MODELS)
def test_a_prediction_works_in_one_group_of_memory(grouped_models, name):
    """On eight groups of rows, the traced peak stays below the output plus
    one group's own peak and half again, where a whole-set pass would hold
    eight groups' activations."""
    run, rows = grouped_models[name]
    x = make_rng(14).random((8 * rows, 60))
    run(x[:rows])  # warm-up: first-call allocations are not a group's

    def traced_peak(part):
        tracemalloc.start()
        try:
            out = run(part)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, one_group = traced_peak(x[:rows])
    out, every_group = traced_peak(x)
    assert every_group < out.nbytes + 1.5 * one_group


def every_activation_output(layers, x):
    """The last activation of a forward pass that keeps every activation,
    each formed beside its pre-activation."""
    a = x
    for layer in layers:
        a = activate(a @ layer.w + layer.b_h, layer.activation)
    return a


def top_rbm_label_slots(model, x):
    """`predict_dbn` with the joined input built by `np.hstack` and no array
    written in place."""
    h = x
    for layer in model.recognition:
        h = sigmoid(h @ layer.w + layer.b_h)
    top_v = np.hstack([h, np.zeros((len(h), model.label_dim))])
    h = sigmoid(top_v @ model.top.w + model.top.b_h)
    slots = sigmoid(h @ model.top.w.T + model.top.b_v)[:, model.feature_dim:]
    return slots / np.maximum(slots.sum(axis=1, keepdims=True), 1e-300)


def zero_filled_modal_output(model, x):
    """`predict_modal` with the joined input built by `np.hstack`."""
    a = x[:, :model.dim_a]
    joined = np.hstack([model.scale_a.forward(a), np.zeros((len(a), model.dim_b))])
    recon = every_activation_output(model.ae.stack.layers, joined)
    return model.scale_b.inverse(recon[:, model.dim_a:])


EVERY_ACTIVATION_FORMULAS = {
    "rbm": lambda net, x: every_activation_output(net.layers, x),
    "dnn": lambda net, x: every_activation_output(net.layers, x),
    "dbn": top_rbm_label_slots,
    "dae": lambda net, x: every_activation_output(net.stack.layers, x),
    "bimodal": zero_filled_modal_output,
}


@pytest.mark.parametrize("groups", [1, 2.5])
@pytest.mark.parametrize("name", EVERY_ACTIVATION_FORMULAS)
def test_predictions_equal_the_every_activation_formulas_bitwise(grouped_nets,
                                                                 grouped_models, name,
                                                                 groups):
    """Holding one activation and writing each sigmoid in place leaves every
    output bit for bit as the formulas that keep every activation, on one
    group of rows and on 2.5 groups run in the same row groups."""
    run, rows = grouped_models[name]
    net, formula = grouped_nets[name], EVERY_ACTIVATION_FORMULAS[name]
    x = make_rng(15).random((int(groups * rows), 60))
    expected = in_row_groups(lambda part: formula(net, part), x, rows)
    np.testing.assert_array_equal(run(x), expected)
    if name in ("rbm", "dnn", "dae"):
        stack = getattr(net, "stack", net)
        np.testing.assert_array_equal(
            in_row_groups(lambda part: forward(stack, part)[-1], x, rows), expected)


def traced(run):
    """(run(), the traced peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# kind of `wide_models` -> (predict(model, x), rows per group, input width,
# widths of the activations the prediction computes, bottom first)
WIDE_PREDICTIONS = {
    "stack": lambda m: (predict, m.group_rows, m.sizes[0], m.sizes),
    "dbn": lambda m: (predict_dbn, m.group_rows, m.input_dim,
                      [m.input_dim] + [l.n_h for l in m.recognition]
                      + [m.top.n_v, m.top.n_h, m.top.n_v]),
    "ae": lambda m: (reconstruct, m.stack.group_rows, m.sizes[0], m.sizes),
    "bimodal": lambda m: (predict_modal, m.ae.stack.group_rows, m.dim_a, m.ae.sizes),
}


@pytest.mark.parametrize("kind", WIDE_PREDICTIONS)
def test_a_group_holds_its_input_output_and_two_adjacent_activations(wide_models, kind):
    """At bench width, one group's traced peak, its input made inside the
    trace, stays at most its input, its output and the widest two adjacent
    activations of the prediction, plus 64 kB. Keeping every activation, or
    a sigmoid's result beside its pre-activation, goes beyond it."""
    model = wide_models[kind]
    run, rows, width, widths = WIDE_PREDICTIONS[kind](model)
    x = make_rng(16).random((rows, width))
    run(model, x)  # warm-up: first-call allocations are not a group's
    out, peak = traced(lambda: run(model, x.copy()))
    pair = max(a + b for a, b in zip(widths, widths[1:]))
    assert peak <= x.nbytes + out.nbytes + 8 * rows * pair + 2**16


def test_reconstruction_error_holds_one_reconstruction(wide_models):
    """Over eight groups, `reconstruction_error`'s traced peak stays at most
    the reconstruction's bytes and one group's `reconstruct` peak, plus
    64 kB: the error is formed in the reconstruction's own buffer. Its value
    is `core.loss`'s MSE of the reconstruction bit for bit."""
    model = wide_models["ae"]
    rows = model.stack.group_rows
    x = make_rng(17).random((8 * rows, model.sizes[0]))
    reconstruct(model, x[:rows])  # warm-up
    _, one_group = traced(lambda: reconstruct(model, x[:rows]))
    error, peak = traced(lambda: reconstruction_error(model, x))
    assert peak <= x.nbytes + one_group + 2**16
    assert error == loss(reconstruct(model, x), x, LossKind.MSE)
