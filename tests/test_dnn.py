import numpy as np
import pytest

from boltznet.core import ActivationKind, LossKind, ShapeError, loss, make_rng
from boltznet.data import make_batches, one_of_k
from boltznet.dnn import (LayerStack, backprop_fine_tune, backprop_gradients,
                          classify_dnn, forward, hidden_features, predict,
                          pretrain_stack)
from boltznet.oracle import finite_difference_gradient
from boltznet.rbm import RbmLayer, TrainConfig, hidden_given_visible


def toy_batches(seed=0, n=24, dim=5, classes=2, num_batches=3):
    rng = make_rng(seed)
    data = rng.random((n, dim))
    labels = one_of_k(rng.integers(0, classes, (n, 1)).astype(float), classes)
    return make_batches(data, labels, num_batches)


def randomized_stack(sizes, seed, last_softmax=True):
    cfg = TrainConfig(epochs=0, seed=seed)
    stack = pretrain_stack(sizes, toy_batches(dim=sizes[0]), cfg, pretrain=False)
    rng = make_rng(seed + 100)
    for layer in stack.layers:
        layer.w = layer.w + rng.normal(0, 0.6, layer.w.shape)
        layer.b_h = layer.b_h + rng.normal(0, 0.2, layer.b_h.shape)
    return stack


class TestPretrainStack:
    def test_no_pretraining_is_seeded_random_init(self):
        batches = toy_batches()
        cfg = TrainConfig(epochs=3, seed=9)
        a = pretrain_stack([5, 4, 3], batches, cfg, pretrain=False)
        b = pretrain_stack([5, 4, 3], batches, cfg, pretrain=False)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.w, lb.w)

    def test_dimension_chain(self):
        stack = pretrain_stack([5, 7, 4, 3], toy_batches(), TrainConfig(epochs=1, seed=1))
        assert stack.sizes == [5, 7, 4, 3]
        for lower, upper in zip(stack.layers, stack.layers[1:]):
            assert lower.n_h == upper.n_v

    def test_output_layer_is_softmax(self):
        stack = pretrain_stack([5, 4, 2], toy_batches(), TrainConfig(epochs=0, seed=2),
                               pretrain=False)
        assert stack.layers[-1].activation == ActivationKind.SOFTMAX

    def test_pretraining_changes_hidden_layers_only_from_init(self):
        batches = toy_batches()
        cfg = TrainConfig(epochs=4, lr=0.3, seed=3)
        trained = pretrain_stack([5, 4, 2], batches, cfg, pretrain=True)
        init = pretrain_stack([5, 4, 2], batches, cfg, pretrain=False)
        assert not np.allclose(trained.layers[0].w, init.layers[0].w)
        np.testing.assert_array_equal(trained.layers[-1].w, init.layers[-1].w)


class TestForward:
    def test_zero_parameters_give_half(self):
        layers = [RbmLayer(w=np.zeros((4, 3)), b_v=np.zeros((1, 4)),
                           b_h=np.zeros((1, 3)))]
        trace = forward(LayerStack(layers), make_rng(0).random((6, 4)))
        assert np.all(trace.a[-1] == 0.5)

    def test_single_layer_matches_rbm_conditional(self):
        rng = make_rng(4)
        layer = RbmLayer(w=rng.normal(size=(4, 3)), b_v=np.zeros((1, 4)),
                         b_h=rng.normal(size=(1, 3)))
        x = rng.random((5, 4))
        trace = forward(LayerStack([layer]), x)
        np.testing.assert_array_equal(trace.a[-1], hidden_given_visible(layer, x))

    def test_trace_shapes(self):
        stack = randomized_stack([5, 6, 4, 3], seed=5)
        x = make_rng(6).random((7, 5))
        trace = forward(stack, x)
        assert [a.shape for a in trace.a] == [(7, 5), (7, 6), (7, 4), (7, 3)]
        assert [z.shape for z in trace.z] == [(7, 6), (7, 4), (7, 3)]

    def test_width_mismatch(self):
        stack = randomized_stack([5, 4, 3], seed=7)
        with pytest.raises(ShapeError):
            forward(stack, np.zeros((2, 9)))


class TestBackprop:
    @pytest.mark.parametrize("hidden_kind", [ActivationKind.SIGMOID,
                                             ActivationKind.TANH])
    def test_gradients_match_finite_differences(self, hidden_kind):
        rng = make_rng(8)
        x = rng.random((6, 5))
        t = one_of_k(rng.integers(0, 2, (6, 1)).astype(float), 2)
        stack = randomized_stack([5, 3, 2], seed=8)
        for layer in stack.layers[:-1]:
            layer.activation = hidden_kind
        grads = backprop_gradients(stack, x, t, LossKind.CROSS_ENTROPY)
        params = [p for layer in stack.layers for p in (layer.w, layer.b_h)]

        def objective(ps):
            for i, layer in enumerate(stack.layers):
                layer.w, layer.b_h = ps[2 * i], ps[2 * i + 1]
            return loss(predict(stack, x), t, LossKind.CROSS_ENTROPY)

        fd = finite_difference_gradient(objective, params)
        objective(params)
        for i in range(len(stack.layers)):
            for j in (0, 1):
                a, b = grads[i][j], fd[2 * i + j]
                rel = np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)
                assert rel < 1e-5

    def test_zero_epochs_is_identity(self):
        stack = randomized_stack([5, 4, 2], seed=9)
        before = [l.w.copy() for l in stack.layers]
        backprop_fine_tune(stack, toy_batches(), toy_batches(), LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=0, seed=0))
        for w, layer in zip(before, stack.layers):
            np.testing.assert_array_equal(w, layer.w)

    def test_perfect_predictions_freeze_parameters(self):
        # cross entropy delta is c - t; velocities stay zero when they match
        stack = randomized_stack([3, 2], seed=10)
        x = make_rng(11).random((4, 3))
        c = predict(stack, x)
        before = stack.layers[-1].w.copy()
        backprop_fine_tune(stack, [(x, c)], [(x, c)], LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=3, lr=0.5, seed=1))
        np.testing.assert_allclose(stack.layers[-1].w, before, atol=1e-12)

    def test_small_lr_moves_parameters_proportionally(self):
        batches = toy_batches()
        deltas = []
        for lr in (1e-6, 2e-6):
            stack = randomized_stack([5, 4, 2], seed=12)
            w0 = stack.layers[0].w.copy()
            backprop_fine_tune(stack, batches, batches, LossKind.CROSS_ENTROPY,
                               TrainConfig(epochs=1, lr=lr, seed=2))
            deltas.append(stack.layers[0].w - w0)
        np.testing.assert_allclose(deltas[1], 2.0 * deltas[0], rtol=1e-3)

    def test_loss_trend_on_separable_toy(self):
        rng = make_rng(13)
        x = np.vstack([rng.normal(0.2, 0.05, (40, 4)), rng.normal(0.8, 0.05, (40, 4))])
        t = one_of_k(np.array([[0.0]] * 40 + [[1.0]] * 40), 2)
        batches = make_batches(x, t, 8)
        stack = pretrain_stack([4, 5, 2], batches, TrainConfig(epochs=0, seed=14),
                               pretrain=False)
        losses = []
        backprop_fine_tune(stack, batches, batches, LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=30, lr=0.1, seed=3),
                           hook=lambda e, lr, rho: losses.append(
                               loss(predict(stack, x), t, LossKind.CROSS_ENTROPY)))
        assert losses[-1] < losses[0]


class TestClassify:
    def test_overfits_tiny_memorization_set(self):
        rng = make_rng(15)
        x = rng.random((10, 6))
        labels = np.arange(10, dtype=float).reshape(-1, 1) % 3
        t = one_of_k(labels, 3)
        stack = pretrain_stack([6, 16, 3], [(x, t)], TrainConfig(epochs=0, seed=16),
                               pretrain=False)
        backprop_fine_tune(stack, [(x, t)], [(x, t)], LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=400, lr=0.5, seed=4))
        report = classify_dnn(stack, x, labels)
        assert report.error_rate == 0.0

    def test_report_counts(self):
        stack = randomized_stack([4, 3, 2], seed=17)
        x = make_rng(18).random((8, 4))
        labels = make_rng(19).integers(0, 2, (8, 1)).astype(float)
        report = classify_dnn(stack, x, labels)
        assert report.n_samples == 8
        assert report.confusion.sum() == 8


def test_hidden_features_stops_before_head():
    stack = randomized_stack([5, 4, 2], seed=20)
    batches = toy_batches()
    feats = hidden_features(stack, batches)
    assert all(f.shape[1] == 4 for f in feats)
