import numpy as np
import pytest

from boltznet.core import (ActivationKind, ConfigError, DivergenceError, DomainError,
                           LossKind, ShapeError, activate, classify, loss, make_rng)
from boltznet.data import make_batches, one_of_k
from boltznet.dnn import (LayerStack, _backprop, backprop_fine_tune, backprop_gradients,
                          forward, hidden_features, predict, pretrain_stack)
from boltznet.optim import DecayKind, WeightDecaySpec
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

    @pytest.mark.parametrize("pretrain", [True, False])
    def test_empty_batch_list_is_domain_error(self, pretrain):
        with pytest.raises(DomainError, match="at least one batch"):
            pretrain_stack([5, 4, 2], [], TrainConfig(epochs=1, seed=4),
                           pretrain=pretrain)


class TestForward:
    def test_zero_parameters_give_half(self):
        layers = [RbmLayer(w=np.zeros((4, 3)), b_v=np.zeros((1, 4)),
                           b_h=np.zeros((1, 3)))]
        trace = forward(LayerStack(layers), make_rng(0).random((6, 4)))
        assert np.all(trace[-1] == 0.5)

    def test_single_layer_matches_rbm_conditional(self):
        rng = make_rng(4)
        layer = RbmLayer(w=rng.normal(size=(4, 3)), b_v=np.zeros((1, 4)),
                         b_h=rng.normal(size=(1, 3)))
        x = rng.random((5, 4))
        trace = forward(LayerStack([layer]), x)
        np.testing.assert_array_equal(trace[-1], hidden_given_visible(layer, x))

    @pytest.mark.parametrize("kind", list(ActivationKind), ids=lambda k: k.name)
    def test_one_layer_is_activate_of_the_affine_map(self, kind):
        rng = make_rng(8)
        layer = RbmLayer(w=rng.normal(size=(4, 3)), b_v=np.zeros((1, 4)),
                         b_h=rng.normal(size=(1, 3)), activation=kind)
        v = rng.random((5, 4))
        ref = activate(v @ layer.w + layer.b_h, kind)
        np.testing.assert_array_equal(hidden_given_visible(layer, v), ref)
        np.testing.assert_array_equal(forward(LayerStack([layer]), v)[1], ref)

    def test_trace_shapes(self):
        stack = randomized_stack([5, 6, 4, 3], seed=5)
        x = make_rng(6).random((7, 5))
        trace = forward(stack, x)
        assert [a.shape for a in trace] == [(7, 5), (7, 6), (7, 4), (7, 3)]

    def test_width_mismatch(self):
        stack = randomized_stack([5, 4, 3], seed=7)
        with pytest.raises(ShapeError):
            forward(stack, np.zeros((2, 9)))
        # a single row and a 3-D array are not rows, even when shape[1] fits
        for bad in (np.zeros(5), np.zeros((2, 5, 3))):
            with pytest.raises(ShapeError, match="2-D rows"):
                predict(stack, bad)


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

    def test_lr_folded_into_the_operand_matches_the_scaled_gradient(self):
        # trainers form lr * dW as a^T (delta / (m / lr)). With |a| <= 1 the
        # m products of a weight gradient's sum total at most lr times the
        # largest |delta| of its unit: 1 at the softmax output, and below it
        # a quarter (the sigmoid's slope) of the summed |W| the unit feeds.
        # Folded or not, each side errs from the exact value by at most
        # (m + 2) u times that total, u = eps / 2 (m for the sum, two for the
        # operand's scaling and the product with lr), so they agree within
        # (m + 2) eps times it. The bias gradients are the mean times lr
        # either way, bit for bit.
        m, lr = 50, 0.1
        rng = make_rng(73)
        x = rng.random((m, 784))
        t = one_of_k(rng.integers(0, 10, (m, 1)).astype(float), 10)
        stack = pretrain_stack([784, 500, 10], [(x, t)], TrainConfig(epochs=0, seed=74),
                               pretrain=False)
        for layer in stack.layers:
            layer.w += rng.normal(0.0, 0.1, layer.w.shape)
        dws = [np.empty_like(layer.w) for layer in stack.layers]
        dbs = [np.empty_like(layer.b_h) for layer in stack.layers]
        _backprop(stack, x, t, LossKind.CROSS_ENTROPY, dws, dbs, lr)
        unscaled = backprop_gradients(stack, x, t, LossKind.CROSS_ENTROPY)
        largest_delta = [0.25 * np.abs(stack.layers[1].w).sum(axis=1), 1.0]
        for dw, db, (dw1, db1), d in zip(dws, dbs, unscaled, largest_delta, strict=True):
            assert np.all(np.abs(dw - lr * dw1) <= (m + 2) * np.finfo(float).eps * lr * d)
            assert db.tobytes() == (lr * db1).tobytes()

    def test_consecutive_calls_return_fresh_arrays_and_leave_the_stack(self):
        rng = make_rng(48)
        x = rng.random((6, 5))
        t = one_of_k(rng.integers(0, 2, (6, 1)).astype(float), 2)
        stack = randomized_stack([5, 3, 2], seed=48)
        arrays = [a for layer in stack.layers for a in (layer.w, layer.b_h)]
        before = [a.copy() for a in arrays]
        a, b = ([g for pair in backprop_gradients(stack, x, t, LossKind.CROSS_ENTROPY)
                 for g in pair] for _ in range(2))
        for ga in a:
            for other in b + arrays:
                assert not np.shares_memory(ga, other)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga, gb)
        for now, then in zip(arrays, before):
            np.testing.assert_array_equal(now, then)

    def test_gradient_batch_is_checked(self):
        # a 1-row target is not broadcast over the batch, nor a narrow one
        # left to numpy
        rng = make_rng(49)
        x = rng.random((8, 5))
        t = one_of_k(rng.integers(0, 2, (8, 1)).astype(float), 2)
        stack = randomized_stack([5, 3, 2], seed=49)
        with pytest.raises(DomainError):
            backprop_gradients(stack, x[:0], t[:0], LossKind.CROSS_ENTROPY)
        for bx, bt in ((x, t[:1]), (x, t[:, :1]), (x[:, :4], t)):
            with pytest.raises(ShapeError):
                backprop_gradients(stack, bx, bt, LossKind.CROSS_ENTROPY)

    def test_zero_epochs_is_identity(self):
        stack = randomized_stack([5, 4, 2], seed=9)
        before = [l.w.copy() for l in stack.layers]
        backprop_fine_tune(stack, toy_batches(), LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=0, seed=0))
        for w, layer in zip(before, stack.layers):
            np.testing.assert_array_equal(w, layer.w)

    def test_perfect_predictions_freeze_parameters(self):
        # cross entropy delta is c - t; velocities stay zero when they match
        stack = randomized_stack([3, 2], seed=10)
        x = make_rng(11).random((4, 3))
        c = predict(stack, x)
        before = stack.layers[-1].w.copy()
        backprop_fine_tune(stack, [(x, c)], LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=3, lr=0.5, seed=1))
        np.testing.assert_allclose(stack.layers[-1].w, before, atol=1e-12)

    def test_small_lr_moves_parameters_proportionally(self):
        batches = toy_batches()
        deltas = []
        for lr in (1e-6, 2e-6):
            stack = randomized_stack([5, 4, 2], seed=12)
            w0 = stack.layers[0].w.copy()
            backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY,
                               TrainConfig(epochs=1, lr=lr, seed=2))
            deltas.append(stack.layers[0].w - w0)
        np.testing.assert_allclose(deltas[1], 2.0 * deltas[0], rtol=1e-3)

    @pytest.mark.parametrize("loss_kind, out_kind, message", [
        (LossKind.CROSS_ENTROPY, ActivationKind.SIGMOID, "softmax output layer"),
        (LossKind.MSE, ActivationKind.SOFTMAX, "handled jointly with cross entropy"),
        (LossKind.ABSOLUTE, ActivationKind.SOFTMAX, "unsupported fine-tuning loss"),
    ], ids=["cross-entropy-on-sigmoid", "mse-on-softmax", "absolute"])
    def test_loss_output_pairing_is_checked_without_epochs(self, loss_kind, out_kind,
                                                           message):
        # the pairing is checked once before training, not per batch
        stack = randomized_stack([5, 4, 2], seed=23)
        stack.layers[-1].activation = out_kind
        with pytest.raises(ConfigError, match=message):
            backprop_fine_tune(stack, toy_batches(), loss_kind, TrainConfig(epochs=0))

    @pytest.mark.parametrize("bad", ["wide", "short"])
    def test_targets_are_checked_before_the_first_update(self, bad):
        stack = randomized_stack([5, 4, 2], seed=21)
        before = [(l.w.copy(), l.b_h.copy()) for l in stack.layers]
        batches = toy_batches()
        x, y = batches[-1]
        batches[-1] = (x, np.hstack([y, 0 * y[:, :1]]) if bad == "wide" else y[:-1])
        with pytest.raises(ShapeError):
            backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY,
                               TrainConfig(epochs=1, lr=0.5, seed=5))
        for (w, b), layer in zip(before, stack.layers):
            np.testing.assert_array_equal(layer.w, w)
            np.testing.assert_array_equal(layer.b_h, b)

    def test_bare_batches_are_rejected(self):
        # a batch is an (x, y) pair; a bare x is not fine-tuned against itself
        stack = randomized_stack([5, 4, 5], seed=22)
        w = stack.layers[0].w.copy()
        with pytest.raises(ValueError):
            backprop_fine_tune(stack, [toy_batches()[0][0]], LossKind.CROSS_ENTROPY,
                               TrainConfig(epochs=1, lr=0.5, seed=6))
        np.testing.assert_array_equal(stack.layers[0].w, w)

    def test_loss_trend_on_separable_toy(self):
        rng = make_rng(13)
        x = np.vstack([rng.normal(0.2, 0.05, (40, 4)), rng.normal(0.8, 0.05, (40, 4))])
        t = one_of_k(np.array([[0.0]] * 40 + [[1.0]] * 40), 2)
        batches = make_batches(x, t, 8)
        stack = pretrain_stack([4, 5, 2], batches, TrainConfig(epochs=0, seed=14),
                               pretrain=False)
        losses = []
        backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY,
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
        backprop_fine_tune(stack, [(x, t)], LossKind.CROSS_ENTROPY,
                           TrainConfig(epochs=400, lr=0.5, seed=4))
        report = classify(predict(stack, x), labels)
        assert report.error_rate == 0.0

    def test_report_counts(self):
        stack = randomized_stack([4, 3, 2], seed=17)
        x = make_rng(18).random((8, 4))
        labels = make_rng(19).integers(0, 2, (8, 1)).astype(float)
        report = classify(predict(stack, x), labels)
        assert report.n_samples == 8
        assert report.confusion.sum() == 8


def test_hidden_features_stops_before_head():
    stack = randomized_stack([5, 4, 2], seed=20)
    batches = toy_batches()
    feats = hidden_features(stack, batches)
    assert all(f.shape[1] == 4 for f, _ in feats)
    assert all(y is b[1] for (_, y), b in zip(feats, batches))


def test_hidden_features_match_the_per_layer_chain_bit_for_bit():
    stack = randomized_stack([5, 4, 3, 2], seed=21)
    stack.layers[1].activation = ActivationKind.TANH
    batches = toy_batches()
    for (f, _), (x, _) in zip(hidden_features(stack, batches), batches):
        below = hidden_given_visible(stack.layers[0], x)
        np.testing.assert_array_equal(f, hidden_given_visible(stack.layers[1], below))


def test_backprop_divergence_raises_at_its_epoch_before_the_hook():
    # a huge L2 penalty overflows the weights within epoch 0; no Bernoulli
    # sample is drawn, so only the epoch loop's finiteness check sees it
    cfg = TrainConfig(epochs=6, lr=1.0, decay=WeightDecaySpec(DecayKind.L2, 1e200))
    batches = toy_batches(dim=6, classes=3)
    stack = pretrain_stack([6, 5, 3], batches, cfg, pretrain=False)
    hooks = []
    with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                  match="after epoch 0"):
        backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY, cfg,
                           hook=lambda *rec: hooks.append(rec))
    assert hooks == []
