import numpy as np
import pytest

from boltznet.core import (ActivationKind, ConfigError, DivergenceError, DomainError,
                           LossKind, ShapeError, make_rng, sigmoid)
from boltznet.data import make_batches, one_of_k
from boltznet.dnn import LayerStack, backprop_gradients
from boltznet.optim import DecayKind, WeightDecaySpec
from boltznet.oracle import (exact_conditional, exact_likelihood_gradient,
                             exact_partition, finite_difference_gradient,
                             _rbm_energy_grid)
from boltznet.rbm import (CdGradients, RbmLayer, TrainConfig, _cd_gradients, cd_step,
                          classify_rbm, energy, free_energy, hidden_given_visible,
                          mean_free_energy, train_binary, train_classifier_head,
                          train_linear, visible_given_hidden)


def zero_rbm(n_v, n_h):
    return RbmLayer(w=np.zeros((n_v, n_h)), b_v=np.zeros((1, n_v)),
                    b_h=np.zeros((1, n_h)))


def random_rbm(n_v, n_h, seed, scale=0.8):
    rng = make_rng(seed)
    return RbmLayer(w=rng.normal(0, scale, (n_v, n_h)),
                    b_v=rng.normal(0, scale, (1, n_v)),
                    b_h=rng.normal(0, scale, (1, n_h)))


def assert_checked_before_update(train, arrays, batches, error):
    """`train(batches)` raises `error` and leaves every array as it was."""
    before = [a.copy() for a in arrays]
    with pytest.raises(error):
        train(batches)
    for a, b in zip(arrays, before):
        np.testing.assert_array_equal(a, b)


def bad_last_batch(case, n_v=5, n=12):
    """Three binary batches n_v wide whose last one is 4 wide or has no rows."""
    batches = make_batches((make_rng(41).random((n, n_v)) > 0.5).astype(float), None, 3)
    x, y = batches[-1]
    batches[-1] = (x[:, :4], y) if case == "width" else (x[:0], y)
    return batches, ShapeError if case == "width" else DomainError


def assert_unaliased(first, second, model_arrays):
    """No array of one gradient result shares memory with the other's or
    with the model's."""
    for a in first:
        for b in list(second) + list(model_arrays):
            assert not np.shares_memory(a, b)


class TestConditionals:
    def test_zero_model_gives_half(self):
        out = hidden_given_visible(zero_rbm(3, 2), np.ones((4, 3)))
        assert np.all(out == 0.5)
        out = visible_given_hidden(zero_rbm(3, 2), np.ones((4, 2)))
        assert np.all(out == 0.5)

    def test_single_weight_ln3(self):
        rbm = zero_rbm(1, 1)
        rbm.w[0, 0] = np.log(3)
        np.testing.assert_allclose(hidden_given_visible(rbm, [[1.0]]), [[0.75]],
                                   atol=1e-15)

    def test_tied_weight_symmetry(self):
        rbm = random_rbm(3, 2, seed=0)
        flipped = RbmLayer(w=rbm.w.T.copy(), b_v=rbm.b_h.copy(), b_h=rbm.b_v.copy())
        h = make_rng(1).random((5, 2))
        np.testing.assert_array_equal(visible_given_hidden(rbm, h),
                                      hidden_given_visible(flipped, h))

    def test_matches_oracle_enumeration(self):
        rbm = random_rbm(3, 2, seed=2)
        v = np.array([[1.0, 0.0, 1.0]])
        marg = exact_conditional(rbm, visible=v[0]).marginals()
        np.testing.assert_allclose(hidden_given_visible(rbm, v)[0], marg,
                                   atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            hidden_given_visible(zero_rbm(3, 2), np.ones((1, 4)))
        with pytest.raises(ShapeError, match="2-D rows"):
            hidden_given_visible(zero_rbm(3, 2), np.ones(3))
        for bad in (np.ones((1, 4)), np.ones(3)):
            with pytest.raises(ShapeError):
                mean_free_energy(zero_rbm(3, 2), bad)
        head = zero_rbm(4, 3)
        for feats, targets in ((np.zeros((1, 5)), np.zeros((1, 3))),
                               (np.zeros((1, 4)), np.zeros((1, 2))),
                               (np.zeros(4), np.zeros((1, 3))),
                               (np.zeros((5, 4)), np.zeros((4, 3)))):
            with pytest.raises(ShapeError):
                backprop_gradients(LayerStack([head]), feats, targets,
                                   LossKind.CROSS_ENTROPY)[0]


class TestEnergy:
    def test_zero_states_zero_energy(self):
        assert energy(random_rbm(3, 2, seed=1), [0, 0, 0], [0, 0]) == 0.0

    def test_all_ones_constant_weights(self):
        rbm = zero_rbm(2, 2)
        rbm.w[:] = 0.3
        np.testing.assert_allclose(energy(rbm, [1, 1], [1, 1]), -4 * 0.3)

    def test_boltzmann_probability_matches_oracle(self):
        rbm = random_rbm(3, 2, seed=4)
        z = exact_partition(rbm)
        v = np.array([1.0, 0.0, 1.0])
        h = np.array([0.0, 1.0])
        _, _, grid = _rbm_energy_grid(rbm)
        row = int((v * 2 ** np.arange(3)).sum())
        col = int((h * 2 ** np.arange(2)).sum())
        np.testing.assert_allclose(np.exp(-energy(rbm, v, h)) / z,
                                   np.exp(-grid[row, col]) / z, rtol=1e-10)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            energy(zero_rbm(2, 2), [0.5, 0.0], [0, 1])


class TestFreeEnergy:
    def test_zero_model_is_nh_log2(self):
        rbm = zero_rbm(4, 3)
        np.testing.assert_allclose(free_energy(rbm, np.zeros((1, 4))),
                                   -3 * np.log(2))

    def test_hand_value(self):
        rbm = zero_rbm(1, 1)
        rbm.b_v[0, 0] = 1.0
        np.testing.assert_allclose(free_energy(rbm, [[1.0]]), -1 - np.log(2))

    def test_marginalization_identity(self):
        # e^(-F(x)) equals the sum over hidden states of e^(-E(x, h))
        rbm = random_rbm(3, 3, seed=5)
        x = np.array([[1.0, 1.0, 0.0]])
        _, _, grid = _rbm_energy_grid(rbm)
        row = int((x[0] * 2 ** np.arange(3)).sum())
        np.testing.assert_allclose(np.exp(-free_energy(rbm, x)),
                                   np.exp(-grid[row]).sum(), rtol=1e-10)


class TestCdStep:
    def test_repeated_sample_equals_single(self):
        # mean of equal terms: with saturated units every row's chain is the
        # same deterministic computation, so repeating the sample m times
        # cannot change the batch-averaged gradient
        rbm = zero_rbm(4, 3)
        rbm.w[:] = 50.0
        rbm.b_h[:] = -25.0
        row = np.array([[1.0, 0.0, 1.0, 1.0]])
        g_one = cd_step(rbm, row, 1, 0.0, make_rng(8))
        g_rep = cd_step(rbm, np.repeat(row, 5, axis=0), 1, 0.0, make_rng(8))
        np.testing.assert_allclose(g_one.dw, g_rep.dw, atol=1e-12)
        np.testing.assert_allclose(g_one.db_v, g_rep.db_v, atol=1e-12)

    def test_full_dropout_forces_bias_reconstruction(self):
        rbm = random_rbm(3, 2, seed=9)
        batch = np.array([[1.0, 0.0, 1.0]])
        rng = make_rng(0)
        g = cd_step(rbm, batch, 1, 1.0, rng)
        # with every hidden emission blocked the reconstruction is sigma(b_v)
        expected_recon = sigmoid(rbm.b_v)
        np.testing.assert_allclose(g.db_v, expected_recon - batch, atol=1e-12)

    def test_reproducible_chain(self):
        rbm = random_rbm(5, 4, seed=10)
        batch = (make_rng(11).random((6, 5)) > 0.5).astype(float)
        a = cd_step(rbm, batch, 3, 0.2, make_rng(3))
        b = cd_step(rbm, batch, 3, 0.2, make_rng(3))
        np.testing.assert_array_equal(a.dw, b.dw)

    def test_average_aligns_with_likelihood_gradient(self):
        rbm = random_rbm(3, 2, seed=12, scale=0.5)
        data = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1.0]])
        exact = exact_likelihood_gradient(rbm, data)
        acc = np.zeros_like(rbm.w)
        for seed in range(2000):
            acc += cd_step(rbm, data, 1, 0.0, make_rng(seed)).dw
        acc /= 2000
        # CD approximates the NEGATED ascent direction
        cos = (acc * -exact.dw).sum() / (np.linalg.norm(acc)
                                         * np.linalg.norm(exact.dw))
        assert cos > 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            cd_step(zero_rbm(2, 2), np.zeros((0, 2)), 1, 0.0, make_rng(0))

    def test_one_gemm_weight_gradient_matches_the_two_gemm_formula(self):
        # dw is one GEMM, [v_recon; x]^T [h_recon; -h_data] / m. Every term
        # lies in [-1, 1], so summing the m products of each GEMM in the
        # reference errs by at most m * m * u (u = eps / 2), 2m * u after the
        # division; the one GEMM sums 2m terms of size at most 1/m, off by at
        # most 2m * 2 * u. In any summation order the two agree within 3m * eps.
        n_v, n_h, m = 784, 500, 50
        rng = make_rng(49)
        rbm = RbmLayer(w=rng.normal(0.0, 0.1, (n_v, n_h)), b_v=rng.normal(0.0, 1.0, (1, n_v)),
                       b_h=rng.normal(0.0, 1.0, (1, n_h)))
        x = (rng.random((m, n_v)) > 0.5).astype(float)
        h_data = sigmoid(x @ rbm.w + rbm.b_h)
        h_drive = (rng.random((m, n_h)) < h_data).astype(float)
        g = CdGradients.like(rbm)
        v_recon = _cd_gradients(rbm, x, h_data, h_drive, g)
        want = (v_recon.T @ sigmoid(v_recon @ rbm.w + rbm.b_h) - x.T @ h_data) / m
        assert np.abs(g.dw - want).max() <= 3 * m * np.finfo(float).eps

    def test_consecutive_calls_return_fresh_arrays_and_leave_the_layer(self):
        rbm = random_rbm(5, 4, seed=43)
        batch = (make_rng(44).random((6, 5)) > 0.5).astype(float)
        arrays = (rbm.w, rbm.b_v, rbm.b_h)
        before = [a.copy() for a in arrays]
        a, b = (cd_step(rbm, batch, 1, 0.0, make_rng(45)) for _ in range(2))
        grads = lambda g: (g.dw, g.db_v, g.db_h)
        assert_unaliased(grads(a), grads(b), arrays)
        for x, y in zip(grads(a), grads(b)):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(arrays, before):
            np.testing.assert_array_equal(x, y)


class TestTrainBinary:
    @pytest.mark.parametrize("case", ["width", "no-rows"])
    def test_every_batch_is_checked_before_the_first_update(self, case):
        rbm = random_rbm(5, 3, seed=40)
        batches, error = bad_last_batch(case)
        assert_checked_before_update(
            lambda b: train_binary(rbm, b, TrainConfig(epochs=1, seed=42)),
            (rbm.w, rbm.b_v, rbm.b_h), batches, error)

    def test_zero_epochs_is_identity(self):
        rbm = random_rbm(4, 3, seed=13)
        w_before = rbm.w.copy()
        train_binary(rbm, [(np.ones((2, 4)), None)], TrainConfig(epochs=0))
        np.testing.assert_array_equal(rbm.w, w_before)

    def test_update_count_matches_epochs_times_batches(self):
        # 10,000 samples in 200 batches for 10 epochs: 2,000 updates
        counted = {"n": 0}
        rbm = random_rbm(3, 2, seed=14)
        data = (make_rng(15).random((10000, 3)) > 0.5).astype(float)
        batches = make_batches(data, None, 200)
        epochs_seen = []
        import boltznet.rbm as rbm_mod

        orig = rbm_mod._cd_step

        def counting(*args, **kwargs):
            counted["n"] += 1
            return orig(*args, **kwargs)

        rbm_mod._cd_step = counting
        try:
            train_binary(rbm, batches, TrainConfig(epochs=10, lr=0.05, seed=1),
                         hook=lambda e, lr, rho: epochs_seen.append(e))
        finally:
            rbm_mod._cd_step = orig
        assert counted["n"] == 2000
        assert epochs_seen == list(range(10))

    def test_training_lowers_mean_free_energy(self):
        # monotone trend with 5-epoch smoothing on a tiny synthetic set
        rng = make_rng(7)
        data = (rng.random((64, 6)) > 0.5).astype(float)
        data[:, :3] = data[:, :1]  # correlated bits give structure to learn
        rbm = RbmLayer.random(6, 4, make_rng(0))
        batches = make_batches(data, None, 8)
        history = []
        train_binary(rbm, batches, TrainConfig(epochs=50, lr=0.2, seed=7),
                     hook=lambda e, lr, rho: history.append(
                         mean_free_energy(rbm, data)))
        smooth = np.convolve(history, np.ones(5) / 5, mode="valid")
        assert smooth[-1] < smooth[0]


class TestTrainLinear:
    @pytest.mark.parametrize("case", ["width", "no-rows"])
    def test_every_batch_is_checked_before_the_first_update(self, case):
        rbm = random_rbm(5, 3, seed=46)
        batches, error = bad_last_batch(case)
        assert_checked_before_update(
            lambda b: train_linear(rbm, b, TrainConfig(epochs=1, seed=47)),
            (rbm.w, rbm.b_v, rbm.b_h), batches, error)
        assert rbm.activation is ActivationKind.SIGMOID  # not relabelled untrained

    def test_zero_weight_hidden_mean_is_bias(self):
        rbm = zero_rbm(3, 2)
        rbm.b_h[:] = [[0.4, -0.2]]
        out = hidden_given_visible(
            RbmLayer(w=rbm.w, b_v=rbm.b_v, b_h=rbm.b_h,
                     activation=ActivationKind.IDENTITY),
            np.zeros((5, 3)))
        np.testing.assert_array_equal(out, np.tile(rbm.b_h, (5, 1)))

    def test_hidden_noise_is_unit_variance(self):
        # a 1x1 linear layer with w = 1 and zero biases on zero rows drives
        # the reconstruction with h = X ~ N(0, s^2) alone, so dw estimates
        # E[sigmoid(X)^2]: 0.29338 at s^2 = 1, 0.29180 at 0.95, 0.29492 at
        # 1.05, so the bound holds s^2 within 5% of 1
        rbm = RbmLayer(w=np.ones((1, 1)), b_v=np.zeros((1, 1)), b_h=np.zeros((1, 1)),
                       activation=ActivationKind.IDENTITY)
        g = cd_step(rbm, np.zeros((100000, 1)), 1, 0.0, make_rng(21))
        assert abs(g.dw[0, 0] - 0.29338) < 0.0015

    def test_zero_epochs_unchanged(self):
        rbm = random_rbm(3, 2, seed=16)
        w = rbm.w.copy()
        train_linear(rbm, [(np.ones((2, 3)), None)], TrainConfig(epochs=0))
        np.testing.assert_array_equal(w, rbm.w)

    def test_runs_and_stays_finite(self):
        rbm = random_rbm(4, 2, seed=17, scale=0.1)
        data = make_rng(18).random((32, 4))
        train_linear(rbm, make_batches(data, None, 4),
                     TrainConfig(epochs=5, lr=0.01, seed=3))
        assert np.all(np.isfinite(rbm.w))

    def test_trained_layer_is_linear_before_and_after_reload(self, tmp_path):
        from boltznet.dnn import LayerStack
        from boltznet.model_io import load_model, save_model

        rbm = random_rbm(4, 2, seed=17, scale=0.1)
        train_linear(rbm, make_batches(make_rng(18).random((32, 4)), None, 4),
                     TrainConfig(epochs=2, lr=0.01, seed=3))
        save_model(tmp_path / "m.mdlr", LayerStack([rbm]))
        v = make_rng(19).random((5, 4))
        for layer in (rbm, load_model(tmp_path / "m.mdlr").layers[0]):
            assert layer.activation is ActivationKind.IDENTITY
            np.testing.assert_array_equal(hidden_given_visible(layer, v),
                                          v @ rbm.w + rbm.b_h)


class TestClassifierHead:
    def make_toy(self):
        rng = make_rng(19)
        feats = rng.random((12, 4))
        labels = one_of_k(rng.integers(0, 3, (12, 1)).astype(float), 3)
        head = RbmLayer.random(4, 3, make_rng(20),
                               activation=ActivationKind.SOFTMAX)
        return feats, labels, head

    def test_perfect_prediction_zero_gradient(self):
        from boltznet.core import activate

        feats, labels, head = self.make_toy()
        # when the emission equals the target the gradient vanishes
        c = activate(feats @ head.w + head.b_h, ActivationKind.SOFTMAX)
        dw, db = backprop_gradients(LayerStack([head]), feats, c,
                                    LossKind.CROSS_ENTROPY)[0]
        np.testing.assert_allclose(dw, 0.0, atol=1e-15)
        np.testing.assert_allclose(db, 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        from boltznet.core import LossKind, activate, loss

        feats, labels, head = self.make_toy()
        m = feats.shape[0]
        c = activate(feats @ head.w + head.b_h, ActivationKind.SOFTMAX)
        dw = feats.T @ (c - labels) / m
        db = (c - labels).mean(axis=0, keepdims=True)

        def objective(params):
            probs = activate(feats @ params[0] + params[1], ActivationKind.SOFTMAX)
            return loss(probs, labels, LossKind.CROSS_ENTROPY)

        fd = finite_difference_gradient(objective, [head.w, head.b_h])
        assert np.abs(dw - fd[0]).max() / np.abs(fd[0]).max() < 1e-5
        assert np.abs(db - fd[1]).max() / np.abs(fd[1]).max() < 1e-5

    @pytest.mark.parametrize("case", ["feature-width", "target-width", "target-rows"])
    def test_every_batch_is_checked_before_the_first_update(self, case):
        feats, labels, head = self.make_toy()
        f, t = feats[:6], labels[:6]
        bad = {"feature-width": (f[:, :3], t),
               "target-width": (f, np.hstack([t, np.zeros((6, 1))])),
               "target-rows": (f, t[:5])}[case]
        assert_checked_before_update(
            lambda b: train_classifier_head(head, b, TrainConfig(epochs=1)),
            (head.w, head.b_h), [(f, t), (f, t), bad], ShapeError)

    def test_gradient_batch_is_checked(self):
        feats, labels, head = self.make_toy()
        with pytest.raises(DomainError):
            backprop_gradients(LayerStack([head]), feats[:0], labels[:0],
                               LossKind.CROSS_ENTROPY)[0]
        for f, t in ((feats, labels[:1]), (feats[:, :3], labels), (feats, labels[:, :2])):
            with pytest.raises(ShapeError):
                backprop_gradients(LayerStack([head]), f, t,
                                   LossKind.CROSS_ENTROPY)[0]

    def test_consecutive_gradient_calls_return_fresh_arrays(self):
        feats, labels, head = self.make_toy()
        a = backprop_gradients(LayerStack([head]), feats, labels,
                               LossKind.CROSS_ENTROPY)[0]
        b = backprop_gradients(LayerStack([head]), feats, labels,
                               LossKind.CROSS_ENTROPY)[0]
        assert_unaliased(a, b, (head.w, head.b_h))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_one_of_k_fourth_class(self):
        np.testing.assert_array_equal(one_of_k(np.array([[3.0]]), 5),
                                      [[0, 0, 0, 1, 0]])

    def test_rejects_bad_labels(self):
        feats, labels, head = self.make_toy()
        labels[0, :] = 0.5
        with pytest.raises(DomainError):
            train_classifier_head(head, [(feats, labels)], TrainConfig(epochs=1))
        # a bad last batch is caught before the head learns from the others
        good = one_of_k(np.zeros((feats.shape[0], 1)), head.n_h)
        w, b_h = head.w.copy(), head.b_h.copy()
        with pytest.raises(DomainError):
            train_classifier_head(head, [(feats, good), (feats, good), (feats, labels)],
                                  TrainConfig(epochs=1))
        np.testing.assert_array_equal(head.w, w)
        np.testing.assert_array_equal(head.b_h, b_h)

    def test_non_softmax_head_is_rejected_before_the_first_update(self):
        # the head trains by softmax cross entropy, so a head that would
        # predict through another activation is refused, not trained
        feats, labels, head = self.make_toy()
        head.activation = ActivationKind.SIGMOID
        w, b_h = head.w.copy(), head.b_h.copy()
        with pytest.raises(ConfigError, match="softmax output layer"):
            train_classifier_head(head, [(feats, labels)], TrainConfig(epochs=1))
        np.testing.assert_array_equal(head.w, w)
        np.testing.assert_array_equal(head.b_h, b_h)

    def test_divergence_raises_at_its_epoch_before_the_hook(self):
        # a huge L2 penalty overflows the head within epoch 0; no Bernoulli
        # sample is drawn, so only the epoch loop's finiteness check sees it
        rng = make_rng(3)
        head = RbmLayer.random(5, 3, rng, activation=ActivationKind.SOFTMAX)
        feats = [rng.random((8, 5)) for _ in range(3)]
        labels = [one_of_k(rng.integers(0, 3, (8, 1)).astype(float), 3)
                  for _ in range(3)]
        cfg = TrainConfig(epochs=6, lr=1.0, decay=WeightDecaySpec(DecayKind.L2, 1e200))
        hooks = []
        with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                      match="after epoch 0"):
            train_classifier_head(head, list(zip(feats, labels)), cfg,
                                  hook=lambda *rec: hooks.append(rec))
        assert hooks == []


class TestClassify:
    def test_zero_error_when_bias_forces_labels(self):
        rbm = zero_rbm(4, 3)
        head = RbmLayer.random(3, 2, make_rng(22),
                               activation=ActivationKind.SOFTMAX)
        head.w[:] = 0.0
        head.b_h[:] = [[5.0, -5.0]]
        data = make_rng(23).random((6, 4))
        labels = np.zeros((6, 1))
        report = classify_rbm(rbm, head, data, labels)
        assert report.error_rate == 0.0
        assert report.n_samples == 6

    def test_argmax_shift_invariance(self):
        rbm = random_rbm(4, 3, seed=24)
        head = RbmLayer.random(3, 5, make_rng(25),
                               activation=ActivationKind.SOFTMAX)
        data = make_rng(26).random((10, 4))
        labels = make_rng(27).integers(0, 5, (10, 1)).astype(float)
        base = classify_rbm(rbm, head, data, labels)
        head.b_h += 11.7  # constant shift leaves the argmax unchanged
        shifted = classify_rbm(rbm, head, data, labels)
        assert base.error_rate == shifted.error_rate
        np.testing.assert_array_equal(base.confusion, shifted.confusion)


def test_factorization_property_many_models():
    # product of per-unit conditionals equals the enumerated joint conditional
    for seed in range(20):
        rng = make_rng(seed)
        n_v = int(rng.integers(1, 7))
        n_h = int(rng.integers(1, min(12 - n_v, 7)))
        rbm = RbmLayer(w=rng.normal(0, 1, (n_v, n_h)),
                       b_v=rng.normal(0, 1, (1, n_v)),
                       b_h=rng.normal(0, 1, (1, n_h)))
        v = (rng.random(n_v) > 0.5).astype(float)
        dist = exact_conditional(rbm, visible=v)
        per_unit = hidden_given_visible(rbm, v.reshape(1, -1))[0]
        factorized = np.prod(np.where(dist.states == 1.0, per_unit, 1 - per_unit),
                             axis=1)
        np.testing.assert_allclose(dist.probs, factorized, atol=1e-10)
