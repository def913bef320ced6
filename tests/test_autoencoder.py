import numpy as np
import pytest

from boltznet.autoencoder import (build_symmetric, corrupt, fine_tune_mse,
                                  reconstruct, reconstruction_error)
from boltznet.core import ConfigError, DomainError, LossKind, loss, make_rng
from boltznet.data import make_batches
from boltznet.dnn import _pretrain_layers, backprop_gradients, predict
from boltznet.oracle import finite_difference_gradient
from boltznet.rbm import TrainConfig


def toy_batches(seed=0, n=40, dim=6, num_batches=5):
    data = make_rng(seed).random((n, dim))
    return make_batches(data, None, num_batches)


class TestBuildSymmetric:
    def test_mirror_weights_bitwise(self):
        model = build_symmetric([6, 4, 3], toy_batches(),
                                TrainConfig(epochs=2, lr=0.2, seed=1))
        layers = model.stack.layers
        np.testing.assert_array_equal(layers[2].w, layers[1].w.T)
        np.testing.assert_array_equal(layers[3].w, layers[0].w.T)
        np.testing.assert_array_equal(layers[2].b_h, layers[1].b_v)
        np.testing.assert_array_equal(layers[3].b_h, layers[0].b_v)

    def test_shape_palindrome(self):
        model = build_symmetric([6, 4, 3], toy_batches(),
                                TrainConfig(epochs=0, seed=2))
        sizes = model.sizes
        assert sizes == [6, 4, 3, 4, 6]
        assert sizes == sizes[::-1]

    def test_encoder_matches_shared_pretraining_path(self):
        cfg = TrainConfig(epochs=3, lr=0.2, seed=7)
        batches = toy_batches()
        model = build_symmetric([6, 4, 3], batches, cfg)
        layers, _, _ = _pretrain_layers([6, 4, 3], batches, cfg)
        for enc, ref in zip(model.stack.layers[:2], layers):
            np.testing.assert_array_equal(enc.w, ref.w)
            np.testing.assert_array_equal(enc.b_h, ref.b_h)

    def test_needs_two_sizes(self):
        with pytest.raises(ConfigError):
            build_symmetric([6], toy_batches(), TrainConfig(epochs=0, seed=0))


class TestCorrupt:
    def test_rate_zero_identity(self):
        x = make_rng(3).random((10, 8))
        np.testing.assert_array_equal(corrupt(x, 0.0, make_rng(4)), x)

    def test_rate_one_zeroes_everything(self):
        x = make_rng(5).random((10, 8)) + 1.0
        assert np.all(corrupt(x, 1.0, make_rng(6)) == 0.0)

    def test_kept_fraction(self):
        x = np.ones((200, 500))
        out = corrupt(x, 0.3, make_rng(42))
        assert abs(out.mean() - 0.7) < 0.01

    def test_fresh_mask_per_call(self):
        x = np.ones((5, 100))
        rng = make_rng(7)
        a = corrupt(x, 0.5, rng)
        b = corrupt(x, 0.5, rng)
        assert not np.array_equal(a, b)

    def test_rate_out_of_range(self):
        with pytest.raises(DomainError):
            corrupt(np.ones((2, 2)), -0.1, make_rng(0))


class TestFineTune:
    def test_gradient_matches_finite_differences(self):
        model = build_symmetric([4, 3], toy_batches(dim=4),
                                TrainConfig(epochs=2, lr=0.2, seed=8))
        x = make_rng(9).random((5, 4))
        grads = backprop_gradients(model.stack, x, x, LossKind.MSE)
        params = [p for l in model.stack.layers for p in (l.w, l.b_h)]

        def objective(ps):
            for i, layer in enumerate(model.stack.layers):
                layer.w, layer.b_h = ps[2 * i], ps[2 * i + 1]
            return loss(predict(model.stack, x), x, LossKind.MSE)

        fd = finite_difference_gradient(objective, params)
        objective(params)
        for i in range(len(model.stack.layers)):
            for j in (0, 1):
                rel = (np.abs(grads[i][j] - fd[2 * i + j]).max()
                       / max(np.abs(fd[2 * i + j]).max(), 1e-12))
                assert rel < 1e-5

    def test_plain_ae_training_reduces_error(self):
        batches = toy_batches(n=60)
        data = np.vstack([b[0] for b in batches])
        model = build_symmetric([6, 5, 3], batches, TrainConfig(epochs=2, lr=0.2, seed=10))
        before = reconstruction_error(model, data)
        fine_tune_mse(model, batches, TrainConfig(epochs=30, lr=0.5, seed=11))
        assert reconstruction_error(model, data) < before

    def test_denoise_zero_reduces_to_plain_fine_tuning(self):
        batches = toy_batches()
        cfg_build = TrainConfig(epochs=1, lr=0.2, seed=12)
        cfg_ft = TrainConfig(epochs=4, lr=0.3, seed=13)
        plain = build_symmetric([6, 4], batches, cfg_build, denoise_rate=0.0)
        fine_tune_mse(plain, batches, cfg_ft)
        other = build_symmetric([6, 4], batches, cfg_build, denoise_rate=0.0)
        fine_tune_mse(other, batches, cfg_ft)
        np.testing.assert_array_equal(plain.stack.layers[0].w,
                                      other.stack.layers[0].w)

    def test_corruption_refreshes_but_targets_stay_clean(self):
        # a denoising model trained on constant data should reconstruct the
        # clean constant even though inputs were masked
        data = np.full((30, 6), 0.9)
        batches = make_batches(data, None, 3)
        model = build_symmetric([6, 4], batches, TrainConfig(epochs=2, lr=0.3, seed=14),
                                denoise_rate=0.4)
        fine_tune_mse(model, batches, TrainConfig(epochs=60, lr=0.5, seed=15))
        recon = reconstruct(model, data[:1])
        np.testing.assert_allclose(recon, 0.9, atol=0.05)

    def test_mirror_tie_breaks_after_fine_tuning(self):
        batches = toy_batches()
        model = build_symmetric([6, 4], batches, TrainConfig(epochs=1, lr=0.2, seed=16))
        fine_tune_mse(model, batches, TrainConfig(epochs=3, lr=0.3, seed=17))
        assert not np.allclose(model.stack.layers[1].w,
                               model.stack.layers[0].w.T)


class TestReconstruct:
    def test_output_shape_matches_input(self):
        model = build_symmetric([6, 3], toy_batches(), TrainConfig(epochs=0, seed=18))
        x = make_rng(19).random((9, 6))
        assert reconstruct(model, x).shape == x.shape

    def test_error_zero_on_perfect_reconstruction(self):
        model = build_symmetric([4, 3], toy_batches(dim=4), TrainConfig(epochs=0, seed=20))
        x = make_rng(21).random((3, 4))
        recon = reconstruct(model, x)
        assert loss(recon, recon, LossKind.MSE) == 0.0

    def test_constant_half_output_closed_form(self):
        # zero parameters force every activation to 0.5; against binary
        # input the per-sample error is n/8
        model = build_symmetric([8, 3], toy_batches(dim=8), TrainConfig(epochs=0, seed=22))
        for layer in model.stack.layers:
            layer.w[:] = 0.0
            layer.b_h[:] = 0.0
        x = (make_rng(23).random((50, 8)) > 0.5).astype(float)
        np.testing.assert_allclose(reconstruction_error(model, x), 8 / 8.0)

    def test_matches_loss_mse(self):
        model = build_symmetric([6, 3], toy_batches(), TrainConfig(epochs=1, lr=0.2, seed=24))
        x = make_rng(25).random((7, 6))
        np.testing.assert_allclose(reconstruction_error(model, x),
                                   loss(reconstruct(model, x), x, LossKind.MSE))
