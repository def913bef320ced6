import numpy as np
import pytest

from dataclasses import replace

from boltznet.autoencoder import build_symmetric, fine_tune_mse
from boltznet.core import ConfigError, DomainError, ShapeError, make_rng
from boltznet.data import make_batches, shuffle_paired
from boltznet.multimodal import (ModalScale, build_bimodal, modal_error_rate,
                                 predict_modal)
from boltznet.rbm import TrainConfig


def smooth_patterns(n, dim, seed, parts=6, basis_seed=100):
    # one shared basis; `seed` only varies the mixing coefficients, so
    # different seeds give fresh samples from the same distribution
    basis = make_rng(basis_seed).random((parts, dim))
    coef = make_rng(seed).random((n, parts))
    coef /= coef.sum(axis=1, keepdims=True)
    return coef @ basis


def quick_cfg(epochs=2, seed=3):
    return TrainConfig(epochs=epochs, lr=0.2, seed=seed)


class TestTrainBimodal:
    def test_dimension_bookkeeping(self):
        a = smooth_patterns(100, 26, seed=0)
        b = smooth_patterns(100, 14, seed=1)
        model, batches = build_bimodal(a, b, [40, 20], quick_cfg(), 10, denoise_rate=0.3)
        fine_tune_mse(model.ae, batches, quick_cfg(epochs=1))
        assert model.dim_a == 26 and model.dim_b == 14
        assert model.ae.sizes[0] == 40

    def test_rejects_zero_denoise_rate(self):
        a = smooth_patterns(50, 10, seed=2)
        with pytest.raises(ConfigError):
            build_bimodal(a, a, [20, 10], quick_cfg(), 10, denoise_rate=0.0)

    def test_rejects_row_mismatch(self):
        a = smooth_patterns(50, 10, seed=3)
        b = smooth_patterns(40, 10, seed=4)
        with pytest.raises(ShapeError):
            build_bimodal(a, b, [20, 10], quick_cfg(), 10, denoise_rate=0.3)

    def test_rejects_wrong_first_size(self):
        a = smooth_patterns(50, 10, seed=5)
        with pytest.raises(ShapeError):
            build_bimodal(a, a, [21, 10], quick_cfg(), 10, denoise_rate=0.3)


class TestBimodalReference:
    def test_matches_hand_built_composition_bitwise(self):
        # the bimodal model is exactly: scale each modality, join, shuffle
        # with the config's seed, batch, pretrain symmetrically, fine-tune
        a = smooth_patterns(30, 5, seed=17)
        b = smooth_patterns(30, 3, seed=18, basis_seed=101) * 4.0 - 1.0
        cfg = TrainConfig(epochs=2, lr=0.2, seed=19)
        model, model_batches = build_bimodal(a, b, [8, 5, 3], cfg, 4, denoise_rate=0.3)
        fine_tune_mse(model.ae, model_batches, replace(cfg, epochs=3))

        scale_a = ModalScale(float(a.min()), float(a.max()))
        scale_b = ModalScale(float(b.min()), float(b.max()))
        joined = np.hstack([scale_a.forward(a), scale_b.forward(b)])
        joined, _ = shuffle_paired(joined, joined, make_rng(19))
        batches = make_batches(joined, None, 4)
        ref = build_symmetric([8, 5, 3], batches, cfg, denoise_rate=0.3)
        fine_tune_mse(ref, batches, replace(cfg, epochs=3))

        assert (model.dim_a, model.dim_b) == (5, 3)
        assert (model.scale_a, model.scale_b) == (scale_a, scale_b)
        assert model.ae.denoise_rate == 0.3
        assert len(model.ae.stack.layers) == len(ref.stack.layers) == 4
        for got, want in zip(model.ae.stack.layers, ref.stack.layers):
            assert got.activation == want.activation
            for name in ("w", "b_v", "b_h"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestPredictModal:
    def test_output_shape(self):
        a = smooth_patterns(80, 12, seed=6)
        b = smooth_patterns(80, 8, seed=7)
        model, batches = build_bimodal(a, b, [20, 10], quick_cfg(), 10, denoise_rate=0.3)
        fine_tune_mse(model.ae, batches, quick_cfg(epochs=1))
        pred = predict_modal(model, a[:17])
        assert pred.shape == (17, 8)

    def test_zero_filled_modality_never_leaks(self):
        a = smooth_patterns(60, 10, seed=8)
        b = smooth_patterns(60, 10, seed=9)
        model, batches = build_bimodal(a, b, [20, 12], quick_cfg(), 10, denoise_rate=0.3)
        fine_tune_mse(model.ae, batches, quick_cfg(epochs=1))
        first = predict_modal(model, a[:5])
        second = predict_modal(model, a[:5])  # nothing persists between calls
        np.testing.assert_array_equal(first, second)

    def test_untrained_model_outputs_constant_pattern(self):
        a = smooth_patterns(60, 10, seed=10)
        model, _ = build_bimodal(a, a.copy(), [20, 8],
                                 TrainConfig(epochs=0, lr=0.2, seed=1), 10,
                                 denoise_rate=0.3)
        for layer in model.ae.stack.layers:
            layer.w[:] = 0.0
        pred = predict_modal(model, a[:4])
        # with no weights the output depends only on the biases
        np.testing.assert_allclose(pred - pred[0], 0.0, atol=1e-12)

    def test_identity_modality_learned(self):
        # modality b is a copy of modality a; the trained network fills it in
        a = smooth_patterns(1500, 20, seed=7)
        cfg = TrainConfig(epochs=8, lr=0.3, seed=3)
        model, batches = build_bimodal(a, a.copy(), [40, 30], cfg, 30, denoise_rate=0.3)
        fine_tune_mse(model.ae, batches, replace(cfg, epochs=200))
        test_a = smooth_patterns(300, 20, seed=8)
        pred = predict_modal(model, test_a)
        assert np.abs(pred - test_a).mean() < 0.05
        assert modal_error_rate(pred, test_a) < 10.0

    def test_width_mismatch(self):
        a = smooth_patterns(50, 10, seed=11)
        model, _ = build_bimodal(a, a.copy(), [20, 8], quick_cfg(), 10,
                                 denoise_rate=0.3)
        with pytest.raises(ShapeError):
            predict_modal(model, np.zeros((2, 9)))
        for bad in (np.zeros(10), np.zeros((2, 10, 3))):
            with pytest.raises(ShapeError, match="2-D rows"):
                predict_modal(model, bad)
        with pytest.raises(ShapeError, match="2-D rows"):
            build_bimodal(np.zeros(20), a, [30, 8], quick_cfg(), 10, denoise_rate=0.3)


class TestModalErrorRate:
    def test_zero_on_equal(self):
        x = make_rng(12).random((5, 6)) + 0.1
        assert modal_error_rate(x, x.copy()) == 0.0

    def test_hundred_percent_on_zero_prediction(self):
        x = make_rng(13).random((5, 6)) + 0.1
        np.testing.assert_allclose(modal_error_rate(np.zeros_like(x), x), 100.0)

    def test_zero_norm_rows_excluded_with_warning(self):
        truth = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        pred = np.array([[1.0, 0.0], [5.0, 5.0], [0.0, 2.0]])
        with pytest.warns(UserWarning, match="excluded 1"):
            rate = modal_error_rate(pred, truth)
        assert rate == 0.0

    @pytest.mark.filterwarnings("ignore:excluded 2 zero-norm")
    @pytest.mark.parametrize("rows", [2, 0], ids=["all-zero-truth", "no-rows"])
    def test_no_nonzero_truth_row_raises_domain_error(self, rows):
        with pytest.raises(DomainError, match="zero norm"):
            modal_error_rate(np.ones((rows, 3)), np.zeros((rows, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            modal_error_rate(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="2-D rows"):
            modal_error_rate(np.ones(20), np.ones(20))


def test_paired_shuffle_preserves_concatenated_rows():
    from boltznet.data import shuffle_paired

    a = smooth_patterns(40, 5, seed=14)
    b = smooth_patterns(40, 3, seed=15)
    joined = np.hstack([a, b])
    shuffled, _ = shuffle_paired(joined, joined, make_rng(16))
    assert sorted(map(tuple, joined)) == sorted(map(tuple, shuffled))
