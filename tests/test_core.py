import numpy as np
import pytest

from boltznet.core import (ActivationKind, ConfigError, DivergenceError, DomainError,
                           LossKind, ShapeError, activate, activation_derivative,
                           classification_report, loss, loss_derivative,
                           make_rng, matrix, sample_bernoulli)

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
    rep = classification_report([0, 1, 2, 1], [0, 1, 1, 1], 3)
    assert rep.n_samples == 4
    assert rep.error_rate == 0.25
    assert rep.confusion[1, 2] == 1
    assert rep.confusion.sum() == 4
