import numpy as np
import pytest

from boltznet.core import ConfigError, DomainError, make_rng
from boltznet.optim import (NO_DECAY, AnnealKind, AnnealSchedule, DecayKind,
                            MomentumSchedule, ParamGroup, WeightDecaySpec, anneal,
                            apply_update, decay_penalty_gradient, dropout_mask,
                            momentum_coeff, run_epochs)
from boltznet.rbm import TrainConfig


class TestAnneal:
    def test_step_halves_every_five(self):
        assert anneal(0.1, 7, AnnealSchedule(AnnealKind.STEP)) == 0.05

    def test_divide(self):
        np.testing.assert_allclose(
            anneal(0.1, 4, AnnealSchedule(AnnealKind.DIVIDE, k=1.0)), 0.02)

    def test_exponential(self):
        np.testing.assert_allclose(
            anneal(0.5, 3, AnnealSchedule(AnnealKind.EXPONENTIAL, k=0.1)),
            0.5 * np.exp(-0.3))

    @pytest.mark.parametrize("kind", list(AnnealKind))
    def test_epoch_zero_is_base(self, kind):
        assert anneal(0.3, 0, AnnealSchedule(kind, k=0.7)) == 0.3

    @pytest.mark.parametrize("kind", list(AnnealKind))
    def test_non_increasing(self, kind):
        sched = AnnealSchedule(kind, k=0.4)
        rates = [anneal(1.0, t, sched) for t in range(25)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            AnnealSchedule(AnnealKind.DIVIDE, k=-1.0)


class TestMomentum:
    def test_default_scheme_early(self):
        assert momentum_coeff(3, MomentumSchedule()) == 0.5

    def test_default_scheme_late(self):
        assert momentum_coeff(5, MomentumSchedule()) == 0.9

    def test_zero_schedule(self):
        sched = MomentumSchedule(early=0.0, late=0.0, threshold=0)
        assert all(momentum_coeff(t, sched) == 0.0 for t in range(10))

    def test_rho_must_be_below_one(self):
        with pytest.raises(ConfigError):
            MomentumSchedule(early=1.0)


class TestDecay:
    def test_l2_gradient(self):
        g = decay_penalty_gradient(np.array([[2.0]]), WeightDecaySpec(DecayKind.L2, 0.5))
        assert g[0, 0] == 2.0

    def test_l1_gradient_is_scaled_sign(self):
        g = decay_penalty_gradient(np.array([[-3.0]]), WeightDecaySpec(DecayKind.L1, 0.5))
        assert g[0, 0] == -0.5

    def test_none_is_zero(self):
        w = make_rng(0).normal(size=(3, 4))
        assert np.all(decay_penalty_gradient(w, NO_DECAY) == 0.0)


class TestApplyUpdate:
    def test_reduces_to_vanilla_gradient_descent(self):
        rng = make_rng(1)
        param = rng.normal(size=(4, 3))
        grad = rng.normal(size=(4, 3))
        vel = np.zeros_like(param)
        new_param, _ = apply_update(param, grad, vel, lr=0.05, rho=0.0)
        np.testing.assert_array_equal(new_param, param - 0.05 * grad)

    def test_zero_gradient_keeps_momentum(self):
        param = np.zeros((2, 2))
        vel = np.full((2, 2), 3.0)
        new_param, new_vel = apply_update(param, np.zeros((2, 2)), vel,
                                          lr=0.1, rho=0.5)
        np.testing.assert_array_equal(new_vel, 0.5 * vel)
        np.testing.assert_array_equal(new_param, param + 0.5 * vel)

    def test_two_steps_with_constant_gradient(self):
        # unrolled by hand: vel1 = -g, vel2 = 0.9*(-g) - g = -1.9 g
        g = np.full((1, 1), 2.0)
        param = np.zeros((1, 1))
        vel = np.zeros((1, 1))
        param, vel = apply_update(param, g, vel, lr=1.0, rho=0.9)
        param, vel = apply_update(param, g, vel, lr=1.0, rho=0.9)
        np.testing.assert_allclose(vel, -1.9 * g)

    def test_penalty_scales_with_lr(self):
        param = np.full((1, 1), 4.0)
        grad = np.zeros((1, 1))
        spec = WeightDecaySpec(DecayKind.L2, 0.5)
        _, v1 = apply_update(param, grad, np.zeros((1, 1)), lr=0.1, rho=0.0, spec=spec)
        _, v2 = apply_update(param, grad, np.zeros((1, 1)), lr=0.2, rho=0.0, spec=spec)
        np.testing.assert_allclose(v2, 2.0 * v1)

    @pytest.mark.parametrize("kind", list(DecayKind))
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_bitwise_equal_to_the_out_of_place_formula(self, kind, rho):
        rng = make_rng(3)
        param, grad, vel = (rng.normal(size=(6, 5)) for _ in range(3))
        param[0, :2] = grad[1, :2] = vel[2, :2] = -0.0
        spec = WeightDecaySpec(kind, 0.01)
        ref_vel = rho * vel - 0.05 * (grad + decay_penalty_gradient(param, spec))
        ref_param = param + ref_vel
        before = param.copy(), vel.copy()
        new_param, new_vel = apply_update(param, grad, vel, lr=0.05, rho=rho, spec=spec)
        assert new_param.tobytes() == ref_param.tobytes()
        assert new_vel.tobytes() == ref_vel.tobytes()
        # the inputs are left untouched
        assert param.tobytes() == before[0].tobytes()
        assert vel.tobytes() == before[1].tobytes()

    def test_shape_mismatch_rejected(self):
        from boltznet.core import ShapeError

        with pytest.raises(ShapeError):
            apply_update(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)),
                         lr=0.1, rho=0.0)


class TestDropoutMask:
    def test_rate_zero_keeps_everything(self):
        mask = dropout_mask(1000, 0.0, make_rng(7))
        assert np.all(mask == 1.0)

    def test_rate_one_blocks_everything(self):
        mask = dropout_mask(1000, 1.0, make_rng(7))
        assert np.all(mask == 0.0)

    def test_kept_fraction(self):
        mask = dropout_mask(100000, 0.2, make_rng(42))
        assert abs(mask.mean() - 0.8) < 0.01

    def test_masked_emission_zeroes_blocked_units(self):
        rng = make_rng(3)
        h = rng.random((5, 50)) + 0.5
        mask = dropout_mask(50, 0.4, rng)
        masked = h * mask
        assert np.array_equal(masked == 0.0, np.broadcast_to(mask == 0.0, masked.shape))

    def test_rate_out_of_range(self):
        with pytest.raises(DomainError):
            dropout_mask(10, 1.5, make_rng(0))


class TestParamGroup:
    def test_updates_in_place_like_apply_update(self):
        rng = make_rng(4)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        spec = WeightDecaySpec(DecayKind.L2, 0.1)
        group = ParamGroup([w], [b], spec)
        ref_w, ref_b = w.copy(), b.copy()
        ref_vw, ref_vb = np.zeros_like(w), np.zeros_like(b)
        for rho in (0.5, 0.9):
            gw, gb = rng.normal(size=w.shape), rng.normal(size=b.shape)
            group.step([gw, gb], 0.1, rho)
            ref_w, ref_vw = apply_update(ref_w, gw, ref_vw, 0.1, rho, spec)
            ref_b, ref_vb = apply_update(ref_b, gb, ref_vb, 0.1, rho)  # no decay
        assert group.params[0] is w and group.params[1] is b
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(b, ref_b)


class TestRunEpochs:
    def test_reports_annealed_rate_and_momentum_each_epoch(self):
        cfg = TrainConfig(epochs=3, lr=0.4, anneal=AnnealSchedule(AnnealKind.DIVIDE, 1.0),
                          momentum=MomentumSchedule(0.5, 0.9, 1))
        seen = []
        run_epochs(cfg, lambda lr, rho: seen.append(("step", lr, rho)),
                   lambda e, lr, rho: seen.append(("hook", e, lr, rho)))
        assert seen == [("step", 0.4, 0.5), ("hook", 0, 0.4, 0.5),
                        ("step", 0.2, 0.9), ("hook", 1, 0.2, 0.9),
                        ("step", 0.4 / 3, 0.9), ("hook", 2, 0.4 / 3, 0.9)]

    def test_truthy_step_stops_after_that_epochs_report(self):
        hooks = []
        run_epochs(TrainConfig(epochs=5), lambda lr, rho: len(hooks) == 1,
                   lambda e, lr, rho: hooks.append(e))
        assert hooks == [0, 1]
