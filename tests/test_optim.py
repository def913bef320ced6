import inspect
import tracemalloc

import numpy as np
import pytest

from boltznet import dbm as dbm_mod, dbn as dbn_mod, dnn as dnn_mod, rbm as rbm_mod
from boltznet.autoencoder import build_symmetric, fine_tune_mse
from boltznet.core import (ActivationKind, ConfigError, DivergenceError, DomainError,
                           LossKind, ShapeError, make_rng)
from boltznet.data import make_batches, one_of_k
from boltznet.dbm import DbmModel, mean_field_train, pretrain_dbm
from boltznet.dbn import DbnModel, pretrain_dbn, up_down_fine_tune
from boltznet.dnn import LayerStack, backprop_fine_tune, pretrain_stack
from boltznet.optim import (NO_DECAY, NO_MOMENTUM, STEP_BLOCK, AnnealKind,
                            AnnealSchedule, DecayKind, MomentumSchedule, ParamGroup,
                            WeightDecaySpec, _check_finite,
                            anneal, apply_update, decay_penalty_gradient, dropout_mask,
                            momentum_coeff, run_epochs)
from boltznet.rbm import (RbmLayer, TrainConfig, train_binary, train_classifier_head,
                          train_linear)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [
    lambda x: TrainConfig(epochs=1, lr=x),
    lambda x: AnnealSchedule(AnnealKind.EXPONENTIAL, k=x),
    lambda x: WeightDecaySpec(DecayKind.L2, k=x),
], ids=["lr", "anneal-k", "decay-k"])
def test_non_finite_hyperparameter_rejected(build, value):
    with pytest.raises(ConfigError):
        build(value)


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


def folded_step(param, scaled_grad, vel, lr, rho, spec):
    """The parameter step on whole arrays, out of place, as the trainers
    form it: the gradient arrives scaled by `lr`, and the decay penalty is
    formed with its coefficient scaled by `lr`. Without a velocity (`vel`
    None) it is plain gradient descent."""
    g = scaled_grad
    if spec.kind != DecayKind.NONE:
        g = g + decay_penalty_gradient(param, WeightDecaySpec(spec.kind, spec.k * lr))
    if vel is None:
        return param - g, None
    vel = rho * vel - g
    return param + vel, vel


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
        # 19,000 elements: the step spans blocks, the last partial
        rng = make_rng(3)
        param, grad, vel = (rng.normal(size=(190, 100)) for _ in range(3))
        assert param.size % STEP_BLOCK and param.size > STEP_BLOCK
        param[0, :2] = grad[1, :2] = vel[2, :2] = -0.0
        spec = WeightDecaySpec(kind, 0.01)
        # bit for bit with lr folded as the trainers fold it
        ref_param, ref_vel = folded_step(param, 0.05 * grad, vel, 0.05, rho, spec)
        before = param.copy(), grad.copy(), vel.copy()
        new_param, new_vel = apply_update(param, grad, vel, lr=0.05, rho=rho, spec=spec)
        assert new_param.tobytes() == ref_param.tobytes()
        assert new_vel.tobytes() == ref_vel.tobytes()
        # and the unfolded formula to rounding: each side forms the exact
        # velocity with at most four roundings of size u = eps / 2 relative
        # to the magnitudes it sums
        pen = decay_penalty_gradient(param, spec)
        unfolded = rho * vel - 0.05 * (grad + pen)
        scale = np.abs(rho * vel) + 0.05 * (np.abs(grad) + np.abs(pen))
        assert np.all(np.abs(new_vel - unfolded) <= 4 * np.finfo(float).eps * scale)
        # the inputs are left untouched
        assert param.tobytes() == before[0].tobytes()
        assert grad.tobytes() == before[1].tobytes()
        assert vel.tobytes() == before[2].tobytes()

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
        group = ParamGroup([w], [b], spec, MomentumSchedule())
        ref_w, ref_b = w.copy(), b.copy()
        ref_vw, ref_vb = np.zeros_like(w), np.zeros_like(b)
        for rho in (0.5, 0.9):
            gw, gb = rng.normal(size=w.shape), rng.normal(size=b.shape)
            # trainers hand the group gradients scaled by the learning rate
            group.grads[0][...], group.grads[1][...] = 0.1 * gw, 0.1 * gb
            group.step(0.1, rho)
            ref_w, ref_vw = apply_update(ref_w, gw, ref_vw, 0.1, rho, spec)
            ref_b, ref_vb = apply_update(ref_b, gb, ref_vb, 0.1, rho)  # no decay
        assert group.params[0] is w and group.params[1] is b
        np.testing.assert_array_equal(w, ref_w)
        np.testing.assert_array_equal(b, ref_b)

    @pytest.mark.parametrize("kind", list(DecayKind))
    def test_a_momentum_free_group_holds_no_velocities(self, kind):
        # a zero schedule: no velocity arrays, and each step is bitwise the
        # momentum step from a zero velocity (STEP_BLOCK does not divide
        # the weight, so the step's last block is partial)
        rng = make_rng(5)
        w, b = rng.normal(size=(260, 70)), rng.normal(size=(1, 70))
        w[0, :3] = 0.0
        spec = WeightDecaySpec(kind, 0.1)
        group = ParamGroup([w], [b], spec, NO_MOMENTUM)
        assert group.vels is None
        ref_w, ref_b = w.copy(), b.copy()
        for lr in (0.1, 0.05):
            gw, gb = rng.normal(size=w.shape), rng.normal(size=b.shape)
            gw[0, :2] = 0.0
            gw[1, :2] = -0.0
            group.grads[0][...], group.grads[1][...] = lr * gw, lr * gb
            group.step(lr, 0.0)
            ref_w, _ = apply_update(ref_w, gw, np.zeros_like(w), lr, 0.0, spec)
            ref_b, _ = apply_update(ref_b, gb, np.zeros_like(b), lr, 0.0)
        assert group.params[0] is w and group.params[1] is b
        assert w.size % STEP_BLOCK != 0 and w.size > STEP_BLOCK
        assert w.tobytes() == ref_w.tobytes() and b.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("kind", list(DecayKind))
    @pytest.mark.parametrize("momentum", [MomentumSchedule(), NO_MOMENTUM],
                             ids=["velocities", "no-velocities"])
    @pytest.mark.parametrize("size", [STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1,
                                      5 * STEP_BLOCK // 2])
    def test_the_blocked_step_equals_the_whole_array_step(self, size, momentum, kind):
        # each element meets the same operations in whichever block it
        # falls, with signed zeros on both sides of every block boundary
        rng = make_rng(size)
        w, b = rng.normal(size=(1, size)), rng.normal(size=(1, 3))
        edges = [i for s in range(0, size + 1, STEP_BLOCK) for i in (s - 1, s)
                 if 0 <= i < size]
        w[0, edges] = 0.0
        spec = WeightDecaySpec(kind, 0.01)
        group = ParamGroup([w], [b], spec, momentum)
        ref = [[a.copy(), np.zeros_like(a) if group.vels else None, decay]
               for a, decay in ((w, spec), (b, NO_DECAY))]
        for lr, rho in ((0.1, 0.5), (0.05, 0.9)):
            rho = rho if group.vels else 0.0
            grads = [rng.normal(size=a.shape) for a in (w, b)]  # scaled by lr
            grads[0][0, edges] = -0.0
            for buf, g in zip(group.grads, grads):
                buf[...] = g
            group.step(lr, rho)
            for r, g in zip(ref, grads):
                r[:2] = folded_step(r[0], g, r[1], lr, rho, r[2])
        for i, (param, vel, _) in enumerate(ref):
            assert group.params[i].tobytes() == param.tobytes()
            if group.vels:
                assert group.vels[i].tobytes() == vel.tobytes()

    def test_arrays_that_are_not_c_contiguous_are_refused(self):
        # the step runs over flat views, and a flat view of such an array
        # would be a copy that the update never reaches
        w = np.zeros((3, 4))
        with pytest.raises(ShapeError, match="C-contiguous"):
            ParamGroup([w.T], [np.zeros((1, 3))], NO_DECAY, NO_MOMENTUM)
        with pytest.raises(ShapeError, match="C-contiguous"):
            ParamGroup([w], [w[:1, ::2]], NO_DECAY, NO_MOMENTUM)

    @pytest.mark.parametrize("trainer, decay", [
        ("train_binary", DecayKind.NONE), ("backprop_fine_tune", DecayKind.NONE),
        ("train_binary", DecayKind.L1), ("train_binary", DecayKind.L2),
        ("backprop_fine_tune", DecayKind.L1), ("backprop_fine_tune", DecayKind.L2),
        ("up_down_fine_tune", DecayKind.NONE),
    ], ids=["train_binary", "backprop_fine_tune", "train_binary-l1", "train_binary-l2",
            "backprop_fine_tune-l1", "backprop_fine_tune-l2", "up_down_fine_tune"])
    def test_an_epoch_makes_no_weight_sized_temporaries(self, trainer, decay):
        # an epoch's peak allocation is the groups' velocity and gradient
        # buffers (twice the trained arrays, once the DBN's directed ones,
        # which step without momentum), batch-sized arrays and, with decay,
        # the group's block-sized penalty buffer: below those buffers plus
        # one weight matrix
        rng = make_rng(50)
        x = rng.random((40, 200))
        y = one_of_k(rng.integers(0, 10, (40, 1)).astype(float), 10)
        batches = make_batches(x, y, 8)
        spec = WeightDecaySpec(decay, 0.01 if decay != DecayKind.NONE else 0.0)
        directed = []
        if trainer == "train_binary":
            rbm = RbmLayer.random(200, 150, rng)
            arrays = [rbm.w, rbm.b_v, rbm.b_h]
            run = lambda: train_binary(rbm, batches,
                                       TrainConfig(epochs=1, seed=51, decay=spec))
        elif trainer == "backprop_fine_tune":
            stack = pretrain_stack([200, 150, 10], batches, TrainConfig(epochs=0, seed=51),
                                   pretrain=False)
            arrays = [a for layer in stack.layers for a in (layer.w, layer.b_h)]
            run = lambda: backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY,
                                             TrainConfig(epochs=1, seed=52, decay=spec))
        else:
            model = pretrain_dbn([200, 150, 100], batches, TrainConfig(epochs=0, seed=51),
                                 labels=True)
            arrays = [model.top.w, model.top.b_v, model.top.b_h]
            directed = ([a for l in model.recognition for a in (l.w, l.b_h)]
                        + model.generative_w + model.generative_b)
            run = lambda: up_down_fine_tune(model, batches,
                                            TrainConfig(epochs=1, seed=52, decay=spec))
        bound = (2 * sum(a.nbytes for a in arrays) + sum(a.nbytes for a in directed)
                 + max(a.nbytes for a in arrays + directed))
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def _stack_arrays(stack):
    return [a for layer in stack.layers for a in (layer.w, layer.b_h)]


def _rbm_trainer(trainer, activation=ActivationKind.SIGMOID, n_h=3):
    def setup(batches):
        rbm = RbmLayer.random(4, n_h, make_rng(62), activation=activation)
        return (lambda b, cfg: trainer(rbm, b, cfg)), [rbm.w, rbm.b_v, rbm.b_h], []
    return setup


def _backprop_setup(batches):
    stack = pretrain_stack([4, 3, 2], batches, TrainConfig(epochs=0), pretrain=False)
    return ((lambda b, cfg: backprop_fine_tune(stack, b, LossKind.CROSS_ENTROPY, cfg)),
            _stack_arrays(stack), [])


def _mse_setup(batches):
    model = build_symmetric([4, 3], batches, TrainConfig(epochs=1, seed=63), 0.2)
    return (lambda b, cfg: fine_tune_mse(model, b, cfg)), _stack_arrays(model.stack), []


def _up_down_setup(batches):
    model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=64), labels=True)
    arrays = ([a for l in model.recognition for a in (l.w, l.b_h)] + model.generative_w
              + model.generative_b + [model.top.w, model.top.b_v, model.top.b_h])
    return (lambda b, cfg: up_down_fine_tune(model, b, cfg)), arrays, []


def _mean_field_setup(batches):
    m = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=65), labels=True)
    params = m.weights + m.hidden_biases + [m.visible_bias, m.label_bias]
    return (lambda b, cfg: mean_field_train(m, b, cfg)), params, m.chains


# name -> (setup(batches) -> (run(batches, cfg), the model's parameters, its
# states: together every array training may change), whether the trainer
# reads y)
TRAINERS = {
    "train_binary": (_rbm_trainer(train_binary), False),
    "train_linear": (_rbm_trainer(train_linear), False),
    "train_classifier_head": (_rbm_trainer(train_classifier_head, ActivationKind.SOFTMAX,
                                           n_h=2), True),
    "backprop_fine_tune": (_backprop_setup, True),
    "fine_tune_mse": (_mse_setup, False),
    "up_down_fine_tune": (_up_down_setup, True),
    "mean_field_train": (_mean_field_setup, True),
}


class TestRunEpochs:
    def test_reports_annealed_rate_and_momentum_each_epoch(self):
        cfg = TrainConfig(epochs=3, lr=0.4, anneal=AnnealSchedule(AnnealKind.DIVIDE, 1.0),
                          momentum=MomentumSchedule(0.5, 0.9, 1))
        seen = []
        run_epochs(cfg, [],
                   lambda lr, rho: seen.append(("step", lr, rho)),
                   lambda e, lr, rho: seen.append(("hook", e, lr, rho)))
        assert seen == [("step", 0.4, 0.5), ("hook", 0, 0.4, 0.5),
                        ("step", 0.2, 0.9), ("hook", 1, 0.2, 0.9),
                        ("step", 0.4 / 3, 0.9), ("hook", 2, 0.4 / 3, 0.9)]

    def test_truthy_step_stops_after_that_epochs_report(self):
        hooks = []
        run_epochs(TrainConfig(epochs=5), [],
                   lambda lr, rho: len(hooks) == 1,
                   lambda e, lr, rho: hooks.append(e))
        assert hooks == [0, 1]

    def test_non_finite_parameter_raises_after_its_epoch_before_the_hook(self):
        w = np.zeros((2, 2))
        hooks = []

        def step(lr, rho):
            if len(hooks) == 1:
                w[0, 1] = np.inf

        with pytest.raises(DivergenceError, match="non-finite parameters after epoch 1"):
            run_epochs(TrainConfig(epochs=3), [w], step,
                       lambda e, lr, rho: hooks.append(e))
        assert hooks == [0]

    @pytest.mark.parametrize("trainer", list(TRAINERS))
    def test_every_trainer_hands_the_loop_its_model(self, trainer, monkeypatch):
        # the loop's divergence walk starts from the trained model, so no
        # trainer lists its arrays by hand, and the walk reaches every array
        # training may change (no epoch runs, so none is replaced yet)
        handed = []

        def spy(cfg, model, step, hook):
            handed.append(model)
            run_epochs(cfg, model, step, hook)

        for module in (rbm_mod, dnn_mod, dbn_mod, dbm_mod):
            monkeypatch.setattr(module, "run_epochs", spy)
        rng = make_rng(68)
        x = rng.random((6, 4))
        y = one_of_k(rng.integers(0, 2, (6, 1)).astype(float), 2)
        run, params, states = TRAINERS[trainer][0]([(x, y)])
        handed.clear()  # the setup's own pretraining
        run([(x, y)], TrainConfig(epochs=0))
        [model] = handed
        assert isinstance(model, (RbmLayer, LayerStack, DbnModel, DbmModel))
        for a in params + states:
            kept, a[0, 0] = a[0, 0], np.nan
            with pytest.raises(DivergenceError):
                _check_finite(model, "model")
            a[0, 0] = kept

    @pytest.mark.parametrize("trainer", list(TRAINERS))
    def test_every_trainer_moves_its_parameters_only_in_the_group_step(self, trainer,
                                                                       monkeypatch):
        # with the step a no-op, an epoch leaves every parameter bit for bit
        # as it was, so no trainer updates one outside `ParamGroup.step` (a
        # DBM's chains are states, which each sweep replaces)
        rng = make_rng(69)
        x = rng.random((6, 4))
        y = one_of_k(rng.integers(0, 2, (6, 1)).astype(float), 2)
        run, params, _ = TRAINERS[trainer][0]([(x, y)])
        before = [a.tobytes() for a in params]
        monkeypatch.setattr(ParamGroup, "step", lambda self, lr, rho: None)
        run([(x, y)], TrainConfig(epochs=1, seed=70))
        assert [a.tobytes() for a in params] == before

    def test_every_trainer_takes_one_batch_list(self):
        # labels ride in the (x, y) batches, so no trainer takes a second list
        trainers = [train_binary, train_linear, train_classifier_head, backprop_fine_tune,
                    fine_tune_mse, up_down_fine_tune, mean_field_train]
        for trainer in trainers:
            params = list(inspect.signature(trainer).parameters.values())
            names = [p.name for p in params]
            middle = ["loss"] if trainer is backprop_fine_tune else []
            assert names[1:] == ["batches", *middle, "cfg", "hook"], trainer.__name__
            assert params[-1].default is None
            assert not {"data", "labels"} & set(names)

    @pytest.mark.parametrize("trainer, case", [
        (trainer, case) for trainer in TRAINERS
        for case in ["no-batches", "zero-rows", "x-width", "y-rows", "x-nan", "x-inf",
                     "y-nan", "y-inf"]
        if not case.startswith("y-") or TRAINERS[trainer][1]])
    def test_every_trainer_checks_its_batches_before_the_first_update(self, trainer, case):
        # a good first batch, then the malformed one: the typed error comes
        # before any array moves; non-finite data is the caller's error, not
        # a divergence of the model
        setup, _ = TRAINERS[trainer]
        rng = make_rng(60)
        x = rng.random((6, 4))
        y = one_of_k(rng.integers(0, 2, (6, 1)).astype(float), 2)
        run, params, states = setup([(x, y)])
        arrays = params + states

        def planted(a, value):
            a = a.copy()
            a[2, 1] = value
            return a

        batches, error, match = {
            "no-batches": ([], DomainError, None),
            "zero-rows": ([(x, y), (x[:0], y[:0])], DomainError, None),
            "x-width": ([(x, y), (x[:, :3], y)], ShapeError, None),
            "y-rows": ([(x, y), (x, y[:5])], ShapeError, None),
            "x-nan": ([(x, y), (planted(x, np.nan), y)], DomainError, "non-finite"),
            "x-inf": ([(x, y), (planted(x, np.inf), y)], DomainError, "non-finite"),
            "y-nan": ([(x, y), (x, planted(y, np.nan))], DomainError, "non-finite"),
            "y-inf": ([(x, y), (x, planted(y, np.inf))], DomainError, "non-finite")}[case]
        before = [a.copy() for a in arrays]
        with pytest.raises(error, match=match):
            run(batches, TrainConfig(epochs=1, seed=61))
        for now, then in zip(arrays, before, strict=True):
            np.testing.assert_array_equal(now, then)

    def test_every_builder_checks_its_batches_before_drawing_a_layer(self):
        rng = make_rng(66)
        x = rng.random((6, 4))
        y = one_of_k(rng.integers(0, 2, (6, 1)).astype(float), 2)
        cfg = TrainConfig(epochs=1, seed=67)
        builders = [lambda b: pretrain_stack([4, 3, 2], b, cfg, pretrain=False),
                    lambda b: build_symmetric([4, 3], b, cfg),
                    lambda b: pretrain_dbn([4, 3, 2], b, cfg, labels=True),
                    lambda b: pretrain_dbm([4, 3, 2], b, cfg, labels=True)]
        for build in builders:
            with pytest.raises(DomainError):
                build([(x, y), (x[:0], y[:0])])
            with pytest.raises(ShapeError):
                build([(x, y), (x[:, :3], y)])

    def test_every_builder_takes_one_batch_list(self):
        # label units come from each batch's y; `labels` only says whether
        # the model has any
        for builder in [pretrain_stack, build_symmetric, pretrain_dbn, pretrain_dbm]:
            params = inspect.signature(builder).parameters
            assert list(params)[1:3] == ["batches", "cfg"], builder.__name__
            assert "data" not in params
        for builder in [pretrain_dbn, pretrain_dbm]:
            assert inspect.signature(builder).parameters["labels"].default is False
