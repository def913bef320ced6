from dataclasses import replace

import numpy as np
import pytest

from boltznet import dbn as dbn_mod
from boltznet import rbm as rbm_mod
from boltznet.core import (ActivationKind, ConfigError, DivergenceError, DomainError,
                           ShapeError, classify, make_rng, sigmoid)
from boltznet.data import make_batches, one_of_k
from boltznet.dbn import DbnModel, predict_dbn, pretrain_dbn, up_down_fine_tune
from boltznet.dnn import _pretrain_layers
from boltznet.oracle import (dbn_evidence, dbn_log_joint, dbn_recognition_q,
                             variational_bound)
from boltznet.rbm import RbmLayer, TrainConfig, _train_rbm
from boltznet.optim import NO_MOMENTUM


def toy_data(seed=0, n=24, dim=4, classes=2, num_batches=3):
    rng = make_rng(seed)
    data = (rng.random((n, dim)) > 0.5).astype(float)
    labels = one_of_k(rng.integers(0, classes, (n, 1)).astype(float), classes)
    return make_batches(data, labels, num_batches)


def random_dbn(seed, sizes=(3, 2, 2), untied=True):
    """Directly assembled tiny model; the bound holds for any recognition Q."""
    rng = make_rng(seed)
    rec = [RbmLayer(w=rng.normal(0, 1, (sizes[i], sizes[i + 1])),
                    b_v=rng.normal(0, 1, (1, sizes[i])),
                    b_h=rng.normal(0, 1, (1, sizes[i + 1])))
           for i in range(len(sizes) - 2)]
    top = RbmLayer(w=rng.normal(0, 1, (sizes[-2], sizes[-1])),
                   b_v=rng.normal(0, 1, (1, sizes[-2])),
                   b_h=rng.normal(0, 1, (1, sizes[-1])))
    model = DbnModel(recognition=rec, top=top, label_dim=0)
    scale = 1.0 if untied else 0.0
    model.generative_w = [l.w.T + scale * make_rng(seed + 1).normal(0, 0.3, l.w.T.shape)
                          for l in rec]
    model.generative_b = [l.b_v.copy() for l in rec]
    return model


class TestPretrain:
    def test_top_visible_dim_includes_labels(self):
        batches = toy_data(classes=2)
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=1), labels=True)
        assert model.top.n_v == 3 + 2
        assert model.label_dim == 2

    def test_degenerates_to_single_label_joined_rbm(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3], batches, TrainConfig(epochs=1, seed=2), labels=True)
        assert model.recognition == []
        assert model.top.n_v == 4 + 2

    def test_lower_layers_match_shared_pretraining_path(self):
        batches = toy_data()
        cfg = TrainConfig(epochs=2, lr=0.2, seed=3)
        model = pretrain_dbn([4, 3, 2], batches, cfg, labels=True)
        layers, _ = _pretrain_layers([4, 3], batches, cfg)
        np.testing.assert_array_equal(model.recognition[0].w, layers[0].w)

    def test_label_joined_top_rbm_bitwise(self):
        batches = toy_data(classes=3)
        cfg = TrainConfig(epochs=2, lr=0.2, seed=9)
        model = pretrain_dbn([4, 3, 2], batches, cfg, labels=True)
        # retrain both RBMs by hand: the top one sees [features || labels]
        rng = make_rng(cfg.seed)
        lower = RbmLayer.random(4, 3, rng)
        top = RbmLayer.random(3 + 3, 2, rng)
        _train_rbm(lower, [x for x, _ in batches], cfg)
        feed = [np.hstack([sigmoid(x @ lower.w + lower.b_h), y]) for x, y in batches]
        _train_rbm(top, feed, replace(cfg, seed=cfg.seed + 1))
        assert model.label_dim == 3
        for got, ref in ((model.top.w, top.w), (model.top.b_v, top.b_v),
                         (model.top.b_h, top.b_h)):
            np.testing.assert_array_equal(got, ref)

    def test_labels_are_checked_before_any_training(self, bad_label_batches,
                                                    monkeypatch):
        batches, error = bad_label_batches
        trained = []
        monkeypatch.setattr(rbm_mod, "_train_rbm",
                            lambda *args, **kw: trained.append(args))
        with pytest.raises(error):
            pretrain_dbn([3, 4, 2], batches, TrainConfig(epochs=1), labels=True)
        assert trained == []

    def test_empty_batch_list_is_domain_error(self):
        with pytest.raises(DomainError, match="at least one batch"):
            pretrain_dbn([4, 3, 2], [], TrainConfig(epochs=1, seed=5), labels=True)

    def test_generative_weights_start_tied(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=4), labels=True)
        np.testing.assert_array_equal(model.generative_w[0],
                                      model.recognition[0].w.T)


class TestUpDown:
    def test_zero_epochs_is_identity(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=5), labels=True)
        w = model.top.w.copy()
        up_down_fine_tune(model, batches, TrainConfig(epochs=0, seed=6))
        np.testing.assert_array_equal(model.top.w, w)
        assert not model.fine_tuned

    def test_recognition_and_generative_untie(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=7), labels=True)
        r0 = model.recognition[0].w.copy()
        g0 = model.generative_w[0].copy()
        up_down_fine_tune(model, batches,
                          TrainConfig(epochs=1, lr=0.05, seed=8, momentum=NO_MOMENTUM))
        assert not np.allclose(model.recognition[0].w, r0)
        assert not np.allclose(model.generative_w[0], g0)
        assert not np.allclose(model.recognition[0].w.T, model.generative_w[0])
        assert model.fine_tuned

    def test_unlabelled_model_fine_tunes_on_data_alone(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=7))
        assert model.label_dim == 0
        r0 = model.recognition[0].w.copy()
        up_down_fine_tune(model, [(x, None) for x, _ in batches],
                          TrainConfig(epochs=1, lr=0.05, seed=8, momentum=NO_MOMENTUM))
        assert not np.allclose(model.recognition[0].w, r0)
        assert model.fine_tuned

    def test_batches_are_checked_before_the_first_epoch(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=7), labels=True)
        w = model.top.w.copy()
        x, y = batches[-1]
        for bad in ((x[:, :3], y), (x, y[:-1])):
            with pytest.raises(ShapeError):
                up_down_fine_tune(model, batches[:-1] + [bad], TrainConfig(epochs=1, seed=8))
        np.testing.assert_array_equal(model.top.w, w)

    def test_bad_labels_are_checked_before_the_first_update(self, bad_label_batches):
        bad, error = bad_label_batches
        good = toy_data(dim=3)
        model = pretrain_dbn([3, 4, 2], good, TrainConfig(epochs=1, seed=7), labels=True)
        arrays = ([a for l in model.recognition for a in (l.w, l.b_h)] + model.generative_w
                  + model.generative_b + [model.top.w, model.top.b_v, model.top.b_h])
        before = [a.copy() for a in arrays]
        with pytest.raises(error):
            up_down_fine_tune(model, good + bad, TrainConfig(epochs=1, seed=8))
        for now, then in zip(arrays, before):
            np.testing.assert_array_equal(now, then)

    @pytest.mark.parametrize("where, kind", [("top", ActivationKind.IDENTITY),
                                             ("recognition", ActivationKind.TANH)])
    def test_non_sigmoid_layer_is_rejected_before_the_first_update(self, where, kind):
        # the top trains through the shared CD step, which would read IDENTITY
        # as linear units; up-down runs sigmoid units only
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=7), labels=True)
        (model.top if where == "top" else model.recognition[0]).activation = kind
        arrays = ([a for l in model.recognition for a in (l.w, l.b_h)] + model.generative_w
                  + model.generative_b + [model.top.w, model.top.b_v, model.top.b_h])
        before = [a.copy() for a in arrays]
        with pytest.raises(ConfigError, match="sigmoid units only"):
            up_down_fine_tune(model, batches, TrainConfig(epochs=1, seed=8))
        for now, then in zip(arrays, before):
            np.testing.assert_array_equal(now, then)

    def test_divergence_in_a_directed_weight_stops_its_epoch(self, monkeypatch):
        # the walk after each epoch reaches the wake-sleep arrays and names the one
        batches = toy_data(dim=6, num_batches=2)
        model = pretrain_dbn([6, 5, 4, 3], batches, TrainConfig(epochs=1, seed=9), labels=True)
        gradients, updated = dbn_mod._delta_gradients, []

        def planting(group, *args):
            gradients(group, *args)
            updated.append(group.params[1])
            if len(updated) == 4:  # the last of epoch 0: 2 batches x (wake, sleep)
                group.grads[1][0, 0] = -np.inf  # the group's step carries it in

        monkeypatch.setattr(dbn_mod, "_delta_gradients", planting)
        hooks = []
        with pytest.raises(DivergenceError,
                           match=r"after epoch 0 in DbnModel\.recognition\[1\]\.w$"):
            up_down_fine_tune(model, batches, TrainConfig(epochs=3, seed=10),
                              hook=lambda e, lr, rho: hooks.append(e))
        assert updated[3] is model.recognition[1].w
        assert hooks == []


class TestClassify:
    def test_bias_dominant_label_slot_wins(self):
        batches = toy_data(classes=3)
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=0, seed=9), labels=True)
        # make label slot 1 overwhelmingly probable in the reconstruction
        model.top.b_v[:, model.feature_dim:] = [[-20.0, 20.0, -20.0]]
        model.top.w[:] = 0.0
        data = make_rng(10).random((6, 4))
        pred = predict_dbn(model, data)
        assert np.all(pred.argmax(axis=1) == 1)

    def test_prediction_rows_normalized(self):
        batches = toy_data(classes=3)
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=11), labels=True)
        pred = predict_dbn(model, make_rng(12).random((5, 4)))
        np.testing.assert_allclose(pred.sum(axis=1), 1.0, atol=1e-12)

    def test_never_reads_true_labels(self):
        batches = toy_data(classes=2)
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=1, seed=13), labels=True)
        data = make_rng(14).random((6, 4))
        labels_a = np.zeros((6, 1))
        labels_b = np.ones((6, 1))
        a = classify(predict_dbn(model, data), labels_a)
        b = classify(predict_dbn(model, data), labels_b)
        # predictions identical; only the scoring differs
        assert a.confusion.sum(axis=0).tolist() == b.confusion.sum(axis=0).tolist()

    def test_requires_label_slots(self):
        model = random_dbn(seed=15)
        with pytest.raises(ConfigError):
            predict_dbn(model, np.zeros((1, 3)))

    def test_wrong_input_width_is_shape_error(self):
        batches = toy_data(classes=3)
        model = pretrain_dbn([4, 3, 2], batches, TrainConfig(epochs=0, seed=16), labels=True)
        with pytest.raises(ShapeError, match="input width 3 != 4"):
            predict_dbn(model, np.zeros((2, 3)))
        for bad in (np.zeros(4), np.zeros((2, 4, 3))):
            with pytest.raises(ShapeError, match="2-D rows"):
                predict_dbn(model, bad)
        assert predict_dbn(model, np.zeros((0, 4))).shape == (0, 3)


@pytest.mark.parametrize("sizes", [(5, 4, 3, 2), (5, 2)], ids=["two-layers", "none"])
def test_recognition_pass_is_the_explicit_sigmoid_loop(sizes):
    model = random_dbn(30, sizes)
    x = make_rng(31).random((6, sizes[0]))
    h = x
    for layer in model.recognition:
        h = sigmoid(h @ layer.w + layer.b_h)
    np.testing.assert_array_equal(model.recognition_pass(x), h)


class TestVariationalBound:
    def test_bound_below_evidence_and_tight_at_posterior(self):
        for seed in range(30):
            model = random_dbn(seed)
            x = (make_rng(seed + 500).random((1, 3)) > 0.5).astype(float)
            log_px, posterior = dbn_evidence(model, x)
            _, log_joint = dbn_log_joint(model, x)
            q = dbn_recognition_q(model, x)
            bound = variational_bound(log_joint, q)
            assert bound <= log_px + 1e-10
            tight = variational_bound(log_joint, posterior.probs)
            assert abs(tight - log_px) < 1e-8

    def test_kl_gap_is_nonnegative(self):
        model = random_dbn(seed=77)
        x = np.array([[1.0, 0.0, 1.0]])
        log_px, _ = dbn_evidence(model, x)
        _, log_joint = dbn_log_joint(model, x)
        q = dbn_recognition_q(model, x)
        kl = log_px - variational_bound(log_joint, q)
        assert kl >= -1e-12

    def test_recognition_q_is_distribution(self):
        model = random_dbn(seed=21)
        q = dbn_recognition_q(model, np.array([[0.0, 1.0, 1.0]]))
        np.testing.assert_allclose(q.sum(), 1.0, atol=1e-10)
        assert np.all(q >= 0)
