import numpy as np
import pytest

from boltznet.core import ConfigError, make_rng
from boltznet.data import make_batches, one_of_k
from boltznet.dbn import (DbnModel, classify_dbn, predict_dbn, pretrain_dbn,
                          up_down_fine_tune)
from boltznet.dnn import _pretrain_layers
from boltznet.oracle import (dbn_evidence, dbn_log_joint, dbn_recognition_q,
                             variational_bound)
from boltznet.rbm import RbmLayer, TrainConfig
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
                    b_h=rng.normal(0, 1, (1, sizes[i + 1])), index=i)
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
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=1))
        assert model.top.n_v == 3 + 2
        assert model.label_dim == 2

    def test_degenerates_to_single_label_joined_rbm(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3], batches, batches, TrainConfig(epochs=1, seed=2))
        assert model.recognition == []
        assert model.top.n_v == 4 + 2

    def test_lower_layers_match_shared_pretraining_path(self):
        batches = toy_data()
        cfg = TrainConfig(epochs=2, lr=0.2, seed=3)
        model = pretrain_dbn([4, 3, 2], batches, batches, cfg)
        layers, _, _ = _pretrain_layers([4, 3], batches, cfg)
        np.testing.assert_array_equal(model.recognition[0].w, layers[0].w)

    def test_generative_weights_start_tied(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=4))
        np.testing.assert_array_equal(model.generative_w[0],
                                      model.recognition[0].w.T)


class TestUpDown:
    def test_zero_epochs_is_identity(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=5))
        w = model.top.w.copy()
        up_down_fine_tune(model, batches, batches, TrainConfig(epochs=0, seed=6))
        np.testing.assert_array_equal(model.top.w, w)
        assert not model.fine_tuned

    def test_recognition_and_generative_untie(self):
        batches = toy_data()
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=7))
        r0 = model.recognition[0].w.copy()
        g0 = model.generative_w[0].copy()
        up_down_fine_tune(model, batches, batches,
                          TrainConfig(epochs=1, lr=0.05, seed=8, momentum=NO_MOMENTUM))
        assert not np.allclose(model.recognition[0].w, r0)
        assert not np.allclose(model.generative_w[0], g0)
        assert not np.allclose(model.recognition[0].w.T, model.generative_w[0])
        assert model.fine_tuned


class TestClassify:
    def test_bias_dominant_label_slot_wins(self):
        batches = toy_data(classes=3)
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=0, seed=9))
        # make label slot 1 overwhelmingly probable in the reconstruction
        model.top.b_v[:, model.feature_dim:] = [[-20.0, 20.0, -20.0]]
        model.top.w[:] = 0.0
        data = make_rng(10).random((6, 4))
        pred = predict_dbn(model, data)
        assert np.all(pred.argmax(axis=1) == 1)

    def test_prediction_rows_normalized(self):
        batches = toy_data(classes=3)
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=11))
        pred = predict_dbn(model, make_rng(12).random((5, 4)))
        np.testing.assert_allclose(pred.sum(axis=1), 1.0, atol=1e-12)

    def test_never_reads_true_labels(self):
        batches = toy_data(classes=2)
        model = pretrain_dbn([4, 3, 2], batches, batches, TrainConfig(epochs=1, seed=13))
        data = make_rng(14).random((6, 4))
        labels_a = np.zeros((6, 1))
        labels_b = np.ones((6, 1))
        a = classify_dbn(model, data, labels_a)
        b = classify_dbn(model, data, labels_b)
        # predictions identical; only the scoring differs
        assert a.confusion.sum(axis=0).tolist() == b.confusion.sum(axis=0).tolist()

    def test_requires_label_slots(self):
        model = random_dbn(seed=15)
        with pytest.raises(ConfigError):
            predict_dbn(model, np.zeros((1, 3)))


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
