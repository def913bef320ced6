import copy

import numpy as np
import pytest

from boltznet.core import ConfigError, DomainError, make_rng, sigmoid
from boltznet.data import make_batches, one_of_k
from boltznet.dbm import (DbmModel, classify_dbm, dbm_energy, mean_field_states,
                          mean_field_train, predict_dbm, pretrain_dbm)
from boltznet.oracle import dbm_joint, exact_partition
from boltznet.rbm import TrainConfig
from boltznet.optim import (NO_MOMENTUM, AnnealKind, AnnealSchedule, MomentumSchedule,
                            anneal)


def toy_batches(seed=0, n=32, dim=4, num_batches=4, classes=0):
    rng = make_rng(seed)
    data = (rng.random((n, dim)) > 0.5).astype(float)
    labels = (one_of_k(rng.integers(0, classes, (n, 1)).astype(float), classes)
              if classes else None)
    return make_batches(data, labels, num_batches)


def zero_dbm(sizes):
    return DbmModel(weights=[np.zeros((sizes[i], sizes[i + 1]))
                             for i in range(len(sizes) - 1)],
                    visible_bias=np.zeros((1, sizes[0])),
                    hidden_biases=[np.zeros((1, n)) for n in sizes[1:]])


def random_dbm(sizes, seed, scale=0.7):
    rng = make_rng(seed)
    return DbmModel(weights=[rng.normal(0, scale, (sizes[i], sizes[i + 1]))
                             for i in range(len(sizes) - 1)],
                    visible_bias=rng.normal(0, scale, (1, sizes[0])),
                    hidden_biases=[rng.normal(0, scale, (1, n)) for n in sizes[1:]])


def product_bernoulli_log(states, means):
    p = np.clip(means, 1e-12, 1 - 1e-12)
    return (states * np.log(p) + (1 - states) * np.log1p(-p)).sum(axis=1)


class TestEnergy:
    def test_zero_states_zero_energy(self):
        model = random_dbm([3, 2, 2], seed=0)
        assert dbm_energy(model, [0, 0, 0], [[0, 0], [0, 0]]) == 0.0

    def test_single_hidden_layer_reduces_to_rbm_form(self):
        model = random_dbm([3, 2], seed=1)
        v = np.array([1.0, 0.0, 1.0])
        h = np.array([1.0, 1.0])
        expected = -(v.reshape(1, -1) @ model.weights[0] @ h.reshape(-1, 1)).item()
        np.testing.assert_allclose(dbm_energy(model, v, [h]), expected)

    def test_boltzmann_probability_matches_enumeration(self):
        # with zero biases the bias-free energy defines the joint exactly
        model = random_dbm([2, 2, 2], seed=2)
        model.visible_bias[:] = 0.0
        for b in model.hidden_biases:
            b[:] = 0.0
        dist = dbm_joint(model)
        z = exact_partition(model)
        v = np.array([1.0, 0.0])
        h1 = np.array([0.0, 1.0])
        h2 = np.array([1.0, 1.0])
        idx = int((v * [1, 2]).sum() + (h1 * [4, 8]).sum() + (h2 * [16, 32]).sum())
        e = dbm_energy(model, v, [h1, h2])
        np.testing.assert_allclose(dist.probs[idx], np.exp(-e) / z, rtol=1e-10)

    def test_rejects_non_binary(self):
        model = random_dbm([3, 2, 2], seed=3)
        with pytest.raises(DomainError):
            dbm_energy(model, [0.5, 0, 0], [[0, 0], [0, 0]])


class TestPretrain:
    def test_intermediate_weights_halved_bitwise(self):
        batches = toy_batches(dim=5)
        cfg = TrainConfig(epochs=2, lr=0.2, seed=4)
        model = pretrain_dbm([5, 4, 3, 2], batches, cfg)
        # retrain the same intermediate RBM by hand to compare
        from boltznet.rbm import RbmLayer, _train_rbm, pretrain_config

        rng = make_rng(cfg.seed)
        first = RbmLayer.random(5, 4, rng, index=0)
        _train_rbm(first, batches, pretrain_config(cfg, 0), up_scale=2.0)
        feats = [sigmoid(2.0 * (b[0] @ first.w) + first.b_h) for b in batches]
        mid = RbmLayer.random(4, 3, rng, index=1)
        _train_rbm(mid, feats, pretrain_config(cfg, 1))
        np.testing.assert_array_equal(model.weights[1], mid.w * 0.5)
        np.testing.assert_array_equal(model.hidden_biases[1], mid.b_h * 0.5)

    def test_first_and_last_weights_stored_unscaled(self):
        batches = toy_batches(dim=5)
        model = pretrain_dbm([5, 3, 2], batches, TrainConfig(epochs=1, seed=5))
        assert model.weights[0].shape == (5, 3)
        assert model.weights[1].shape == (3, 2)

    def test_chain_count_defaults_to_batch_count(self):
        batches = toy_batches(dim=4, num_batches=4)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=6))
        assert model.chain_v.shape[0] == 4
        assert all(h.shape[0] == 4 for h in model.chain_h)

    def test_needs_two_hidden_layers(self):
        with pytest.raises(ConfigError):
            pretrain_dbm([4, 3], toy_batches(), TrainConfig(epochs=1, seed=7))

    def test_label_slots_join_top_weight(self):
        batches = toy_batches(classes=3)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=8),
                             labels=batches)
        assert model.weights[-1].shape == (3 + 3, 2)
        assert model.label_bias.shape == (1, 3)


class TestMeanField:
    def test_zero_weight_fixed_point_is_half_in_one_sweep(self):
        model = zero_dbm([4, 3, 2])
        sweeps = {"n": 0}
        mus, _ = mean_field_states(model, np.zeros((5, 4)))
        for mu in mus:
            assert np.all(mu == 0.5)

    def test_deterministic(self):
        model = random_dbm([4, 3, 2], seed=9)
        x = (make_rng(10).random((6, 4)) > 0.5).astype(float)
        a, _ = mean_field_states(model, x)
        b, _ = mean_field_states(model, x)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma, mb)

    def test_mean_field_locally_minimizes_kl(self):
        # perturbing any single converged mean must not lower the KL from
        # the factorized distribution to the true conditional
        model = random_dbm([3, 2, 2], seed=11, scale=0.6)
        x = np.array([[1.0, 0.0, 1.0]])
        mus, _ = mean_field_states(model, x, tol=1e-12, max_sweeps=500)
        dist = dbm_joint(model)
        # condition the enumerated joint on v = x
        v_bits = dist.states[:, :3]
        keep = np.all(v_bits == x[0], axis=1)
        post = dist.probs[keep] / dist.probs[keep].sum()
        h_states = dist.states[keep][:, 3:]
        means = np.hstack([m[0] for m in mus])

        def kl(mu_vec):
            logq = product_bernoulli_log(h_states, mu_vec)
            q = np.exp(logq)
            return float((q * (logq - np.log(post))).sum())

        base = kl(means)
        for j in range(means.size):
            for delta in (0.01, -0.01):
                candidate = means.copy()
                candidate[j] = np.clip(candidate[j] + delta, 1e-9, 1 - 1e-9)
                assert kl(candidate) >= base - 1e-9

    def test_doubled_weight_bookkeeping(self):
        # a single nonzero weight makes the scales observable: the bottom-up
        # initialization doubles every weight except the top one, while the
        # fixed-point sweeps use the stored weights unscaled
        w = 0.8
        model = zero_dbm([1, 1, 1])
        model.weights[0][0, 0] = w
        x = np.ones((1, 1))
        mus, _, history = mean_field_states(model, x, max_sweeps=1,
                                            return_history=True)
        # after one sweep the first layer is sigma(w): the undoubled update
        np.testing.assert_allclose(mus[0][0, 0], sigmoid(np.array([[w]]))[0, 0])
        # the recorded change is sigma(2w) -> sigma(w), proving the init
        # used the doubled weight
        expected = sigmoid(np.array([[2 * w]]))[0, 0] - sigmoid(np.array([[w]]))[0, 0]
        np.testing.assert_allclose(history[0], expected, atol=1e-12)
        # top layer: undoubled init, zero weight keeps it at one half
        assert mus[1][0, 0] == 0.5

    def test_sweep_changes_mostly_monotone_after_first(self):
        # logged, not asserted as a theorem: the max-change sequence should
        # be non-increasing after the first sweep on nearly every model
        failures = 0
        for seed in range(100):
            model = random_dbm([3, 3, 2], seed=seed, scale=0.7)
            x = (make_rng(seed).random((2, 3)) > 0.5).astype(float)
            _, _, history = mean_field_states(model, x, tol=0.0, max_sweeps=10,
                                              return_history=True)
            if np.any(np.diff(history[1:]) > 1e-12):
                failures += 1
        print(f"non-monotone mean-field change sequences: {failures}/100")
        assert failures <= 20


class TestTraining:
    def test_requires_pretrained_chains(self):
        model = random_dbm([4, 3, 2], seed=12)
        with pytest.raises(ConfigError):
            mean_field_train(model, toy_batches(), TrainConfig(epochs=1, lr=0.01, seed=0))

    def test_update_moves_weights_and_stays_finite(self):
        batches = toy_batches(dim=4, classes=2)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=13),
                             labels=batches)
        w0 = model.weights[0].copy()
        mean_field_train(model, batches,
                         TrainConfig(epochs=3, lr=0.05, seed=14, momentum=NO_MOMENTUM))
        assert not np.allclose(model.weights[0], w0)
        assert all(np.all(np.isfinite(w)) for w in model.weights)

    def test_gradient_structure_matches_enumeration(self):
        # the infinite-sample update direction is the difference of data and
        # model pair expectations; long chains should approach the model term
        model = random_dbm([3, 2, 2], seed=15, scale=0.4)
        dist = dbm_joint(model)
        states = dist.states
        v, h1 = states[:, :3], states[:, 3:5]
        exact_pair = (v * dist.probs[:, None]).T @ h1  # E[v h1^T]
        # estimate the same expectation by Gibbs chains
        chains = DbmModel(weights=[w.copy() for w in model.weights],
                          visible_bias=model.visible_bias.copy(),
                          hidden_biases=[b.copy() for b in model.hidden_biases])
        rng = make_rng(16)
        m = 300
        chains.chain_v = (rng.random((m, 3)) > 0.5).astype(float)
        chains.chain_h = [(rng.random((m, 2)) > 0.5).astype(float) for _ in range(2)]
        from boltznet.dbm import _gibbs_sweep

        acc = np.zeros((3, 2))
        burn, draws = 200, 400
        for t in range(burn + draws):
            _gibbs_sweep(chains, rng)
            if t >= burn:
                acc += chains.chain_v.T @ chains.chain_h[0] / m
        mc_pair = acc / draws
        cos = ((exact_pair * mc_pair).sum()
               / (np.linalg.norm(exact_pair) * np.linalg.norm(mc_pair)))
        assert cos > 0.9


def accumulator_mean_field_train(model, batches, iterations, lr, seed):
    """The stochastic-approximation update written out with explicit
    accumulators and `+=` on each parameter: plain SGD, STEP-annealed."""
    from boltznet.dbm import _gibbs_sweep

    def below(v, hs, y):
        states = [v] + hs[:-1]
        if model.label_dim:
            states[-1] = np.hstack([states[-1], y])
        return states

    data_batches = [b[0] for b in batches]
    label_batches = ([b[1] for b in batches] if model.label_dim
                     else [None] * len(batches))
    rng = make_rng(seed)
    d_total = sum(b.shape[0] for b in data_batches)
    m_chains = model.chain_v.shape[0]
    for t in range(iterations):
        alpha = anneal(lr, t, AnnealSchedule(AnnealKind.STEP))
        acc_w = [np.zeros_like(w) for w in model.weights]
        acc_b = [np.zeros_like(b) for b in model.hidden_biases]
        acc_bv = np.zeros_like(model.visible_bias)
        acc_by = np.zeros_like(model.label_bias) if model.label_dim else None
        for x, yb in zip(data_batches, label_batches):
            mus, _ = mean_field_states(model, x, y=yb, clamp_labels=True)
            for l, lower in enumerate(below(x, mus, yb)):
                acc_w[l] += lower.T @ mus[l]
                acc_b[l] += mus[l].sum(axis=0, keepdims=True)
            acc_bv += x.sum(axis=0, keepdims=True)
            if model.label_dim:
                acc_by += yb.sum(axis=0, keepdims=True)
        _gibbs_sweep(model, rng)
        for l, lower in enumerate(below(model.chain_v, model.chain_h, model.chain_y)):
            model.weights[l] += alpha * (acc_w[l] / d_total
                                         - lower.T @ model.chain_h[l] / m_chains)
            model.hidden_biases[l] += alpha * (
                acc_b[l] / d_total - model.chain_h[l].mean(axis=0, keepdims=True))
        model.visible_bias += alpha * (acc_bv / d_total
                                       - model.chain_v.mean(axis=0, keepdims=True))
        if model.label_dim:
            model.label_bias += alpha * (acc_by / d_total
                                         - model.chain_y.mean(axis=0, keepdims=True))


class TestTrainingReference:
    @pytest.mark.parametrize("sizes, classes", [([5, 4, 3], 3), ([5, 4, 3, 2], 0)],
                             ids=["labelled", "unlabelled"])
    def test_matches_accumulator_update_bitwise(self, sizes, classes):
        batches = toy_batches(seed=23, n=24, dim=5, num_batches=3, classes=classes)
        model = pretrain_dbm(sizes, batches, TrainConfig(epochs=2, lr=0.1, seed=24),
                             labels=batches if classes else None)
        reference = copy.deepcopy(model)
        w0 = model.weights[0].copy()
        # momentum and annealing in the config do not reach the update
        cfg = TrainConfig(epochs=2, lr=0.05, seed=25,
                          anneal=AnnealSchedule(AnnealKind.EXPONENTIAL, 1.0),
                          momentum=MomentumSchedule(0.5, 0.9, 1))
        mean_field_train(model, batches, cfg)
        accumulator_mean_field_train(reference, batches, 2, 0.05, 25)

        def arrays(m):
            return (m.weights + m.hidden_biases + [m.visible_bias, m.chain_v]
                    + m.chain_h + ([m.label_bias, m.chain_y] if classes else []))

        for got, want in zip(arrays(model), arrays(reference), strict=True):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(model.weights[0], w0)

    def test_hook_sees_step_anneal_and_no_momentum(self):
        batches = toy_batches(classes=2)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=26),
                             labels=batches)
        seen = []
        mean_field_train(model, batches,
                         TrainConfig(epochs=7, lr=0.08, seed=27,
                                     anneal=AnnealSchedule(AnnealKind.DIVIDE, 1.0)),
                         hook=lambda e, lr, rho: seen.append((e, lr, rho)))
        assert seen == [(e, 0.08 if e < 5 else 0.04, 0.0) for e in range(7)]


class TestClassify:
    def test_bias_dominant_label_unit_wins(self):
        batches = toy_batches(classes=3)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=0, seed=17),
                             labels=batches)
        model.label_bias[:] = [[-30.0, 30.0, -30.0]]
        model.weights[-1][:] = 0.0
        pred = predict_dbm(model, (make_rng(18).random((5, 4)) > 0.5).astype(float))
        assert np.all(pred.argmax(axis=1) == 1)

    def test_deterministic_given_model(self):
        batches = toy_batches(classes=2)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=19),
                             labels=batches)
        data = make_rng(20).random((6, 4))
        labels = make_rng(21).integers(0, 2, (6, 1)).astype(float)
        a = classify_dbm(model, data, labels)
        b = classify_dbm(model, data, labels)
        assert a.error_rate == b.error_rate
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_requires_labels(self):
        model = random_dbm([4, 3, 2], seed=22)
        with pytest.raises(ConfigError):
            predict_dbm(model, np.zeros((1, 4)))
