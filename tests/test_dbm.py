import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from boltznet.core import (ConfigError, DomainError, ShapeError, classify, make_rng,
                           sigmoid, softmax)
from boltznet.data import make_batches, one_of_k
from boltznet.dbm import (MEAN_FIELD_MAX_SWEEPS, MEAN_FIELD_TOL, DbmModel,
                          dbm_energy, mean_field_states,
                          mean_field_train, predict_dbm, pretrain_dbm)
from boltznet.oracle import dbm_joint, exact_partition
from boltznet import dbm as dbm_mod
from boltznet import rbm as rbm_mod
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


def traced_peak(run):
    """The largest traced allocation while `run()` runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        from boltznet.rbm import RbmLayer, _train_rbm

        rng = make_rng(cfg.seed)
        first = RbmLayer.random(5, 4, rng)
        _train_rbm(first, [x for x, _ in batches], cfg, up_scale=2.0)
        feats = [sigmoid(2.0 * (b[0] @ first.w) + first.b_h) for b in batches]
        mid = RbmLayer.random(4, 3, rng)
        _train_rbm(mid, feats, replace(cfg, seed=cfg.seed + 1))
        np.testing.assert_array_equal(model.weights[1], mid.w * 0.5)
        np.testing.assert_array_equal(model.hidden_biases[1], mid.b_h * 0.5)

    def test_first_and_last_layers_bitwise_with_labels(self):
        batches = toy_batches(dim=5, classes=3)
        cfg = TrainConfig(epochs=2, lr=0.2, seed=12)
        model = pretrain_dbm([5, 4, 3, 2], batches, cfg, labels=True)
        # retrain every RBM by hand: doubled up pass first, doubled down
        # pass last on [features || labels]
        from boltznet.rbm import RbmLayer, _train_rbm

        rng = make_rng(cfg.seed)
        first = RbmLayer.random(5, 4, rng)
        mid = RbmLayer.random(4, 3, rng)
        last = RbmLayer.random(3 + 3, 2, rng)
        _train_rbm(first, [x for x, _ in batches], cfg, up_scale=2.0)
        feats = [sigmoid(2.0 * (b[0] @ first.w) + first.b_h) for b in batches]
        _train_rbm(mid, feats, replace(cfg, seed=cfg.seed + 1))
        feed = [np.hstack([sigmoid(f @ mid.w + mid.b_h), b[1]])
                for f, b in zip(feats, batches)]
        _train_rbm(last, feed, replace(cfg, seed=cfg.seed + 2), down_scale=2.0)
        assert model.label_dim == 3
        for got, ref in ((model.weights[0], first.w),
                         (model.hidden_biases[0], first.b_h),
                         (model.visible_bias, first.b_v),
                         (model.weights[2], last.w),
                         (model.hidden_biases[2], last.b_h),
                         (model.label_bias, last.b_v[:, 3:])):
            np.testing.assert_array_equal(got, ref)

    def test_first_and_last_weights_stored_unscaled(self):
        batches = toy_batches(dim=5)
        model = pretrain_dbm([5, 3, 2], batches, TrainConfig(epochs=1, seed=5))
        assert model.weights[0].shape == (5, 3)
        assert model.weights[1].shape == (3, 2)

    def test_chain_count_defaults_to_batch_count(self):
        batches = toy_batches(dim=4, num_batches=4)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=6))
        assert all(s.shape[0] == 4 for s in model.chains)

    def test_needs_two_hidden_layers(self):
        with pytest.raises(ConfigError):
            pretrain_dbm([4, 3], toy_batches(), TrainConfig(epochs=1, seed=7))

    def test_labels_are_checked_before_any_training(self, bad_label_batches,
                                                    monkeypatch):
        batches, error = bad_label_batches
        trained = []
        monkeypatch.setattr(rbm_mod, "_train_rbm",
                            lambda *args, **kw: trained.append(args))
        with pytest.raises(error):
            pretrain_dbm([3, 4, 2], batches, TrainConfig(epochs=1), labels=True)
        assert trained == []

    def test_empty_batch_list_is_domain_error(self):
        with pytest.raises(DomainError, match="at least one batch"):
            pretrain_dbm([3, 4, 2], [], TrainConfig(epochs=1))

    def test_label_slots_join_top_weight(self):
        batches = toy_batches(classes=3)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=8),
                             labels=True)
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

    def test_given_labels_are_clamped(self):
        batches = toy_batches(classes=3)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=8),
                             labels=True)
        x, y = batches[0]
        _, y_mu = mean_field_states(model, x, y)
        np.testing.assert_array_equal(y_mu, y)


def per_sweep_mean_field(model, v, y=None, tol=MEAN_FIELD_TOL,
                         max_sweeps=MEAN_FIELD_MAX_SWEEPS):
    """The mean-field settle written out with the clamped visible drive
    v @ W1 recomputed in the doubled bottom-up pass and in every sweep."""
    n = model.n_layers
    free = y is None
    y_mu = np.zeros((len(v), model.label_dim)) if free else y

    def layer_input(l, hs, y_mu):
        below = v if l == 0 else hs[l - 1]
        if l == n - 1 and model.label_dim:
            below = np.hstack([below, y_mu])
        z = below @ model.weights[l]
        if l == n - 1:
            return z + model.hidden_biases[l]
        if len(hs) <= l + 1:
            return 2.0 * z + model.hidden_biases[l]
        return (z + model.hidden_biases[l]
                + hs[l + 1] @ model.weights[l + 1][:model.weights[l].shape[1]].T)

    mus = []
    for l in range(n):
        mus.append(sigmoid(layer_input(l, mus, y_mu)))
    history = []
    for _ in range(max_sweeps):
        max_change = 0.0
        for l in range(n):
            new_mu = sigmoid(layer_input(l, mus, y_mu))
            max_change = max(max_change, float(np.abs(new_mu - mus[l]).max()))
            mus[l] = new_mu
        if free and model.label_dim:
            top_rows = model.weights[-1].shape[0] - model.label_dim
            new_y = softmax(mus[-1] @ model.weights[-1][top_rows:].T
                            + model.label_bias)
            max_change = max(max_change, float(np.abs(new_y - y_mu).max()))
            y_mu = new_y
        history.append(max_change)
        if max_change < tol:
            break
    return mus, y_mu, history


class TestMeanFieldReference:
    @pytest.mark.parametrize("sizes, classes, clamp", [
        ([5, 4, 3], 3, False), ([5, 4, 3], 3, True), ([5, 4, 3, 2], 0, False)],
        ids=["labelled-free", "labelled-clamped", "unlabelled"])
    @pytest.mark.parametrize("tol, max_sweeps", [
        (MEAN_FIELD_TOL, MEAN_FIELD_MAX_SWEEPS), (0.0, 7)], ids=["settle", "fixed"])
    def test_matches_per_sweep_visible_drive_bitwise(self, sizes, classes, clamp,
                                                     tol, max_sweeps):
        batches = toy_batches(seed=33, n=24, dim=5, num_batches=3, classes=classes)
        model = pretrain_dbm(sizes, batches, TrainConfig(epochs=3, lr=0.5, seed=34),
                             labels=bool(classes))
        for w in model.weights:
            w *= 4.0  # couple the layers strongly enough to need several sweeps
        x, yb = batches[1]
        y = yb if clamp else None
        got = mean_field_states(model, x, y, tol=tol, max_sweeps=max_sweeps,
                                return_history=True)
        if tol > 0.0:
            # each row stops on its own, so the reference settles one row at a
            # time; one-row and batch products may differ in the last bits
            per_row = [per_sweep_mean_field(model, x[i:i + 1], None if y is None
                                            else y[i:i + 1], tol=tol,
                                            max_sweeps=max_sweeps)
                       for i in range(len(x))]
            sweeps = [len(h) for _, _, h in per_row]
            assert max(sweeps) > 2
            for l, g in enumerate(got[0]):
                np.testing.assert_allclose(g, np.vstack([r[0][l] for r in per_row]),
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[1], np.vstack([r[1] for r in per_row]),
                                       rtol=0, atol=1e-12)
            want_history = [max(h[s] for _, _, h in per_row if len(h) > s)
                            for s in range(max(sweeps))]
            assert len(got[2]) == len(want_history)
            np.testing.assert_allclose(got[2], want_history, rtol=0, atol=1e-12)
            return
        # with tol 0 no row stops early: the batch sweeps as one, bitwise
        want = per_sweep_mean_field(model, x, y, tol=tol, max_sweeps=max_sweeps)
        assert len(want[2]) > 2
        for g, w in zip(got[0], want[0], strict=True):
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
        np.testing.assert_array_equal(np.asarray(got[1]).view(np.int64),
                                      np.asarray(want[1]).view(np.int64))
        assert got[2] == want[2]


class TestPerRowStop:
    """Each row leaves the settle at its own fixed point, so its means do
    not depend on the rows batched with it."""

    @pytest.fixture(scope="class")
    def strong(self):
        batches = toy_batches(seed=35, n=40, dim=6, num_batches=2, classes=3)
        model = pretrain_dbm([6, 5, 4], batches, TrainConfig(epochs=3, lr=0.5, seed=36),
                             labels=True)
        for w in model.weights:
            w *= 4.0  # couple the layers strongly enough that rows need different sweeps
        x = np.vstack([b[0] for b in batches])
        y = np.vstack([b[1] for b in batches])
        return model, x, y

    @staticmethod
    def settle_by(settle, n, size):
        """`settle` over consecutive slices of `size` rows, stacked."""
        return np.vstack([settle(slice(i, i + size)) for i in range(0, n, size)])

    def test_predictions_do_not_depend_on_batching(self, strong):
        model, x, _ = strong
        sweeps = {len(mean_field_states(model, x[i:i + 1], return_history=True)[2])
                  for i in range(len(x))}
        assert len(sweeps) > 1
        whole = predict_dbm(model, x)
        for size in (7, 1):
            np.testing.assert_allclose(
                self.settle_by(lambda r: predict_dbm(model, x[r]), len(x), size),
                whole, rtol=0, atol=1e-12)

    def test_clamped_means_do_not_depend_on_batching(self, strong):
        model, x, y = strong
        sweeps = {len(mean_field_states(model, x[i:i + 1], y[i:i + 1],
                                        return_history=True)[2]) for i in range(len(x))}
        assert len(sweeps) > 1
        whole = mean_field_states(model, x, y)[0]
        for size in (7, 1):
            for l, mu in enumerate(whole):
                np.testing.assert_allclose(
                    self.settle_by(lambda r: mean_field_states(model, x[r], y[r])[0][l],
                                   len(x), size),
                    mu, rtol=0, atol=1e-12)

    def test_never_writes_the_callers_arrays(self, strong):
        model, x, y = strong
        x_before, y_before = x.copy(), y.copy()
        mean_field_states(model, x)
        mean_field_states(model, x, y)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(y, y_before)

    def test_a_compaction_releases_the_means_of_the_rows_it_drops(self):
        # 1,000 rows of a 784-500-500 DBM with 10 labels settle in 784-row
        # groups, rows leaving at different sweeps. A settle holds five
        # rows-by-500 arrays: the visible drive, both layers' means, a layer
        # input and the sigmoid's temporary. The top layer's means from
        # before a compaction must not outlive it as a sixth
        rng = make_rng(0)
        model = DbmModel(weights=[rng.normal(0, 0.1, (784, 500)),
                                  rng.normal(0, 0.1, (510, 500))],
                         visible_bias=np.zeros((1, 784)),
                         hidden_biases=[np.zeros((1, 500)), np.zeros((1, 500))],
                         label_dim=10, label_bias=np.zeros((1, 10))).check()
        x = (rng.random((1000, 784)) < rng.random((1000, 1))).astype(float)
        assert model.group_rows == 784
        peak = traced_peak(lambda: predict_dbm(model, x))
        assert peak < 5.5 * 784 * 500 * 8

    def test_early_row_keeps_its_one_row_settle(self):
        # row 0 saturates layer 1 and settles in one sweep; row 1 sits on a
        # frustrated pair of units and runs out of the sweep budget
        model = zero_dbm([2, 1, 1])
        model.weights[0][:] = [[10.0], [0.0]]
        model.weights[1][:] = [[-4.0]]
        for b in model.hidden_biases:
            b[:] = 2.0
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        mus, _, history = mean_field_states(model, x, return_history=True)
        assert len(history) == MEAN_FIELD_MAX_SWEEPS and history[-1] >= MEAN_FIELD_TOL
        for i, sweeps in enumerate([1, MEAN_FIELD_MAX_SWEEPS]):
            alone, _, h = mean_field_states(model, x[i:i + 1], return_history=True)
            assert len(h) == sweeps
            for mu, a in zip(mus, alone, strict=True):
                np.testing.assert_allclose(mu[i:i + 1], a, rtol=0, atol=1e-12)


class TestTraining:
    def test_requires_pretrained_chains(self):
        model = random_dbm([4, 3, 2], seed=12)
        with pytest.raises(ConfigError):
            mean_field_train(model, toy_batches(), TrainConfig(epochs=1, lr=0.01, seed=0))

    def test_update_moves_weights_and_stays_finite(self):
        batches = toy_batches(dim=4, classes=2)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=13),
                             labels=True)
        w0 = model.weights[0].copy()
        mean_field_train(model, batches,
                         TrainConfig(epochs=3, lr=0.05, seed=14, momentum=NO_MOMENTUM))
        assert not np.allclose(model.weights[0], w0)
        assert all(np.all(np.isfinite(w)) for w in model.weights)

    @pytest.mark.parametrize("make_batches_for, error, match", [
        # label rows 5 + 7 against data rows 6 + 6: equal in total only
        (lambda x, y: [(x[:6], y[:5]), (x[6:], y[5:])], ShapeError,
         "5 label rows for 6 data rows"),
        (lambda x, y: [(x[:6], y[:6]), (x[6:, :4], y[6:])], ShapeError,
         "input width 4 != 5"),
        (lambda x, y: [], DomainError, "at least one data row"),
        (lambda x, y: [(x[:0], y[:0])], DomainError, "at least one data row"),
    ], ids=["label-rows", "data-width", "no-batches", "zero-rows"])
    def test_every_batch_is_checked_before_the_first_update(
            self, make_batches_for, error, match):
        # 8 hidden units join both 6-row batches into one settle
        batches = toy_batches(n=12, dim=5, num_batches=2, classes=3)
        model = pretrain_dbm([5, 8, 3], batches, TrainConfig(epochs=1, seed=31),
                             labels=True)
        before = copy.deepcopy(model)
        x = np.vstack([b[0] for b in batches])
        y = np.vstack([b[1] for b in batches])
        with pytest.raises(error, match=match):
            mean_field_train(model, make_batches_for(x, y),
                             TrainConfig(epochs=2, lr=0.05, seed=32))
        for got, want in zip(model_arrays(model), model_arrays(before), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_bad_labels_are_checked_before_the_first_update(self, bad_label_batches):
        bad, error = bad_label_batches
        good = toy_batches(n=12, dim=3, num_batches=2, classes=2)
        model = pretrain_dbm([3, 4, 2], good, TrainConfig(epochs=1, seed=33), labels=True)
        before = copy.deepcopy(model)
        with pytest.raises(error):
            mean_field_train(model, good + bad, TrainConfig(epochs=2, lr=0.05, seed=34))
        for got, want in zip(model_arrays(model), model_arrays(before), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_gradient_structure_matches_enumeration(self):
        # the infinite-sample update direction is the difference of data and
        # model pair expectations; long chains should approach the model term
        model = random_dbm([3, 2, 2], seed=15, scale=0.4)
        dist = dbm_joint(model)
        states = dist.states
        v, h1 = states[:, :3], states[:, 3:5]
        exact_pair = (v * dist.probs[:, None]).T @ h1  # E[v h1^T]
        # estimate the same expectation by Gibbs chains
        rng = make_rng(16)
        m = 300
        chains = [(rng.random((m, n)) > 0.5).astype(float) for n in (3, 2, 2)]
        from boltznet.dbm import _gibbs_sweep

        acc = np.zeros((3, 2))
        burn, draws = 200, 400
        for t in range(burn + draws):
            chains = _gibbs_sweep(model, chains, rng)
            if t >= burn:
                acc += chains[0].T @ chains[1] / m
        mc_pair = acc / draws
        cos = ((exact_pair * mc_pair).sum()
               / (np.linalg.norm(exact_pair) * np.linalg.norm(mc_pair)))
        assert cos > 0.9


def tiny_pretrained(classes):
    """A pretrained 5-4-3 DBM with six persistent chains, labelled when
    `classes` is nonzero."""
    batches = toy_batches(seed=41, n=24, dim=5, num_batches=6, classes=classes)
    return pretrain_dbm([5, 4, 3], batches, TrainConfig(epochs=1, lr=0.1, seed=42),
                        labels=bool(classes))


@pytest.mark.parametrize("classes", [3, 0], ids=["labelled", "unlabelled"])
class TestChains:
    def test_gibbs_sweep_is_pure_and_seeded(self, classes):
        model = tiny_pretrained(classes)
        states = model.chains
        held, before = list(states), copy.deepcopy(model_arrays(model))
        first = dbm_mod._gibbs_sweep(model, states, make_rng(7))
        second = dbm_mod._gibbs_sweep(model, states, make_rng(7))
        assert model.chains is states
        assert all(a is b for a, b in zip(states, held, strict=True))
        for got, want in zip(model_arrays(model), before, strict=True):
            np.testing.assert_array_equal(got, want)
        assert [s.shape for s in first] == [s.shape for s in states]
        assert all(np.isin(s, (0.0, 1.0)).all() for s in first)
        if classes:
            np.testing.assert_array_equal(first[-1].sum(axis=1), 1.0)
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("edit", [
        lambda c: [],
        lambda c: c[:-1],
        lambda c: c + c[-1:],
        lambda c: [c[0][:, :-1], *c[1:]],
        lambda c: [c[0], np.hstack([c[1], c[1][:, :1]]), *c[2:]],
        lambda c: [*c[:-1], c[-1][:-1]],
    ], ids=["empty", "one-state-short", "one-state-extra", "visible-too-narrow",
            "hidden-too-wide", "uneven-rows"])
    def test_check_rejects_a_bad_chain_list(self, classes, edit):
        model = tiny_pretrained(classes).check()
        model.chains = edit(model.chains)
        with pytest.raises(ShapeError, match="persistent chains"):
            model.check()


def model_arrays(m):
    """Every array mean-field training may change: weights, biases, chains."""
    return (m.weights + m.hidden_biases + [m.visible_bias] + m.chains
            + ([m.label_bias] if m.label_dim else []))


def accumulator_mean_field_train(model, batches, iterations, lr, seed):
    """The stochastic-approximation update written out with explicit
    accumulators and `+=` on each parameter: plain SGD, STEP-annealed, the
    rate folded into each average (a sum over D rows divided by D / alpha)
    as the trainer folds it."""
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
    m_chains = model.chains[0].shape[0]
    for t in range(iterations):
        alpha = anneal(lr, t, AnnealSchedule(AnnealKind.STEP))
        acc_w = [np.zeros_like(w) for w in model.weights]
        acc_b = [np.zeros_like(b) for b in model.hidden_biases]
        acc_bv = np.zeros_like(model.visible_bias)
        acc_by = np.zeros_like(model.label_bias) if model.label_dim else None
        for x, yb in zip(data_batches, label_batches):
            mus, _ = mean_field_states(model, x, y=yb)
            for l, lower in enumerate(below(x, mus, yb)):
                acc_w[l] += lower.T @ mus[l]
                acc_b[l] += mus[l].sum(axis=0, keepdims=True)
            acc_bv += x.sum(axis=0, keepdims=True)
            if model.label_dim:
                acc_by += yb.sum(axis=0, keepdims=True)
        model.chains = _gibbs_sweep(model, model.chains, rng)
        v, *hs = model.chains[:len(model.weights) + 1]
        y = model.chains[-1] if model.label_dim else None
        data, chains = d_total / alpha, m_chains / alpha

        def total(s):
            return s.sum(axis=0, keepdims=True)

        for l, lower in enumerate(below(v, hs, y)):
            model.weights[l] += acc_w[l] / data - lower.T @ hs[l] / chains
            model.hidden_biases[l] += acc_b[l] / data - total(hs[l]) / chains
        model.visible_bias += acc_bv / data - total(v) / chains
        if model.label_dim:
            model.label_bias += acc_by / data - total(y) / chains


class TestTrainingReference:
    @pytest.mark.parametrize("sizes, classes", [([5, 4, 3], 3), ([5, 4, 3, 2], 0)],
                             ids=["labelled", "unlabelled"])
    def test_matches_accumulator_update_bitwise(self, sizes, classes):
        batches = toy_batches(seed=23, n=24, dim=5, num_batches=3, classes=classes)
        model = pretrain_dbm(sizes, batches, TrainConfig(epochs=2, lr=0.1, seed=24),
                             labels=bool(classes))
        reference = copy.deepcopy(model)
        w0 = model.weights[0].copy()
        # momentum and annealing in the config do not reach the update
        cfg = TrainConfig(epochs=2, lr=0.05, seed=25,
                          anneal=AnnealSchedule(AnnealKind.EXPONENTIAL, 1.0),
                          momentum=MomentumSchedule(0.5, 0.9, 1))
        mean_field_train(model, batches, cfg)
        accumulator_mean_field_train(reference, batches, 2, 0.05, 25)

        def arrays(m):
            return (m.weights + m.hidden_biases + [m.visible_bias] + m.chains
                    + ([m.label_bias] if classes else []))

        for got, want in zip(arrays(model), arrays(reference), strict=True):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(model.weights[0], w0)

    @pytest.mark.parametrize("classes", [3, 0], ids=["labelled", "unlabelled"])
    def test_grouped_settle_matches_per_batch_update(self, classes, monkeypatch):
        # a hidden layer of 7 units joins the eight 3-row batches into
        # groups of 9, 9 and 6 rows; each row settles alone, so only the
        # summation order of the data statistics changes, and float64 keeps
        # that within 1e-12
        batches = toy_batches(seed=33, n=24, dim=5, num_batches=8, classes=classes)
        model = pretrain_dbm([5, 7, 6], batches, TrainConfig(epochs=2, lr=0.1, seed=34),
                             labels=bool(classes))
        reference = copy.deepcopy(model)
        w0 = model.weights[0].copy()
        settled = []

        def spy(m, data, y=None):
            settled.append(len(data))
            return mean_field_states(m, data, y)

        monkeypatch.setattr(dbm_mod, "mean_field_states", spy)
        mean_field_train(model, batches, TrainConfig(epochs=2, lr=0.05, seed=35))
        accumulator_mean_field_train(reference, batches, 2, 0.05, 35)
        assert settled == [9, 9, 6] * 2
        for got, want in zip(model_arrays(model), model_arrays(reference), strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not np.array_equal(model.weights[0], w0)

    def test_data_phase_memory_does_not_grow_with_the_data(self):
        # 400 rows in 4-row batches settle in groups of 16 rows, so the
        # phase never holds means for every row as one settle would
        rng = make_rng(36)
        x = (rng.random((400, 20)) > 0.5).astype(float)
        batches = make_batches(x, None, 100)
        model = pretrain_dbm([20, 16, 16], batches, TrainConfig(epochs=0, seed=37))
        whole = traced_peak(lambda: mean_field_states(model, x))
        grouped = traced_peak(lambda: mean_field_train(
            model, batches, TrainConfig(epochs=1, lr=0.01, seed=38)))
        assert grouped < whole / 2

    def test_an_iteration_holds_no_velocity_and_one_set_of_sums(self):
        # the data statistics sum in the gradient buffers, the update keeps
        # no velocity and each statistic is formed alone, so on four rows an
        # iteration's peak stays below those buffers, one weight matrix and
        # one settle of the rows (a velocity or a second set of sums would
        # each add every trained array)
        rng = make_rng(39)
        x = (rng.random((4, 200)) > 0.5).astype(float)
        y = one_of_k(rng.integers(0, 10, (4, 1)).astype(float), 10)
        batches = make_batches(x, y, 1)
        model = pretrain_dbm([200, 150, 150], batches, TrainConfig(epochs=0, seed=40),
                             labels=True)
        trained = model.weights + model.hidden_biases + [model.visible_bias,
                                                         model.label_bias]
        settle = traced_peak(lambda: mean_field_states(model, x, y))
        used = traced_peak(lambda: mean_field_train(
            model, batches, TrainConfig(epochs=1, lr=0.01, seed=41)))
        assert used < (sum(a.nbytes for a in trained)
                       + max(w.nbytes for w in model.weights) + settle)

    def test_hook_sees_step_anneal_and_no_momentum(self):
        batches = toy_batches(classes=2)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=26),
                             labels=True)
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
                             labels=True)
        model.label_bias[:] = [[-30.0, 30.0, -30.0]]
        model.weights[-1][:] = 0.0
        pred = predict_dbm(model, (make_rng(18).random((5, 4)) > 0.5).astype(float))
        assert np.all(pred.argmax(axis=1) == 1)

    def test_deterministic_given_model(self):
        batches = toy_batches(classes=2)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=19),
                             labels=True)
        data = make_rng(20).random((6, 4))
        labels = make_rng(21).integers(0, 2, (6, 1)).astype(float)
        a = classify(predict_dbm(model, data), labels)
        b = classify(predict_dbm(model, data), labels)
        assert a.error_rate == b.error_rate
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_requires_labels(self):
        model = random_dbm([4, 3, 2], seed=22)
        with pytest.raises(ConfigError):
            predict_dbm(model, np.zeros((1, 4)))

    def test_zero_rows_give_empty_means(self):
        batches = toy_batches(classes=3)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=1, seed=27),
                             labels=True)
        x = np.zeros((0, 4))
        assert predict_dbm(model, x).shape == (0, 3)
        for y in (None, np.zeros((0, 3))):
            for tol in (MEAN_FIELD_TOL, 0.0):  # tol 0: every sweep runs, over no rows
                mus, y_mu = mean_field_states(model, x, y, tol=tol)
                assert [m.shape for m in mus] == [(0, 3), (0, 2)]
                assert y_mu.shape == (0, 3)

    def test_wrong_input_width_is_shape_error(self):
        batches = toy_batches(classes=3)
        model = pretrain_dbm([4, 3, 2], batches, TrainConfig(epochs=0, seed=28),
                             labels=True)
        with pytest.raises(ShapeError, match="input width 3 != 4"):
            predict_dbm(model, np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="input width 5 != 4"):
            mean_field_states(model, np.zeros((2, 5)))
        for bad in (np.zeros(4), np.zeros((2, 4, 3))):
            with pytest.raises(ShapeError, match="2-D rows"):
                predict_dbm(model, bad)
        # clamped labels must be label_dim wide, one row per data row
        x = np.zeros((8, 4))
        with pytest.raises(ShapeError, match="input width 2 != 3"):
            mean_field_states(model, x, np.zeros((8, 2)))
        with pytest.raises(ShapeError, match="7 label rows for 8 data rows"):
            mean_field_states(model, x, np.zeros((7, 3)))
