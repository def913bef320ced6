"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The desk-scale classification and reconstruction criteria run on real MNIST
when MDL_DATA_DIR points at the IDX files; otherwise they run on the
deterministic synthetic corpus with identical shapes and thresholds, and
the printed line names the data source. Enumeration, gradient, format, and
reproducibility criteria are dataset-independent.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import boltznet as bn
from boltznet import autoencoder as ae
from boltznet import dbm as dbm_mod
from boltznet import dbn as dbn_mod
from boltznet import dnn as dnn_mod
from boltznet import rbm as rbm_mod
from boltznet.cli import main
from boltznet.core import ActivationKind, LossKind, classify, loss, make_rng
from boltznet.data import (FormatError, one_of_k, read_cifar10,
                           read_mnist_images, read_mnist_labels)
from boltznet.oracle import (dbn_evidence, dbn_log_joint, dbn_recognition_q,
                             exact_conditional, exact_likelihood_gradient,
                             exact_partition, finite_difference_gradient,
                             variational_bound, _rbm_energy_grid)
from boltznet.optim import NO_MOMENTUM
from boltznet.rbm import RbmLayer, TrainConfig
from boltznet.synth import (write_cifar_batch, write_idx_images, write_idx_labels,
                            write_mnist_style_dir)


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_oracle_equivalence():
    t0 = time.monotonic()
    rng = make_rng(42)
    worst_cond = worst_fe = 0.0
    for _ in range(200):
        n_v = int(rng.integers(1, 9))
        n_h = int(rng.integers(1, min(13 - n_v, 9)))
        layer = RbmLayer(w=rng.normal(0, 1, (n_v, n_h)),
                         b_v=rng.normal(0, 1, (1, n_v)),
                         b_h=rng.normal(0, 1, (1, n_h)))
        v = (rng.random(n_v) > 0.5).astype(float)
        marg = exact_conditional(layer, visible=v).marginals()
        probs = rbm_mod.hidden_given_visible(layer, v.reshape(1, -1))[0]
        worst_cond = max(worst_cond, float(np.abs(probs - marg).max()))
        z = exact_partition(layer)
        lhs = np.exp(-rbm_mod.free_energy(layer, v.reshape(1, -1))) / z
        _, _, grid = _rbm_energy_grid(layer)
        row = int((v * 2 ** np.arange(n_v)).sum())
        rhs = np.exp(-grid[row]).sum() / z
        worst_fe = max(worst_fe, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    ok = worst_cond < 1e-10 and worst_fe < 1e-10 and elapsed < 10
    _report(1, "oracle equivalence (200 RBMs)", ok,
            f"worst conditional dev {worst_cond:.2e}, worst free-energy dev "
            f"{worst_fe:.2e}, {elapsed:.1f}s")


def _stack_fd_worst(stack, x, t, kind):
    grads = dnn_mod.backprop_gradients(stack, x, t, kind)
    params = [p for l in stack.layers for p in (l.w, l.b_h)]

    def objective(ps):
        for i, layer in enumerate(stack.layers):
            layer.w, layer.b_h = ps[2 * i], ps[2 * i + 1]
        return loss(dnn_mod.predict(stack, x), t, kind)

    fd = finite_difference_gradient(objective, params)
    objective(params)
    worst = 0.0
    for i in range(len(stack.layers)):
        for j in (0, 1):
            rel = (np.abs(grads[i][j] - fd[2 * i + j]).max()
                   / max(np.abs(fd[2 * i + j]).max(), 1e-12))
            worst = max(worst, rel)
    return worst


def test_criterion_02_gradient_checks():
    t0 = time.monotonic()
    rng = make_rng(7)
    worst = 0.0
    # DNN with three hidden layers, mixed activations, softmax output
    x = rng.random((6, 6))
    t = one_of_k(rng.integers(0, 3, (6, 1)).astype(float), 3)
    stack = dnn_mod.pretrain_stack([6, 8, 7, 5, 3], [(x, t)],
                                   TrainConfig(epochs=0, seed=1), pretrain=False)
    for layer, kind in zip(stack.layers, [ActivationKind.SIGMOID,
                                          ActivationKind.TANH,
                                          ActivationKind.SIGMOID,
                                          ActivationKind.SOFTMAX]):
        layer.activation = kind
        layer.w = layer.w + rng.normal(0, 0.6, layer.w.shape)
        layer.b_h = layer.b_h + rng.normal(0, 0.2, layer.b_h.shape)
    worst = max(worst, _stack_fd_worst(stack, x, t, LossKind.CROSS_ENTROPY))
    # autoencoder head to toe, checked at a generic parameter point so no
    # layer's gradient degenerates to finite-difference noise
    x2 = rng.random((5, 5))
    model = ae.build_symmetric([5, 4, 3], [(x2, None)],
                               TrainConfig(epochs=2, lr=0.2, seed=2))
    for layer in model.stack.layers:
        layer.w = layer.w + rng.normal(0, 0.6, layer.w.shape)
        layer.b_h = layer.b_h + rng.normal(0, 0.2, layer.b_h.shape)
    worst = max(worst, _stack_fd_worst(model.stack, x2, x2, LossKind.MSE))
    # softmax head alone
    feats = rng.random((8, 4))
    labels = one_of_k(rng.integers(0, 3, (8, 1)).astype(float), 3)
    head = RbmLayer.random(4, 3, make_rng(3), activation=ActivationKind.SOFTMAX)
    dw, db = dnn_mod.backprop_gradients(dnn_mod.LayerStack([head]), feats, labels,
                                        LossKind.CROSS_ENTROPY)[0]

    def head_obj(ps):
        probe = RbmLayer(w=ps[0], b_v=head.b_v, b_h=ps[1],
                         activation=ActivationKind.SOFTMAX)
        c = rbm_mod.hidden_given_visible(probe, feats)
        return loss(c, labels, LossKind.CROSS_ENTROPY)

    fd = finite_difference_gradient(head_obj, [head.w, head.b_h])
    worst = max(worst, np.abs(dw - fd[0]).max() / np.abs(fd[0]).max())
    worst = max(worst, np.abs(db - fd[1]).max() / np.abs(fd[1]).max())
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 30
    _report(2, "gradient checks vs finite differences", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_cd_sanity():
    t0 = time.monotonic()
    rng = make_rng(0)
    layer = RbmLayer(w=rng.normal(0, 0.5, (3, 2)), b_v=rng.normal(0, 0.2, (1, 3)),
                     b_h=rng.normal(0, 0.2, (1, 2)))
    data = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1.0]])
    exact = exact_likelihood_gradient(layer, data)
    acc = np.zeros_like(layer.w)
    for seed in range(10000):
        acc += rbm_mod.cd_step(layer, data, 1, 0.0, make_rng(seed)).dw
    acc /= 10000
    cos = float((acc * -exact.dw).sum()
                / (np.linalg.norm(acc) * np.linalg.norm(exact.dw)))
    elapsed = time.monotonic() - t0
    ok = cos > 0.0 and elapsed < 60
    _report(3, "CD-1 aligns with the exact likelihood gradient", ok,
            f"cosine {cos:.4f} over 10^4 seeds, {elapsed:.1f}s")


def test_criterion_04_rbm_classification(desk10k):
    t0 = time.monotonic()
    cfg = TrainConfig(epochs=6, lr=0.1, dropout_rate=0.2, seed=0)
    rng = make_rng(0)
    layer = RbmLayer.random(784, 500, rng)
    rbm_mod.train_binary(layer, desk10k.batches, cfg)
    head = RbmLayer.random(500, 10, rng, activation=ActivationKind.SOFTMAX)
    feats = [(rbm_mod.hidden_given_visible(layer, x), y) for x, y in desk10k.batches]
    rbm_mod.train_classifier_head(head, feats, cfg)
    report = classify(dnn_mod.predict(dnn_mod.LayerStack([layer, head]), desk10k.test_x),
                      desk10k.test_y)
    elapsed = time.monotonic() - t0
    ok = report.error_rate <= 0.12 and elapsed < 600
    _report(4, "RBM + softmax head on the 10k/2k subset", ok,
            f"test error {report.error_rate:.4f} <= 0.12 "
            f"({desk10k.source}), {elapsed:.0f}s")


def test_criterion_05_dnn_fine_tuning_gain(desk10k):
    t0 = time.monotonic()
    cfg = TrainConfig(epochs=6, lr=0.1, seed=0)
    stack = dnn_mod.pretrain_stack([784, 500, 300, 200, 10], desk10k.batches, cfg)
    feats = dnn_mod.hidden_features(stack, desk10k.batches)
    rbm_mod.train_classifier_head(stack.layers[-1], feats, cfg)
    pre_err = classify(dnn_mod.predict(stack, desk10k.test_x), desk10k.test_y).error_rate
    dnn_mod.backprop_fine_tune(stack, desk10k.batches, LossKind.CROSS_ENTROPY,
                               replace(cfg, epochs=12))
    ft_err = classify(dnn_mod.predict(stack, desk10k.test_x), desk10k.test_y).error_rate
    elapsed = time.monotonic() - t0
    ok = ft_err < pre_err and ft_err <= 0.08 and elapsed < 1200
    _report(5, "DNN fine-tuning strictly improves", ok,
            f"pretrain-only {pre_err:.4f} -> fine-tuned {ft_err:.4f} "
            f"(<= 0.08, {desk10k.source}), {elapsed:.0f}s")


def test_criterion_06_dae_improvement_dominance(desk5k):
    t0 = time.monotonic()
    rate = 0.3
    batches = [(b[0], None) for b in desk5k.batches]
    build_cfg = TrainConfig(epochs=3, lr=0.1, seed=0)
    ft_cfg = TrainConfig(epochs=8, lr=0.1, seed=5)

    def denoise_error(model):
        noisy = ae.corrupt(desk5k.test_x, rate, make_rng(99))
        return loss(ae.reconstruct(model, noisy), desk5k.test_x, LossKind.MSE)

    dae = ae.build_symmetric([784, 500, 300], batches, build_cfg, denoise_rate=rate)
    plain = ae.build_symmetric([784, 500, 300], batches, build_cfg)
    dae_before = denoise_error(dae)
    ae_before = ae.reconstruction_error(plain, desk5k.test_x)
    ae.fine_tune_mse(dae, batches, ft_cfg)
    ae.fine_tune_mse(plain, batches, ft_cfg)
    dae_drop = dae_before - denoise_error(dae)
    ae_drop = ae_before - ae.reconstruction_error(plain, desk5k.test_x)
    elapsed = time.monotonic() - t0
    ok = dae_drop > ae_drop
    _report(6, "fine-tuning helps the DAE more than the AE", ok,
            f"DAE drop {dae_drop:.2f} > AE drop {ae_drop:.2f} "
            f"({desk5k.source}), {elapsed:.0f}s")


def test_criterion_07_dbn_fine_tuning_gain(desk10k):
    t0 = time.monotonic()
    model = dbn_mod.pretrain_dbn([784, 500, 300], desk10k.batches,
                                 TrainConfig(epochs=1, lr=0.1, seed=0), labels=True)
    pre = classify(dbn_mod.predict_dbn(model, desk10k.test_x), desk10k.test_y).error_rate
    dbn_mod.up_down_fine_tune(model, desk10k.batches,
                              TrainConfig(epochs=5, lr=0.02, seed=1,
                                          momentum=NO_MOMENTUM))
    ft = classify(dbn_mod.predict_dbn(model, desk10k.test_x), desk10k.test_y).error_rate
    elapsed = time.monotonic() - t0
    ok = ft < pre
    _report(7, "up-down fine-tuning strictly improves the DBN", ok,
            f"pretrain-only {pre:.4f} -> fine-tuned {ft:.4f} "
            f"({desk10k.source}), {elapsed:.0f}s")


def test_criterion_08_dbm_mean_field_gain(desk3k):
    t0 = time.monotonic()
    # exact fixed point on a zero-weight model
    zero = dbm_mod.DbmModel(
        weights=[np.zeros((4, 3)), np.zeros((3, 2))],
        visible_bias=np.zeros((1, 4)),
        hidden_biases=[np.zeros((1, 3)), np.zeros((1, 2))])
    mus, _ = dbm_mod.mean_field_states(zero, np.zeros((3, 4)))
    fixed_ok = all(np.all(m == 0.5) for m in mus)

    model = dbm_mod.pretrain_dbm([784, 500, 500], desk3k.batches,
                                 TrainConfig(epochs=2, lr=0.05, seed=0), labels=True)
    pre_acc = 1.0 - classify(dbm_mod.predict_dbm(model, desk3k.test_x),
                             desk3k.test_y).error_rate
    dbm_mod.mean_field_train(model, desk3k.batches,
                             TrainConfig(epochs=40, lr=0.004, seed=1,
                                         momentum=NO_MOMENTUM))
    ft_acc = 1.0 - classify(dbm_mod.predict_dbm(model, desk3k.test_x),
                            desk3k.test_y).error_rate
    elapsed = time.monotonic() - t0
    ok = fixed_ok and ft_acc > pre_acc
    _report(8, "mean-field training strictly improves the DBM", ok,
            f"accuracy {pre_acc:.4f} -> {ft_acc:.4f}, zero-weight fixed point "
            f"mu=0.5 {'exact' if fixed_ok else 'WRONG'} "
            f"({desk3k.source}), {elapsed:.0f}s")


def test_criterion_09_variational_bound():
    t0 = time.monotonic()
    from test_dbn import random_dbn

    worst_gap = -np.inf
    worst_eq = 0.0
    for seed in range(100):
        sizes = [(3, 2, 2), (4, 3, 2), (2, 2, 2, 2)][seed % 3]
        model = random_dbn(seed, sizes=sizes)
        x = (make_rng(seed + 1000).random((1, sizes[0])) > 0.5).astype(float)
        log_px, posterior = dbn_evidence(model, x)
        _, log_joint = dbn_log_joint(model, x)
        bound = variational_bound(log_joint, dbn_recognition_q(model, x))
        worst_gap = max(worst_gap, bound - log_px)
        tight = variational_bound(log_joint, posterior.probs)
        worst_eq = max(worst_eq, abs(tight - log_px))
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-8 and worst_eq <= 1e-8
    _report(9, "variational bound on 100 enumerable DBNs", ok,
            f"max(bound - log P(x)) {worst_gap:.2e}, worst posterior equality "
            f"dev {worst_eq:.2e}, {elapsed:.1f}s")


def test_criterion_10_format_conformance(tmp_path):
    t0 = time.monotonic()
    # full-size shape conformance on synthetic files (real files when present)
    import os

    data_dir = os.environ.get("MDL_DATA_DIR", "")
    if data_dir and Path(data_dir, "train-images-idx3-ubyte").exists():
        images = read_mnist_images(Path(data_dir, "train-images-idx3-ubyte"))
        labels = read_mnist_labels(Path(data_dir, "train-labels-idx1-ubyte"))
        source = "mnist"
    else:
        write_idx_images(tmp_path / "imgs", np.zeros((60000, 784), dtype=np.uint8),
                         28, 28)
        write_idx_labels(tmp_path / "labs", np.zeros(60000, dtype=np.uint8))
        images = read_mnist_images(tmp_path / "imgs")
        labels = read_mnist_labels(tmp_path / "labs")
        source = "synthetic"
    shapes_ok = images.shape == (60000, 784) and labels.shape == (60000, 1)

    cifar_paths = []
    for i in range(6):
        p = tmp_path / f"cifar{i}.bin"
        write_cifar_batch(p, np.zeros(10000, dtype=np.uint8),
                          np.zeros((10000, 3072), dtype=np.uint8))
        cifar_paths.append(p)
    tr_x, tr_y, te_x, te_y = read_cifar10(cifar_paths)
    shapes_ok = shapes_ok and tr_x.shape == (50000, 3072) and te_x.shape == (10000, 3072)

    # corrupted headers must be rejected
    rejected = 0
    (tmp_path / "badmagic").write_bytes(b"\x00\x00\x08\x05" + b"\x00" * 12)
    try:
        read_mnist_images(tmp_path / "badmagic")
    except FormatError:
        rejected += 1
    (tmp_path / "badlen").write_bytes(b"\x00" * 3072)
    try:
        read_cifar10([tmp_path / "badlen"] * 6)
    except FormatError:
        rejected += 1

    # synthetic two-image round trip, byte exact
    rng = make_rng(0)
    pixels = rng.integers(0, 256, (2, 784)).astype(np.uint8)
    write_idx_images(tmp_path / "two", pixels, 28, 28)
    m = read_mnist_images(tmp_path / "two")
    write_idx_images(tmp_path / "two-again", m, 28, 28)
    round_trip = (tmp_path / "two").read_bytes() == (tmp_path / "two-again").read_bytes()

    elapsed = time.monotonic() - t0
    ok = shapes_ok and rejected == 2 and round_trip and elapsed < 5
    _report(10, "reader format conformance", ok,
            f"shapes ok={shapes_ok}, rejections={rejected}/2, "
            f"round-trip={'byte-exact' if round_trip else 'MISMATCH'} "
            f"({source}), {elapsed:.1f}s")


def test_criterion_11_cli_reproducibility(tmp_path):
    t0 = time.monotonic()
    data_dir = tmp_path / "data"
    write_mnist_style_dir(data_dir, n_train=400, n_test=80, seed=2)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["run-rbm", "--hidden", "16", "--epochs", "2",
                     "--batches", "8", "--seed", "5",
                     "--data-dir", str(data_dir), "--out-dir", str(out)])
        assert code == 0
        outs.append(out)

    def stripped(out):
        lines = Path(out, "metrics.txt").read_text().splitlines()
        return [" ".join(t for t in line.split() if not t.startswith("wall_ms="))
                for line in lines]

    identical = stripped(outs[0]) == stripped(outs[1])
    configs_identical = (json.loads((outs[0] / "config.json").read_text())["seed"]
                         == json.loads((outs[1] / "config.json").read_text())["seed"])
    elapsed = time.monotonic() - t0
    ok = identical and configs_identical
    _report(11, "CLI runs are reproducible", ok,
            f"metrics byte-identical modulo wall-clock={identical}, {elapsed:.0f}s")


def test_bimodal_substitute_property():
    # stands in for the non-reproducible AvLetters figure: a bimodal
    # autoencoder trained on an identity modality pair predicts the missing
    # modality with small error
    from boltznet.multimodal import build_bimodal, modal_error_rate, predict_modal

    t0 = time.monotonic()
    basis = make_rng(100).random((6, 20))
    coef = make_rng(7).random((1500, 6))
    coef /= coef.sum(axis=1, keepdims=True)
    data_a = coef @ basis
    cfg = TrainConfig(epochs=8, lr=0.3, seed=3)
    model, batches = build_bimodal(data_a, data_a.copy(), [40, 30], cfg, 30,
                                   denoise_rate=0.3)
    ae.fine_tune_mse(model.ae, batches, replace(cfg, epochs=200))
    tc = make_rng(8).random((300, 6))
    tc /= tc.sum(axis=1, keepdims=True)
    test_a = tc @ basis
    pred = predict_modal(model, test_a)
    mae = float(np.abs(pred - test_a).mean())
    rate = modal_error_rate(pred, test_a)
    elapsed = time.monotonic() - t0
    ok = mae < 0.05 and rate < 10.0
    _report(12, "bimodal modal-prediction substitute", ok,
            f"per-entry error {mae:.4f} < 0.05, relative L2 {rate:.2f}% < 10% "
            f"(synthetic identity pair), {elapsed:.0f}s")
