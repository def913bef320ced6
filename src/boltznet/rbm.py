"""Restricted Boltzmann Machine: energy, free energy, factorized
conditionals, contrastive-divergence training with dropout / annealing /
momentum / weight decay, the linear-unit variant, and the softmax
classifier head.

Conventions: a layer's weight matrix W is (n_v x n_h); the downward pass
always uses W^T (tied weights). Gradients follow the contrastive-divergence
sign, reconstruction statistics minus data statistics, so the update step
subtracts them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ActivationKind, ClassificationReport, ConfigError, DomainError,
                   Matrix, Rng, ShapeError, activate, classification_report,
                   label_indices, make_rng, sample_bernoulli, sigmoid)
from .data import _join_labels, batch_part
from .optim import (AnnealSchedule, MomentumSchedule, ParamGroup, WeightDecaySpec,
                    dropout_mask, run_epochs)

WEIGHT_INIT_STD = 0.01
TRIVIAL_GRADIENT = 1e-8  # early-stop threshold on the max-abs gradient


@dataclass
class RbmLayer:
    """One layer's parameters. The weight from hidden back to visible is
    always w.T, never stored separately."""

    w: np.ndarray          # (n_v, n_h)
    b_v: np.ndarray        # (1, n_v)
    b_h: np.ndarray        # (1, n_h)
    activation: ActivationKind = ActivationKind.SIGMOID
    index: int = 0

    @property
    def n_v(self) -> int:
        return self.w.shape[0]

    @property
    def n_h(self) -> int:
        return self.w.shape[1]

    @classmethod
    def random(cls, n_v: int, n_h: int, rng: Rng,
               activation: ActivationKind = ActivationKind.SIGMOID,
               index: int = 0) -> "RbmLayer":
        """Gaussian weights (std 0.01), zero biases."""
        w = rng.normal(0.0, WEIGHT_INIT_STD, size=(n_v, n_h))
        return cls(w=w, b_v=np.zeros((1, n_v)), b_h=np.zeros((1, n_h)),
                   activation=activation, index=index)

    def check(self) -> "RbmLayer":
        """Raise ShapeError unless each bias is one row as wide as its side of w."""
        if self.b_v.shape != (1, self.n_v) or self.b_h.shape != (1, self.n_h):
            raise ShapeError(f"layer {self.index}: biases {self.b_v.shape}, "
                             f"{self.b_h.shape} do not fit weight {self.w.shape}")
        return self


def _check_chain(shapes, label_dim: int = 0) -> None:
    """Raise ShapeError unless the weight shapes (n_v, n_h), bottom first, are
    non-empty and chain: each n_v is the n_h below, plus `label_dim` on top."""
    if not shapes or any(0 in s for s in shapes) or not 0 <= label_dim < shapes[-1][0]:
        raise ShapeError(f"weight shapes {shapes} with {label_dim} label rows")
    for i in range(1, len(shapes)):
        extra = label_dim if i == len(shapes) - 1 else 0
        if shapes[i - 1][1] + extra != shapes[i][0]:
            raise ShapeError(f"layer {i - 1} output {shapes[i - 1][1]} != "
                             f"layer {i} input {shapes[i][0] - extra}")


@dataclass
class CdGradients:
    """Contrastive-divergence gradients, shapes mirroring RbmLayer."""

    dw: np.ndarray
    db_v: np.ndarray
    db_h: np.ndarray

    def max_abs(self) -> float:
        return max(np.abs(self.dw).max(), np.abs(self.db_v).max(),
                   np.abs(self.db_h).max())


@dataclass
class TrainConfig:
    epochs: int
    num_batches: int = 1
    lr: float = 0.1
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    momentum: MomentumSchedule = field(default_factory=MomentumSchedule)
    decay: WeightDecaySpec = field(default_factory=WeightDecaySpec)
    dropout_rate: float = 0.0
    gibbs_steps: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.gibbs_steps < 1:
            raise ConfigError("gibbs_steps must be >= 1")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1]")
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")


def hidden_given_visible(rbm: RbmLayer, v: Matrix) -> Matrix:
    """P(h_j = 1 | v) per row: activation(v W + b_h)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[1] != rbm.n_v:
        raise ShapeError(f"visible width {v.shape[1]} != {rbm.n_v}")
    return activate(v @ rbm.w + rbm.b_h, rbm.activation)


def visible_given_hidden(rbm: RbmLayer, h: Matrix) -> Matrix:
    """P(v_i = 1 | h) per row: sigmoid(h W^T + b_v) via the tied weights."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[1] != rbm.n_h:
        raise ShapeError(f"hidden width {h.shape[1]} != {rbm.n_h}")
    return sigmoid(h @ rbm.w.T + rbm.b_v)


def _check_binary(x: Matrix, name: str) -> Matrix:
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x == 0.0) | (x == 1.0)):
        raise DomainError(f"{name} must be a binary state")
    return x


def energy(rbm: RbmLayer, v: Matrix, h: Matrix) -> float:
    """Joint energy of one binary configuration:
    -b_v v^T - b_h h^T - v W h^T."""
    v = _check_binary(v, "visible state").reshape(1, -1)
    h = _check_binary(h, "hidden state").reshape(1, -1)
    if v.shape[1] != rbm.n_v or h.shape[1] != rbm.n_h:
        raise ShapeError("state widths do not match the layer")
    return (-(rbm.b_v @ v.T) - (rbm.b_h @ h.T) - v @ rbm.w @ h.T).item()


def free_energy(rbm: RbmLayer, x: Matrix) -> float:
    """Effective energy of a visible state with hidden units marginalized:
    F(x) = -sum_i b_v_i x_i - sum_j log(1 + exp(b_h_j + sum_k W_kj x_k))."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != rbm.n_v:
        raise ShapeError(f"visible width {x.shape[1]} != {rbm.n_v}")
    z = x @ rbm.w + rbm.b_h
    return (-(x @ rbm.b_v.T)).item() - float(np.logaddexp(0.0, z).sum())


def mean_free_energy(rbm: RbmLayer, data: Matrix) -> float:
    data = np.asarray(data, dtype=np.float64)
    z = data @ rbm.w + rbm.b_h
    per_row = -(data * rbm.b_v).sum(axis=1) - np.logaddexp(0.0, z).sum(axis=1)
    return float(per_row.mean())


def _cd_gradients(rbm: RbmLayer, batch: Matrix, h_probs_data: Matrix, h_drive: Matrix,
                  h_mean=None, down_scale: float = 1.0):
    """The reconstruction half of contrastive divergence: reconstruct the
    visible units from the driving hidden state, infer the hidden means
    again (sigmoid units unless `h_mean` says otherwise), and return
    (gradients, visible reconstruction)."""
    v_recon = sigmoid(down_scale * (h_drive @ rbm.w.T) + rbm.b_v)
    h_recon = h_mean(v_recon) if h_mean else sigmoid(v_recon @ rbm.w + rbm.b_h)
    m = batch.shape[0]
    dw = (v_recon.T @ h_recon - batch.T @ h_probs_data) / m
    db_v = (v_recon - batch).mean(axis=0, keepdims=True)
    db_h = (h_recon - h_probs_data).mean(axis=0, keepdims=True)
    return CdGradients(dw=dw, db_v=db_v, db_h=db_h), v_recon


def _cd_step(rbm: RbmLayer, batch: Matrix, k: int, dropout_rate: float, rng: Rng,
             up_scale: float = 1.0, down_scale: float = 1.0,
             linear_hidden: bool = False) -> CdGradients:
    """One contrastive-divergence estimate on a batch.

    Data statistics use hidden probabilities; the Gibbs chain is driven by
    sampled binary states (masked by dropout on every downward pass); the
    reconstruction statistics use probabilities for both layers. up_scale /
    down_scale support the asymmetric passes needed by DBM pretraining;
    linear_hidden switches the hidden units to identity mean plus
    unit-variance Gaussian noise.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.shape[0] < 1:
        raise DomainError("empty batch")
    if batch.shape[1] != rbm.n_v:
        raise ShapeError(f"batch width {batch.shape[1]} != {rbm.n_v}")
    if k < 1:
        raise ConfigError("gibbs step count must be >= 1")

    def h_mean(v):
        z = up_scale * (v @ rbm.w) + rbm.b_h
        return z if linear_hidden else sigmoid(z)

    def h_sample(mean):
        if linear_hidden:
            return mean + rng.standard_normal(mean.shape)
        return sample_bernoulli(mean, rng)

    h_probs_data = h_mean(batch)
    mask = dropout_mask(rbm.n_h, dropout_rate, rng)
    h_drive = h_sample(h_probs_data) * mask
    for _ in range(k - 1):
        v_states = sample_bernoulli(
            sigmoid(down_scale * (h_drive @ rbm.w.T) + rbm.b_v), rng)
        h_drive = h_sample(h_mean(v_states)) * mask
    return _cd_gradients(rbm, batch, h_probs_data, h_drive, h_mean, down_scale)[0]


def cd_step(rbm: RbmLayer, batch: Matrix, k: int, dropout_rate: float,
            rng: Rng) -> CdGradients:
    """Public CD-k gradient: reconstruction minus data statistics."""
    return _cd_step(rbm, batch, k, dropout_rate, rng)


def _train_rbm(rbm: RbmLayer, batches, cfg: TrainConfig, up_scale: float = 1.0,
               down_scale: float = 1.0, linear_hidden: bool = False,
               hook=None) -> RbmLayer:
    data_batches = batch_part(batches, 0)
    rng = make_rng(cfg.seed)
    params = ParamGroup([rbm.w], [rbm.b_v, rbm.b_h], cfg.decay)

    def epoch(lr, rho):
        max_grad = 0.0
        for data in data_batches:
            g = _cd_step(rbm, data, cfg.gibbs_steps, cfg.dropout_rate, rng,
                         up_scale=up_scale, down_scale=down_scale,
                         linear_hidden=linear_hidden)
            params.step([g.dw, g.db_v, g.db_h], lr, rho)
            max_grad = max(max_grad, g.max_abs())
        return max_grad < TRIVIAL_GRADIENT  # gradients trivial for a full epoch

    run_epochs(cfg, params, epoch, hook)
    return rbm


def train_binary(rbm: RbmLayer, batches, cfg: TrainConfig, hook=None) -> RbmLayer:
    """CD training with stochastic binary hidden units. The layer's weight
    and bias arrays are updated in place, so arrays a caller holds change
    with the model."""
    return _train_rbm(rbm, batches, cfg, hook=hook)


def train_linear(rbm: RbmLayer, batches, cfg: TrainConfig, hook=None) -> RbmLayer:
    """CD training with linear-Gaussian hidden units: the hidden mean is the
    raw input and samples add unit-variance noise; the visible side is
    unchanged. Updates the layer's arrays in place."""
    return _train_rbm(rbm, batches, cfg, linear_hidden=True, hook=hook)


def linear_hidden_sample(rbm: RbmLayer, v: Matrix, rng: Rng) -> Matrix:
    """Linear-unit hidden sample: the raw total input plus unit-variance
    Gaussian noise."""
    z = np.asarray(v, dtype=np.float64) @ rbm.w + rbm.b_h
    return z + rng.standard_normal(z.shape)


def _check_one_of_k(t: Matrix) -> None:
    if not np.all((t == 0.0) | (t == 1.0)) or not np.allclose(t.sum(axis=1), 1.0):
        raise DomainError("labels must be one-of-K rows")


def classifier_head_gradients(head: RbmLayer, features: Matrix, targets: Matrix):
    """Softmax cross-entropy gradients for one batch:
    grad_W = (a^h)^T (c - t) / m and grad_b = mean(c - t)."""
    if features.shape[1] != head.n_v or targets.shape[1] != head.n_h:
        raise ShapeError("feature/label widths do not match the head")
    m = features.shape[0]
    c = activate(features @ head.w + head.b_h, ActivationKind.SOFTMAX)
    dw = features.T @ (c - targets) / m
    db = (c - targets).mean(axis=0, keepdims=True)
    return dw, db


def train_classifier_head(head: RbmLayer, features, labels, cfg: TrainConfig,
                          hook=None) -> RbmLayer:
    """Batch gradient descent on softmax cross-entropy with one-of-K targets.

    The head's weight and bias arrays are updated in place."""
    feature_batches = batch_part(features, 0)
    label_batches = batch_part(labels, 1)
    if len(feature_batches) != len(label_batches):
        raise ShapeError("feature/label batch counts differ")
    params = ParamGroup([head.w], [head.b_h], cfg.decay)

    def epoch(lr, rho):
        for f, t in zip(feature_batches, label_batches):
            _check_one_of_k(t)
            params.step(classifier_head_gradients(head, f, t), lr, rho)

    run_epochs(cfg, params, epoch, hook)
    return head


def classify_rbm(rbm: RbmLayer, head: RbmLayer, data: Matrix,
                 labels: Matrix) -> ClassificationReport:
    """Predict through hidden probabilities and the softmax head; the class
    is the index of the maximum emission."""
    h = hidden_given_visible(rbm, data)
    scores = h @ head.w + head.b_h
    pred = scores.argmax(axis=1)
    return classification_report(pred, label_indices(labels), head.n_h)


def pretrain_config(cfg: TrainConfig, layer_index: int) -> TrainConfig:
    """Per-layer seed derivation so stacked layers train on distinct but
    reproducible streams."""
    return replace(cfg, seed=cfg.seed + layer_index)


def _pretrain_layers(sizes, batches, cfg: TrainConfig, labels=None, scales=None,
                     train: bool = True):
    """Greedy layer-wise pretraining, shared by every stacked model: one RBM
    per adjacent size pair, each trained (when `train` is set) on the
    previous RBM's hidden probabilities. `labels` are joined onto the last
    RBM's visible side; `scales[i]` gives RBM i's (up, down) pass scales,
    (1, 1) by default.

    Returns (layers, rng) so callers can keep drawing from the same stream.
    """
    rng = make_rng(cfg.seed)
    label_batches = batch_part(labels, 1) if labels is not None else []
    k = label_batches[0].shape[1] if label_batches else 0
    n = len(sizes) - 1
    layers = [RbmLayer.random(sizes[i] + (k if i == n - 1 else 0), sizes[i + 1], rng,
                              index=i) for i in range(n)]
    feats = batch_part(batches, 0)
    for i, layer in enumerate(layers if train else []):
        up, down = scales[i] if scales else (1.0, 1.0)
        if i == n - 1 and k:
            feats = _join_labels(feats, label_batches)
        _train_rbm(layer, feats, pretrain_config(cfg, i), up_scale=up, down_scale=down)
        if i < n - 1:
            feats = [sigmoid(up * (f @ layer.w) + layer.b_h) for f in feats]
    return layers, rng
