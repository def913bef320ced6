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

from .core import (ActivationKind, ConfigError, DomainError, LossKind, Matrix, Rng,
                   ShapeError, _row_count, activate, as_rows, check_batches, make_rng,
                   sample_bernoulli, sigmoid)
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

    @property
    def n_v(self) -> int:
        return self.w.shape[0]

    @property
    def n_h(self) -> int:
        return self.w.shape[1]

    @classmethod
    def random(cls, n_v: int, n_h: int, rng: Rng,
               activation: ActivationKind = ActivationKind.SIGMOID) -> "RbmLayer":
        """Gaussian weights (std 0.01), zero biases."""
        w = rng.normal(0.0, WEIGHT_INIT_STD, size=(n_v, n_h))
        return cls(w=w, b_v=np.zeros((1, n_v)), b_h=np.zeros((1, n_h)),
                   activation=activation)

    def check(self) -> "RbmLayer":
        """Raise ShapeError unless each bias is one row as wide as its side of w."""
        if self.b_v.shape != (1, self.n_v) or self.b_h.shape != (1, self.n_h):
            raise ShapeError(f"biases {self.b_v.shape}, {self.b_h.shape} do not fit "
                             f"weight {self.w.shape}")
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

    @classmethod
    def like(cls, rbm: "RbmLayer") -> "CdGradients":
        """Fresh buffers shaped like the layer's arrays."""
        return cls(np.empty_like(rbm.w), np.empty_like(rbm.b_v), np.empty_like(rbm.b_h))

    def max_abs(self) -> float:
        return max(max(g.max(), -g.min()) for g in (self.dw, self.db_v, self.db_h))


@dataclass
class TrainConfig:
    epochs: int
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


def _pre_activation(a: Matrix, w: np.ndarray, b: np.ndarray, scale: float = 1.0) -> Matrix:
    """scale * (a @ w) + b, formed in one fresh array that an activation may
    overwrite."""
    z = a @ w
    if scale != 1.0:
        z *= scale
    z += b
    return z


def _last_activation(layers, a: Matrix) -> Matrix:
    """The last of `layers`' activations of checked rows `a`: the one upward
    pass, each layer's activation(a W + b_h) of the one below. One activation
    is held at a time, and a sigmoid is written into its fresh pre-activation."""
    for layer in layers:
        a = _pre_activation(a, layer.w, layer.b_h)
        if layer.activation is ActivationKind.SIGMOID:
            sigmoid(a, out=a)
        else:
            a = activate(a, layer.activation)
    return a


def hidden_given_visible(rbm: RbmLayer, v: Matrix) -> Matrix:
    """P(h_j = 1 | v) per row: activation(v W + b_h)."""
    return _last_activation([rbm], as_rows(v, rbm.n_v))


def visible_given_hidden(rbm: RbmLayer, h: Matrix) -> Matrix:
    """P(v_i = 1 | h) per row: sigmoid(h W^T + b_v) via the tied weights."""
    z = _pre_activation(as_rows(h, rbm.n_h), rbm.w.T, rbm.b_v)
    return sigmoid(z, out=z)


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
    x = as_rows(np.reshape(x, (1, -1)), rbm.n_v)
    z = x @ rbm.w + rbm.b_h
    return (-(x @ rbm.b_v.T)).item() - float(np.logaddexp(0.0, z).sum())


def mean_free_energy(rbm: RbmLayer, data: Matrix) -> float:
    """`free_energy` averaged over the rows of `data`; DomainError for none."""
    data = as_rows(data, rbm.n_v)
    z = data @ rbm.w + rbm.b_h
    per_row = -(data * rbm.b_v).sum(axis=1) - np.logaddexp(0.0, z).sum(axis=1)
    return float(per_row.sum() / _row_count(data))


def _check_cd_units(rbm: RbmLayer) -> None:
    """ConfigError unless CD can sample the hidden units: SIGMOID or IDENTITY."""
    if rbm.activation not in (ActivationKind.SIGMOID, ActivationKind.IDENTITY):
        raise ConfigError(f"CD cannot sample {rbm.activation.name} hidden units")


def _cd_step(rbm: RbmLayer, batch: Matrix, k: int, mask, rng: Rng, out: CdGradients,
             up_scale: float = 1.0, down_scale: float = 1.0, lr: float = 1.0) -> Matrix:
    """One contrastive-divergence estimate on a batch: the gradients,
    scaled by `lr`, are written into `out`'s buffers and the visible
    reconstruction is returned.

    Data statistics use hidden probabilities; the Gibbs chain is driven by
    sampled hidden states, multiplied on every downward pass by the caller's
    dropout `mask` (a 1 x n_h row, or 1.0 for none); the reconstruction
    statistics use probabilities for both layers. up_scale / down_scale
    support the asymmetric passes needed by DBM pretraining. A layer with
    the IDENTITY activation has linear hidden units: identity mean plus
    unit-variance Gaussian noise; any other has sigmoid units. The batch and
    the units are taken as checked.
    """
    linear = rbm.activation is ActivationKind.IDENTITY
    def h_mean(v):
        z = _pre_activation(v, rbm.w, rbm.b_h, up_scale)
        return z if linear else sigmoid(z, out=z)

    def h_sample(mean):
        if linear:
            return mean + rng.standard_normal(mean.shape)
        return sample_bernoulli(mean, rng)

    h_probs_data = h_mean(batch)
    h_drive = h_sample(h_probs_data) * mask
    for step in range(k):  # the last reconstruction gives the statistics
        v_recon = _pre_activation(h_drive, rbm.w.T, rbm.b_v, down_scale)
        sigmoid(v_recon, out=v_recon)
        if step < k - 1:
            h_drive = h_sample(h_mean(sample_bernoulli(v_recon, rng))) * mask
    h_recon = h_mean(v_recon)
    # one GEMM: dw = [v_recon; batch]^T [h_recon; -h_probs_data] * lr / m,
    # lr folded into the batch-sized operand (exactly / m when lr is 1)
    h = np.vstack([h_recon, -h_probs_data])
    h /= batch.shape[0] / lr
    np.matmul(np.vstack([v_recon, batch]).T, h, out=out.dw)
    np.mean(v_recon - batch, axis=0, keepdims=True, out=out.db_v)
    np.mean(h_recon - h_probs_data, axis=0, keepdims=True, out=out.db_h)
    out.db_v *= lr
    out.db_h *= lr
    return v_recon


def cd_step(rbm: RbmLayer, batch: Matrix, k: int, dropout_rate: float,
            rng: Rng) -> CdGradients:
    """Public CD-k gradient: reconstruction minus data statistics, in
    fresh arrays; ConfigError, before any draw, for k < 1 or hidden units
    CD cannot sample."""
    [(batch, _)] = check_batches([(batch, None)], rbm.n_v)
    if k < 1:
        raise ConfigError("gibbs step count must be >= 1")
    _check_cd_units(rbm)
    g = CdGradients.like(rbm)
    _cd_step(rbm, batch, k, dropout_mask(rbm.n_h, dropout_rate, rng), rng, g)
    return g


def _train_rbm(rbm: RbmLayer, data_batches, cfg: TrainConfig, up_scale: float = 1.0,
               down_scale: float = 1.0, hook=None) -> RbmLayer:
    """CD training on checked visible batches; ConfigError, before any draw,
    for hidden units CD cannot sample."""
    _check_cd_units(rbm)
    rng = make_rng(cfg.seed)
    params = ParamGroup([rbm.w], [rbm.b_v, rbm.b_h], cfg.decay, cfg.momentum)
    g = CdGradients(*params.grads)

    def epoch(lr, rho):
        # every gradient so far below TRIVIAL_GRADIENT; the buffers hold lr * grad
        trivial = True
        for data in data_batches:
            mask = dropout_mask(rbm.n_h, cfg.dropout_rate, rng)
            _cd_step(rbm, data, cfg.gibbs_steps, mask, rng, g,
                     up_scale=up_scale, down_scale=down_scale, lr=lr)
            trivial = trivial and g.max_abs() < TRIVIAL_GRADIENT * lr
            params.step(lr, rho)
        return trivial  # gradients trivial for a full epoch: stop

    run_epochs(cfg, rbm, epoch, hook)
    return rbm


def train_binary(rbm: RbmLayer, batches, cfg: TrainConfig, hook=None) -> RbmLayer:
    """CD training with stochastic binary hidden units on batches checked
    by `core.check_batches`, each y ignored. The layer's arrays are updated
    in place."""
    return _train_rbm(rbm, [x for x, _ in check_batches(batches, rbm.n_v)], cfg, hook=hook)


def train_linear(rbm: RbmLayer, batches, cfg: TrainConfig, hook=None) -> RbmLayer:
    """CD training with linear-Gaussian hidden units: the hidden mean is the
    raw input and samples add unit-variance noise; the visible side is
    unchanged. Once its batches pass the check `train_binary` makes, marks
    the layer IDENTITY, so its conditionals and saved form match, and
    trains it as `train_binary` does."""
    xs = [x for x, _ in check_batches(batches, rbm.n_v)]
    rbm.activation = ActivationKind.IDENTITY
    return _train_rbm(rbm, xs, cfg, hook=hook)


def train_classifier_head(head: RbmLayer, batches, cfg: TrainConfig,
                          hook=None) -> RbmLayer:
    """Batch gradient descent on softmax cross-entropy over (features, y)
    batches checked by `core.check_batches`, y holding one-of-K targets:
    backpropagation through the one-layer stack [head], so the head must
    have the SOFTMAX activation (ConfigError otherwise). The head's arrays
    are updated in place."""
    from .dnn import LayerStack, _backprop_epochs  # dnn imports this module

    pairs = check_batches(batches, head.n_v, head.n_h, one_of_k=True)
    _backprop_epochs(LayerStack([head]), pairs, LossKind.CROSS_ENTROPY, cfg, hook)
    return head


def _pretrain_layers(sizes, batches, cfg: TrainConfig, labels=False, scales=None,
                     train: bool = True):
    """Greedy layer-wise pretraining on (x, y) batches, shared by every
    stacked model: one RBM per adjacent size pair, each trained (when
    `train` is set) on the previous RBM's hidden probabilities, RBM i on its
    own stream, seeded `cfg.seed + i`. The batches pass `core.check_batches`
    before any layer is drawn, each y read as one-of-K labels as wide as the
    first when `labels` is set; those labels are joined onto the last RBM's
    visible side. `scales[i]` gives RBM i's (up, down) pass scales, (1, 1)
    by default.

    Returns (layers, rng) so callers can keep drawing from the same stream.
    """
    k = as_rows(batches[0][1]).shape[1] if labels and batches else 0
    pairs = check_batches(batches, sizes[0], k if labels else None, one_of_k=True)
    rng = make_rng(cfg.seed)
    n = len(sizes) - 1
    layers = [RbmLayer.random(sizes[i] + (k if i == n - 1 else 0), sizes[i + 1], rng)
              for i in range(n)]
    scales = scales or [(1.0, 1.0)] * n
    feats = [x for x, _ in pairs]
    for i, layer in enumerate(layers if train else []):
        # RBM i's input, each batch replacing the one below it as it is formed
        for j, (_, y) in enumerate(pairs):
            if i:
                below = layers[i - 1]
                feats[j] = _pre_activation(feats[j], below.w, below.b_h, scales[i - 1][0])
                sigmoid(feats[j], out=feats[j])
            if i == n - 1 and k:
                feats[j] = np.hstack([feats[j], y])
        _train_rbm(layer, feats, replace(cfg, seed=cfg.seed + i), *scales[i])
    return layers, rng
