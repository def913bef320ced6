"""Deep belief network: stacked-RBM pretraining with a label-joined top
RBM, wake-sleep plus contrastive-divergence fine-tuning, and label-slot
prediction.

The directed lower layers carry untied recognition weights (upward) and
generative weights (downward); both start from the pretrained RBM weights
and their transposes and separate only during fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ActivationKind, ConfigError, Matrix, ShapeError, as_rows,
                   check_batches, group_rows, in_row_groups, make_rng, sample_bernoulli,
                   sigmoid)
from .optim import NO_DECAY, NO_MOMENTUM, ParamGroup, run_epochs
from .rbm import (CdGradients, RbmLayer, TrainConfig, _cd_step, _check_chain,
                  _last_activation, _pre_activation, _pretrain_layers)


@dataclass
class DbnModel:
    """Directed sigmoid-belief layers under an associative top RBM.

    recognition[i] holds the upward weights (w, b_h); generative_w[i] /
    generative_b[i] hold the downward weights into layer i's input.
    The top RBM's visible side is the last hidden state concatenated with
    the one-of-K label slots.
    """

    recognition: list
    generative_w: list = field(default_factory=list)
    generative_b: list = field(default_factory=list)
    top: RbmLayer = None
    label_dim: int = 0
    fine_tuned: bool = False

    @property
    def feature_dim(self) -> int:
        return self.top.n_v - self.label_dim

    @property
    def input_dim(self) -> int:
        return self.recognition[0].n_v if self.recognition else self.feature_dim

    @property
    def group_rows(self) -> int:
        """Rows per prediction group (`core.group_rows`): the prediction
        computes every hidden layer and the top RBM's visible side."""
        layers = self.recognition + [self.top]
        return group_rows([l.w for l in layers], [l.n_h for l in layers] + [self.top.n_v])

    def check(self) -> "DbnModel":
        """Raise ShapeError unless the recognition layers chain into the top
        RBM's feature rows and the generative arrays mirror them."""
        _check_chain([l.check().w.shape for l in self.recognition + [self.top]],
                     self.label_dim)
        mirror = [(l.w.T.shape, l.b_v.shape) for l in self.recognition]
        if ([w.shape for w in self.generative_w] != [w for w, _ in mirror]
                or [b.shape for b in self.generative_b] != [b for _, b in mirror]):
            raise ShapeError("generative arrays do not mirror the recognition layers")
        return self

    def recognition_pass(self, data: Matrix) -> Matrix:
        """Deterministic upward pass through the lower layers."""
        return _last_activation(self.recognition, as_rows(data, self.input_dim))


def pretrain_dbn(sizes, batches, cfg: TrainConfig, labels=False) -> DbnModel:
    """Greedy pretraining on (x, y) batches: lower layers exactly as a DNN
    stack, then the top RBM on [top features || one-of-K y] when `labels`
    is set, on the features alone otherwise."""
    if len(sizes) < 2:
        raise ConfigError("need at least input size and one hidden size")
    (*lower, top), _ = _pretrain_layers(sizes, batches, cfg, labels)
    model = DbnModel(recognition=lower, top=top, label_dim=top.n_v - sizes[-2])
    model.generative_w = [layer.w.T.copy() for layer in lower]
    model.generative_b = [layer.b_v.copy() for layer in lower]
    return model


def _delta_gradients(group: ParamGroup, sources, targets, lr: float) -> None:
    """The wake-sleep delta rule as `group`'s gradients, scaled by `lr`: its
    i-th weight and bias predict targets[i] from sources[i] through a sigmoid
    and get source^T (pred - target) / m and mean(pred - target)."""
    n = len(sources)
    for i, (source, target) in enumerate(zip(sources, targets)):
        residual = _pre_activation(source, group.params[i], group.params[n + i])
        np.subtract(sigmoid(residual, out=residual), target, out=residual)
        np.multiply(residual.mean(axis=0, keepdims=True), lr, out=group.grads[n + i])
        residual *= lr / source.shape[0]
        np.matmul(source.T, residual, out=group.grads[i])


def up_down_fine_tune(model: DbnModel, batches, cfg: TrainConfig,
                      hook=None) -> DbnModel:
    """Wake-sleep fine-tuning with contrastive divergence at the top, on
    (x, y) batches checked by `core.check_batches`, y read as one-of-K
    labels exactly when the model has label units.

    Per batch: a sampled up-pass (recognition weights) trains the generative
    weights on its states; a CD-1 step with labels clamped in the positive
    phase trains the top RBM; a sampled down-pass (generative weights)
    trains the recognition weights on its states. Every layer must have
    SIGMOID units (ConfigError otherwise). Every array moves in place in
    `ParamGroup.step`; `cfg.decay` and `cfg.momentum` reach the top RBM only.
    """
    top = model.top
    if top is None:
        raise ConfigError("model must be pretrained before fine-tuning")
    if {l.activation for l in model.recognition + [top]} != {ActivationKind.SIGMOID}:
        raise ConfigError("up-down fine-tuning runs sigmoid units only")
    pairs = check_batches(batches, model.input_dim, model.label_dim or None, one_of_k=True)
    rng = make_rng(cfg.seed)
    params = ParamGroup([top.w], [top.b_v, top.b_h], cfg.decay, cfg.momentum)
    g = CdGradients(*params.grads)
    generative = ParamGroup(model.generative_w, model.generative_b, NO_DECAY, NO_MOMENTUM)
    recognition = ParamGroup([l.w for l in model.recognition],
                             [l.b_h for l in model.recognition], NO_DECAY, NO_MOMENTUM)

    def epoch(lr, rho):
        for x, y in pairs:
            # wake: sample upward, then fit the generative weights to
            # reproduce each layer from the one above
            states, probs = [x], x
            for layer in model.recognition:
                probs = _last_activation([layer], states[-1])
                states.append(sample_bernoulli(probs, rng))
            _delta_gradients(generative, states[1:], states[:-1], lr)
            generative.step(lr, 0.0)
            # top RBM CD-1, undropped, with labels clamped in the positive
            # phase; the data are the recognition probabilities (same
            # variance reduction as plain RBM training)
            top_v = np.hstack([probs, y]) if model.label_dim else probs
            v_recon = _cd_step(top, top_v, 1, 1.0, rng, g, lr=lr)
            params.step(lr, rho)
            # sleep: sample downward from the top reconstruction, then fit
            # the recognition weights to invert the generative pass
            dream = [sample_bernoulli(v_recon[:, :model.feature_dim], rng)]
            for w, b in zip(model.generative_w[::-1], model.generative_b[::-1]):
                p = _pre_activation(dream[-1], w, b)
                sigmoid(p, out=p)
                dream.append(sample_bernoulli(p, rng))
            dream.reverse()  # dream[i] now sits at layer i
            _delta_gradients(recognition, dream[:-1], dream[1:], lr)
            recognition.step(lr, 0.0)

    run_epochs(cfg, model, epoch, hook)
    model.fine_tuned = model.fine_tuned or cfg.epochs > 0
    return model


def predict_dbn(model: DbnModel, data: Matrix) -> Matrix:
    """Prediction distribution over the label slots.

    Upward pass to the top features, label slots clamped to zero, one
    up-down step of the top RBM, then the label-slot reconstruction
    renormalized to sum to 1. Rows run in groups (`core.in_row_groups`).
    """
    if model.label_dim == 0:
        raise ConfigError("model was pretrained without labels")

    top = model.top

    def group(x):
        feats = model.recognition_pass(x)
        v = np.zeros((len(feats), top.n_v))
        v[:, :model.feature_dim] = feats
        del feats
        # up and down again, each sigmoid in place, each operand released
        # once the next pre-activation is formed
        v = _pre_activation(v, top.w, top.b_h)
        sigmoid(v, out=v)
        v = _pre_activation(v, top.w.T, top.b_v)
        sigmoid(v, out=v)
        label_slots = v[:, model.feature_dim:]
        total = label_slots.sum(axis=1, keepdims=True)
        return label_slots / np.maximum(total, 1e-300)
    return in_row_groups(group, data, model.group_rows)
