"""Deep belief network: stacked-RBM pretraining with a label-joined top
RBM, wake-sleep plus contrastive-divergence fine-tuning, and label-clamped
classification.

The directed lower layers carry untied recognition weights (upward) and
generative weights (downward); both start from the pretrained RBM weights
and their transposes and separate only during fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (ClassificationReport, ConfigError, Matrix, ShapeError,
                   classification_report, label_indices, make_rng, sample_bernoulli,
                   sigmoid)
from .data import batch_part
from .optim import ParamGroup, run_epochs
from .rbm import RbmLayer, TrainConfig, _cd_gradients, _check_chain, _pretrain_layers


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
        h = np.asarray(data, dtype=np.float64)
        for layer in self.recognition:
            h = sigmoid(h @ layer.w + layer.b_h)
        return h


def pretrain_dbn(sizes, data, labels, cfg: TrainConfig) -> DbnModel:
    """Greedy pretraining: lower layers exactly as a DNN stack, then the top
    RBM on [top features || one-of-K labels] (features alone when `labels`
    is None)."""
    if len(sizes) < 2:
        raise ConfigError("need at least input size and one hidden size")
    (*lower, top), _ = _pretrain_layers(sizes, data, cfg, labels)
    model = DbnModel(recognition=lower, top=top, label_dim=top.n_v - sizes[-2])
    model.generative_w = [layer.w.T.copy() for layer in lower]
    model.generative_b = [layer.b_v.copy() for layer in lower]
    return model


def _residual_update(w, b, source, target, lr):
    """Wake-sleep delta rule, in place: move the sigmoid prediction of
    `target` from `source` toward it by lr * source^T (target - pred) / m."""
    residual = target - sigmoid(source @ w + b)
    w += lr * (source.T @ residual / source.shape[0])
    b += lr * residual.mean(axis=0, keepdims=True)


def up_down_fine_tune(model: DbnModel, data, labels, cfg: TrainConfig,
                      hook=None) -> DbnModel:
    """Wake-sleep fine-tuning with contrastive divergence at the top.

    Per batch: a sampled up-pass (recognition weights) trains the generative
    weights on its states; a CD-1 step with labels clamped in the positive
    phase trains the top RBM; a sampled down-pass (generative weights)
    trains the recognition weights on its states. Every weight and bias
    array is updated in place.
    """
    if model.top is None:
        raise ConfigError("model must be pretrained before fine-tuning")
    data_batches = batch_part(data, 0)
    label_batches = batch_part(labels, 1)
    rng = make_rng(cfg.seed)
    top = model.top
    params = ParamGroup([top.w], [top.b_v, top.b_h], cfg.decay)

    def epoch(lr, rho):
        for x, y in zip(data_batches, label_batches):
            # wake: sample upward, then fit the generative weights to
            # reproduce each layer from the one above
            states = [np.asarray(x, dtype=np.float64)]
            probs = states[-1]
            for layer in model.recognition:
                probs = sigmoid(states[-1] @ layer.w + layer.b_h)
                states.append(sample_bernoulli(probs, rng))
            for i in range(len(model.recognition)):
                _residual_update(model.generative_w[i], model.generative_b[i],
                                 states[i + 1], states[i], lr)
            # top RBM CD-1 with labels clamped in the positive phase; the
            # data statistic uses the recognition probabilities (same
            # variance reduction as plain RBM training)
            top_v = np.hstack([probs, y]) if model.label_dim else probs
            h_probs = sigmoid(top_v @ top.w + top.b_h)
            g, v_recon = _cd_gradients(top, top_v, h_probs,
                                       sample_bernoulli(h_probs, rng))
            params.step([g.dw, g.db_v, g.db_h], lr, rho)
            # sleep: sample downward from the top reconstruction, then fit
            # the recognition weights to invert the generative pass
            dream = [sample_bernoulli(v_recon[:, :model.feature_dim], rng)]
            for i in range(len(model.recognition) - 1, -1, -1):
                p = sigmoid(dream[-1] @ model.generative_w[i]
                            + model.generative_b[i])
                dream.append(sample_bernoulli(p, rng))
            dream.reverse()  # dream[i] now sits at layer i
            for i, layer in enumerate(model.recognition):
                _residual_update(layer.w, layer.b_h, dream[i], dream[i + 1], lr)

    run_epochs(cfg, params, epoch, hook)
    model.fine_tuned = model.fine_tuned or cfg.epochs > 0
    return model


def predict_dbn(model: DbnModel, data: Matrix) -> Matrix:
    """Prediction distribution over the label slots.

    Upward pass to the top features, label slots clamped to zero, one
    up-down step of the top RBM, then the label-slot reconstruction
    renormalized to sum to 1.
    """
    if model.label_dim == 0:
        raise ConfigError("model was pretrained without labels")
    feats = model.recognition_pass(data)
    top_v = np.hstack([feats, np.zeros((feats.shape[0], model.label_dim))])
    h = sigmoid(top_v @ model.top.w + model.top.b_h)
    recon = sigmoid(h @ model.top.w.T + model.top.b_v)
    label_slots = recon[:, model.feature_dim:]
    total = label_slots.sum(axis=1, keepdims=True)
    return label_slots / np.maximum(total, 1e-300)


def classify_dbn(model: DbnModel, data: Matrix, labels: Matrix) -> ClassificationReport:
    pred = predict_dbn(model, data).argmax(axis=1)
    return classification_report(pred, label_indices(labels), model.label_dim)
