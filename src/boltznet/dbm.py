"""Deep Boltzmann machine: layered undirected energy model with
adjusted-weight RBM pretraining, persistent-chain stochastic approximation
guided by mean-field variational inference, and label-unit classification.

Weight bookkeeping: the stored weights are the DBM weights. The bottom-up
initialization pass doubles every weight except the top one (compensating
for the missing top-down input); mean-field sweeps and Gibbs conditionals
use the stored weights in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ClassificationReport, ConfigError, Matrix,
                   ShapeError, classification_report, label_indices, make_rng,
                   sample_bernoulli, sigmoid, softmax)
from .data import batch_part
from .optim import (NO_DECAY, NO_MOMENTUM, AnnealKind, AnnealSchedule, ParamGroup,
                    run_epochs)
from .rbm import TrainConfig, _check_binary, _check_chain, _pretrain_layers

MEAN_FIELD_TOL = 1e-4
MEAN_FIELD_MAX_SWEEPS = 30


def _sample_one_of_k(probs: np.ndarray, rng) -> np.ndarray:
    """One one-hot row per sample, drawn from per-row probabilities.

    The label units form a one-of-K group, so the model phase samples them
    as a unit rather than as independent binary units."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random((probs.shape[0], 1)) * cum[:, -1:]
    idx = (u > cum).sum(axis=1)
    out = np.zeros_like(probs)
    out[np.arange(probs.shape[0]), idx] = 1.0
    return out


@dataclass
class DbmModel:
    """Stacked weights W1..WN with one bias row per layer.

    With labels the top weight's visible side is (h_{N-1} || y), so it has
    label_dim extra rows; label units keep their own bias row. Persistent
    fantasy chains (one state row per chain) live on the model so training
    can resume.
    """

    weights: list
    visible_bias: np.ndarray
    hidden_biases: list
    label_dim: int = 0
    label_bias: np.ndarray = None
    chain_v: np.ndarray = None
    chain_h: list = field(default_factory=list)
    chain_y: np.ndarray = None

    @property
    def sizes(self):
        first = self.weights[0].shape[0]
        return [first] + [w.shape[1] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def top_feature_rows(self) -> int:
        return self.weights[-1].shape[0] - self.label_dim

    def check(self) -> "DbmModel":
        """Raise ShapeError unless the weights chain (the top one with the
        label rows) and every bias and persistent chain fits its units."""
        _check_chain([w.shape for w in self.weights], self.label_dim)
        k = 1 if self.label_dim else 0
        widths = self.sizes + [self.label_dim] * k
        biases = [self.visible_bias, *self.hidden_biases] + [self.label_bias] * k
        states = [self.chain_v, *self.chain_h] + [self.chain_y] * k
        if [np.shape(b) for b in biases] != [(1, n) for n in widths]:
            raise ShapeError("bias widths do not match the layers")
        if self.chain_v is not None and ([np.shape(s) for s in states]
                                         != [(len(self.chain_v), n) for n in widths]):
            raise ShapeError("persistent-chain widths do not match the layers")
        return self


def _state_below(model: DbmModel, l: int, v: Matrix, hs, y: Matrix) -> Matrix:
    """The state under hidden layer l (v or the layer beneath), with the
    label units joined on for the top layer."""
    below = v if l == 0 else hs[l - 1]
    if l == model.n_layers - 1 and model.label_dim:
        below = np.hstack([below, y])
    return below


def _states_below(model: DbmModel, v: Matrix, hs, y: Matrix) -> list:
    return [_state_below(model, l, v, hs, y) for l in range(model.n_layers)]


def _statistics(model: DbmModel, v: Matrix, hs, y: Matrix) -> list:
    """Sufficient statistics of one set of states, summed over rows: the
    pair products per weight, then the unit sums per bias (hidden layers,
    visible, labels), in the order of the model's parameter group."""
    stats = [below.T @ h for below, h in zip(_states_below(model, v, hs, y), hs)]
    stats += [h.sum(axis=0, keepdims=True) for h in hs]
    stats.append(v.sum(axis=0, keepdims=True))
    if model.label_dim:
        stats.append(y.sum(axis=0, keepdims=True))
    return stats


def _layer_input(model: DbmModel, l: int, v: Matrix, hs, y: Matrix) -> Matrix:
    """Total input to hidden layer l: bottom-up from the state below it plus
    top-down from layer l+1 through the rows of its weight that face layer
    l (never the label rows). While `hs` holds no state for layer l+1 yet,
    as in a bottom-up pass, the bottom-up input is doubled in its place."""
    z = _state_below(model, l, v, hs, y) @ model.weights[l]
    if l == model.n_layers - 1:
        return z + model.hidden_biases[l]
    if len(hs) <= l + 1:
        return 2.0 * z + model.hidden_biases[l]
    return (z + model.hidden_biases[l]
            + hs[l + 1] @ model.weights[l + 1][:model.weights[l].shape[1]].T)


def _label_input(model: DbmModel, h_top: Matrix) -> Matrix:
    """Total input to the label units from the top hidden layer."""
    return h_top @ model.weights[-1][model.top_feature_rows():].T + model.label_bias


def _bottom_up(model: DbmModel, v: Matrix, y: Matrix, settle) -> list:
    """One bottom-up pass; `settle` maps each layer's input to its state."""
    hs = []
    for l in range(model.n_layers):
        hs.append(settle(_layer_input(model, l, v, hs, y)))
    return hs


def dbm_energy(model: DbmModel, v: Matrix, h_list, y: Matrix = None) -> float:
    """Bias-free layered energy:
    -v W1 h1 - sum_i h_{i-1} W_i h_i (labels ride on the top layer's input).
    """
    v = _check_binary(v, "visible state").reshape(1, -1)
    hs = [_check_binary(h, f"hidden state {i + 1}").reshape(1, -1)
          for i, h in enumerate(h_list)]
    if len(hs) != model.n_layers:
        raise ShapeError(f"expected {model.n_layers} hidden states, got {len(hs)}")
    if model.label_dim:
        if y is None:
            raise ShapeError("model has label units; pass their state")
        y = _check_binary(y, "label state").reshape(1, -1)
    total = 0.0
    for lower, w, upper in zip(_states_below(model, v, hs, y), model.weights, hs):
        if lower.shape[1] != w.shape[0] or upper.shape[1] != w.shape[1]:
            raise ShapeError("state widths do not match the weights")
        total -= (lower @ w @ upper.T).item()
    return total


def pretrain_dbm(sizes, data, cfg: TrainConfig, labels=None) -> DbmModel:
    """Stacked-RBM pretraining with adjusted weights.

    The first RBM trains with a doubled upward pass (2 W up, W^T down); the
    intermediate RBMs train normally and store half their weights and
    hidden biases; the last RBM trains with a doubled downward pass (W up,
    2 W^T down) on [top features || labels]. Persistent chains start from a
    stochastic bottom-up pass of the pretrained model, one chain per batch.
    """
    if len(sizes) < 3:
        raise ConfigError("a DBM needs at least two hidden layers")
    scales = [(2.0, 1.0)] + [(1.0, 1.0)] * (len(sizes) - 3) + [(1.0, 2.0)]
    layers, rng = _pretrain_layers(sizes, data, cfg, labels, scales)
    for layer in layers[1:-1]:
        layer.w *= 0.5
        layer.b_h *= 0.5
    k = layers[-1].n_v - sizes[-2]
    model = DbmModel(weights=[layer.w for layer in layers],
                     visible_bias=layers[0].b_v,
                     hidden_biases=[layer.b_h for layer in layers], label_dim=k,
                     label_bias=layers[-1].b_v[:, sizes[-2]:].copy() if k else None)
    _init_chains(model, data, labels, rng)
    return model


def _init_chains(model: DbmModel, data, labels, rng) -> None:
    """One fantasy chain per batch, seeded by a stochastic bottom-up pass."""
    v0 = np.vstack([b[:1] for b in batch_part(data, 0)])
    model.chain_v = sample_bernoulli(np.clip(v0, 0.0, 1.0), rng)
    if model.label_dim:
        if labels is not None:
            model.chain_y = np.vstack([y[:1] for y in batch_part(labels, 1)])
        else:
            model.chain_y = sample_bernoulli(
                np.full((v0.shape[0], model.label_dim), 0.5), rng)
    model.chain_h = _bottom_up(model, model.chain_v, model.chain_y,
                               lambda z: sample_bernoulli(sigmoid(z), rng))


def mean_field_states(model: DbmModel, data: Matrix, y: Matrix = None,
                      clamp_labels: bool = False, tol: float = MEAN_FIELD_TOL,
                      max_sweeps: int = MEAN_FIELD_MAX_SWEEPS,
                      return_history: bool = False):
    """Mean-field posterior means for every hidden layer (and the label
    units when they are free).

    Starts from a bottom-up pass with doubled weights (top layer undoubled),
    then iterates the fixed-point updates with the stored weights in both
    directions until the largest change drops below `tol` or the sweep
    budget runs out. Returns (mu_list, label_mu), plus the per-sweep
    max-change sequence when `return_history` is set.
    """
    v = np.asarray(data, dtype=np.float64)
    if model.label_dim and clamp_labels and y is None:
        raise ShapeError("clamping labels requires their values")
    y_mu = (np.asarray(y, dtype=np.float64) if (model.label_dim and y is not None)
            else np.zeros((v.shape[0], model.label_dim)))

    mus = _bottom_up(model, v, y_mu, sigmoid)
    history = []
    for _ in range(max_sweeps):
        max_change = 0.0
        for l in range(model.n_layers):
            new_mu = sigmoid(_layer_input(model, l, v, mus, y_mu))
            max_change = max(max_change, float(np.abs(new_mu - mus[l]).max()))
            mus[l] = new_mu
        if model.label_dim and not clamp_labels:
            new_y = softmax(_label_input(model, mus[-1]))
            max_change = max(max_change, float(np.abs(new_y - y_mu).max()))
            y_mu = new_y
        history.append(max_change)
        if max_change < tol:
            break
    if return_history:
        return mus, y_mu, history
    return mus, y_mu


def _gibbs_sweep(model: DbmModel, rng) -> None:
    """One sequential Gibbs sweep over every persistent chain."""
    model.chain_v = sample_bernoulli(
        sigmoid(model.chain_h[0] @ model.weights[0].T + model.visible_bias), rng)
    for l in range(model.n_layers):
        z = _layer_input(model, l, model.chain_v, model.chain_h, model.chain_y)
        model.chain_h[l] = sample_bernoulli(sigmoid(z), rng)
    if model.label_dim:
        model.chain_y = _sample_one_of_k(softmax(_label_input(model, model.chain_h[-1])),
                                         rng)


def mean_field_train(model: DbmModel, batches, cfg: TrainConfig,
                     hook=None) -> DbmModel:
    """Stochastic approximation with variational data statistics.

    Each of `cfg.epochs` iterations settles the mean field for every data
    batch (labels clamped), advances every persistent chain one Gibbs
    sweep, and applies one update: W_l += alpha_t (data outer products / D
    - chain outer products / M). Biases move with the corresponding mean
    differences. The update is plain SGD on `cfg.lr`, always STEP-annealed
    and without momentum or weight decay, and changes the model's arrays
    in place; the hook reports momentum 0.0.
    """
    if model.chain_v is None:
        raise ConfigError("model must be pretrained before mean-field training")
    data_batches = batch_part(batches, 0)
    label_batches = batch_part(batches, 1) if model.label_dim else [None] * len(data_batches)
    rng = make_rng(cfg.seed)
    d_total = sum(b.shape[0] for b in data_batches)
    m_chains = model.chain_v.shape[0]
    biases = model.hidden_biases + [model.visible_bias]
    if model.label_dim:
        biases.append(model.label_bias)
    params = ParamGroup(model.weights, biases, NO_DECAY)

    def iteration(alpha, rho):
        data = [np.zeros_like(p) for p in params.params]
        for x, yb in zip(data_batches, label_batches):
            mus, _ = mean_field_states(model, x, y=yb, clamp_labels=True)
            for total, s in zip(data, _statistics(model, x, mus, yb)):
                total += s
        _gibbs_sweep(model, rng)
        chain = _statistics(model, model.chain_v, model.chain_h, model.chain_y)
        params.step([c / m_chains - d / d_total for c, d in zip(chain, data)],
                    alpha, rho)

    run_epochs(replace(cfg, anneal=AnnealSchedule(AnnealKind.STEP),
                       momentum=NO_MOMENTUM), params, iteration, hook)
    return model


def predict_dbm(model: DbmModel, data: Matrix) -> Matrix:
    """Label-unit means after a mean-field settle with labels free and
    initialized to zero."""
    if model.label_dim == 0:
        raise ConfigError("model was pretrained without labels")
    _, y_mu = mean_field_states(model, data, y=None, clamp_labels=False)
    return y_mu


def classify_dbm(model: DbmModel, data: Matrix, labels: Matrix) -> ClassificationReport:
    pred = predict_dbm(model, data).argmax(axis=1)
    return classification_report(pred, label_indices(labels), model.label_dim)
