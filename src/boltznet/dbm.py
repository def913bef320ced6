"""Deep Boltzmann machine: layered undirected energy model with
adjusted-weight RBM pretraining, persistent-chain stochastic approximation
guided by mean-field variational inference, and label-unit prediction.

Weight bookkeeping: the stored weights are the DBM weights. The bottom-up
initialization pass doubles every weight except the top one (compensating
for the missing top-down input); mean-field sweeps and Gibbs conditionals
use the stored weights in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (ConfigError, Matrix, ShapeError, as_rows, check_batches, group_rows,
                   in_row_groups, make_rng, sample_bernoulli, sigmoid, softmax)
from .optim import (NO_DECAY, NO_MOMENTUM, AnnealKind, AnnealSchedule, ParamGroup,
                    run_epochs)
from .rbm import (TrainConfig, _check_binary, _check_chain, _pre_activation,
                  _pretrain_layers)

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
    label_dim extra rows; label units keep their own bias row. `chains`,
    the persistent fantasy chains kept so training can resume, is the list
    of states [v, h1..hN] (then y with label units), one row per chain.
    """

    weights: list
    visible_bias: np.ndarray
    hidden_biases: list
    label_dim: int = 0
    label_bias: np.ndarray = None
    chains: list = None

    @property
    def sizes(self):
        first = self.weights[0].shape[0]
        return [first] + [w.shape[1] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def group_rows(self) -> int:
        """Rows per prediction group (`core.group_rows`): a settle computes
        every hidden layer and the label units."""
        return group_rows(self.weights, self.sizes[1:] + [self.label_dim])

    def check(self) -> "DbmModel":
        """Raise ShapeError unless the weights chain (the top one with the
        label rows), every bias fits its units and `chains`, when set, holds
        one state per bias, each as wide and all as tall. Labels need a
        hidden layer below the top: the settle reuses v @ W1 as layer 1's
        whole bottom-up input."""
        _check_chain([w.shape for w in self.weights], self.label_dim)
        if self.label_dim and self.n_layers < 2:
            raise ShapeError("a DBM with labels needs at least two hidden layers")
        k = 1 if self.label_dim else 0
        widths = self.sizes + [self.label_dim] * k
        biases = [self.visible_bias, *self.hidden_biases] + [self.label_bias] * k
        if [np.shape(b) for b in biases] != [(1, n) for n in widths]:
            raise ShapeError("bias widths do not match the layers")
        m = len(self.chains[0]) if self.chains else 0
        if self.chains is not None and ([np.shape(s) for s in self.chains]
                                        != [(m, n) for n in widths]):
            raise ShapeError("persistent chains do not match the layers")
        return self


def _state_below(model: DbmModel, l: int, v: Matrix, hs, y: Matrix) -> Matrix:
    """The state under hidden layer l (v or the layer beneath), with the
    label units joined on for the top layer."""
    below = v if l == 0 else hs[l - 1]
    if l == model.n_layers - 1 and model.label_dim:
        below = np.hstack([below, y])
    return below


def _statistics(model: DbmModel, v: Matrix, hs, y: Matrix) -> list:
    """Sufficient statistics of one set of states, summed over rows and
    formed one at a time: the pair products per weight, then the unit sums
    per bias (hidden layers, visible, labels), in the order of the model's
    parameter group."""
    for l, h in enumerate(hs):
        yield _state_below(model, l, v, hs, y).T @ h
    for h in hs:
        yield h.sum(axis=0, keepdims=True)
    yield v.sum(axis=0, keepdims=True)
    if model.label_dim:
        yield y.sum(axis=0, keepdims=True)


def _layer_input(model: DbmModel, l: int, vw: Matrix, hs, y: Matrix) -> Matrix:
    """Total input to hidden layer l: bottom-up from the state below it plus
    top-down from layer l+1 through the rows of its weight that face layer
    l (never the label rows). `vw` is the visible drive v @ W1, layer 0's
    bottom-up input, computed once by the caller. While `hs` holds no state
    for layer l+1 yet, as in a bottom-up pass, the bottom-up input is
    doubled in its place."""
    z = vw if l == 0 else _state_below(model, l, None, hs, y) @ model.weights[l]
    if l == model.n_layers - 1:
        return z + model.hidden_biases[l]
    if len(hs) <= l + 1:
        return 2.0 * z + model.hidden_biases[l]
    total = z + model.hidden_biases[l]
    total += hs[l + 1] @ model.weights[l + 1][:model.weights[l].shape[1]].T
    return total


def _label_input(model: DbmModel, h_top: Matrix) -> Matrix:
    """Total input to the label units from the top hidden layer."""
    return h_top @ model.weights[-1][-model.label_dim:].T + model.label_bias


def _bottom_up(model: DbmModel, vw: Matrix, y: Matrix, settle) -> list:
    """One bottom-up pass from the visible drive `vw`; `settle` maps each
    layer's input to its state."""
    hs = []
    for l in range(model.n_layers):
        hs.append(settle(_layer_input(model, l, vw, hs, y)))
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
    for l, (w, upper) in enumerate(zip(model.weights, hs)):
        lower = _state_below(model, l, v, hs, y)
        if lower.shape[1] != w.shape[0] or upper.shape[1] != w.shape[1]:
            raise ShapeError("state widths do not match the weights")
        total -= (lower @ w @ upper.T).item()
    return total


def pretrain_dbm(sizes, batches, cfg: TrainConfig, labels=False) -> DbmModel:
    """Stacked-RBM pretraining with adjusted weights, on (x, y) batches.

    The first RBM trains with a doubled upward pass (2 W up, W^T down); the
    intermediate RBMs train normally and store half their weights and
    hidden biases; the last RBM trains with a doubled downward pass (W up,
    2 W^T down) on [top features || y] when `labels` is set. Persistent
    chains start from a stochastic bottom-up pass, one chain per batch.
    """
    if len(sizes) < 3:
        raise ConfigError("a DBM needs at least two hidden layers")
    scales = [(2.0, 1.0)] + [(1.0, 1.0)] * (len(sizes) - 3) + [(1.0, 2.0)]
    layers, rng = _pretrain_layers(sizes, batches, cfg, labels, scales)
    for layer in layers[1:-1]:
        layer.w *= 0.5
        layer.b_h *= 0.5
    k = layers[-1].n_v - sizes[-2]
    model = DbmModel(weights=[layer.w for layer in layers],
                     visible_bias=layers[0].b_v,
                     hidden_biases=[layer.b_h for layer in layers], label_dim=k,
                     label_bias=layers[-1].b_v[:, sizes[-2]:].copy() if k else None)
    v = sample_bernoulli(np.clip(np.vstack([x[:1] for x, _ in batches]), 0.0, 1.0), rng)
    y = np.vstack([yb[:1] for _, yb in batches]) if k else None
    hs = _bottom_up(model, v @ model.weights[0], y,
                    lambda z: sample_bernoulli(sigmoid(z), rng))
    model.chains = [v, *hs] + ([y] if k else [])
    return model


def mean_field_states(model: DbmModel, data: Matrix, y: Matrix = None,
                      tol: float = MEAN_FIELD_TOL,
                      max_sweeps: int = MEAN_FIELD_MAX_SWEEPS,
                      return_history: bool = False):
    """Mean-field posterior means for every hidden layer, with the label
    units clamped to `y` when it is given and free (from zero) otherwise.

    Starts from a bottom-up pass with doubled weights (top layer undoubled),
    then iterates the fixed-point updates with the stored weights in both
    directions. Each row stops once its own largest change (hidden layers and
    free labels) drops below `tol` or the sweep budget runs out, so its means
    do not depend on its batchmates. Returns (mu_list, label_mu), plus each
    sweep's largest change over the rows still settling when `return_history`
    is set. The visible units stay clamped, so their drive v @ W1 is computed
    once per call. Zero rows settle in one sweep to zero-row means.
    """
    v = as_rows(data, model.sizes[0])
    vw = v @ model.weights[0]
    free = y is None
    y_mu = np.zeros((len(v), model.label_dim)) if free else as_rows(y, model.label_dim)
    if len(y_mu) != len(v):
        raise ShapeError(f"{len(y_mu)} label rows for {len(v)} data rows")

    mus = _bottom_up(model, vw, y_mu, sigmoid)
    rows = np.arange(len(v))
    change = np.zeros((model.n_layers + 1, len(v)))  # per layer, then labels, per row
    settled = []  # (row indices, means per hidden layer + labels) as rows stop
    history = []
    for sweep in range(max_sweeps):
        for l in range(model.n_layers):
            z = _layer_input(model, l, vw, mus, y_mu)  # a fresh array, so sigmoid reuses it
            mus[l] = _advance(mus[l], sigmoid(z, out=z), change[l])
        del z  # it is mus[-1]: the compaction below must release it
        if free and model.label_dim:
            y_mu = _advance(y_mu, softmax(_label_input(model, mus[-1])), change[-1])
        history.append(float(change.max(initial=0.0)))
        if history[-1] < tol or sweep == max_sweeps - 1:
            break
        # settled rows rejoin after the loop: allocating the result early raises peak RSS
        if (done := change.max(axis=0) < tol).any():
            settled.append((rows[done], [m[done] for m in [*mus, y_mu]]))
            keep = ~done
            rows, vw, y_mu, change = rows[keep], vw[keep], y_mu[keep], change[:, keep]
            mus = [m[keep] for m in mus]
    settled.append((rows, [*mus, y_mu]))
    if len(settled) > 1:
        parts = [np.empty((len(v), m.shape[1])) for m in settled[0][1]]
        for idx, means in settled:
            for full, m in zip(parts, means):
                full[idx] = m
        mus, y_mu = parts[:-1], parts[-1]
    if return_history:
        return mus, y_mu, history
    return mus, y_mu


def _advance(old: Matrix, new: Matrix, change: np.ndarray) -> Matrix:
    """`new`, once each row's largest |new - old| is written to `change`. The
    difference is taken in `old`'s buffer, which the caller drops."""
    np.subtract(new, old, out=old)
    np.abs(old, out=old)
    old.max(axis=1, initial=0.0, out=change)
    return new


def _gibbs_sweep(model: DbmModel, states: list, rng) -> list:
    """One sequential Gibbs sweep from `states`, laid out as `DbmModel.chains`:
    v given h1, each hidden layer given the newest states beside it, then the
    labels. Returns new states in that layout and writes neither `states` nor
    the model; each sigmoid writes into its fresh pre-activation."""
    z = _pre_activation(states[1], model.weights[0].T, model.visible_bias)
    v = sample_bernoulli(sigmoid(z, out=z), rng)
    hs = states[1:model.n_layers + 1]
    y = states[-1] if model.label_dim else None
    vw = v @ model.weights[0]
    for l in range(model.n_layers):
        z = _layer_input(model, l, vw, hs, y)
        hs[l] = sample_bernoulli(sigmoid(z, out=z), rng)
    if model.label_dim:
        y = _sample_one_of_k(softmax(_label_input(model, hs[-1])), rng)
    return [v, *hs] + ([y] if model.label_dim else [])


def mean_field_train(model: DbmModel, batches, cfg: TrainConfig,
                     hook=None) -> DbmModel:
    """Stochastic approximation with variational data statistics.

    Each of `cfg.epochs` iterations settles the mean field for every data
    row (labels clamped), replaces `model.chains` with one Gibbs sweep from
    them, and applies one update: W_l += alpha_t (data outer products / D - chain
    outer products / M). Biases move with the corresponding mean
    differences. Rows settle independently and the data term sums over
    them, so consecutive batches settle together in groups of at least the
    widest hidden layer's row count (the last may hold fewer): enough rows
    to fill the GEMMs, with working arrays about one weight matrix in size.
    The batches pass `core.check_batches` first, y read as one-of-K labels
    when the model has label units. The update is plain SGD on `cfg.lr`,
    always STEP-annealed and without momentum or weight decay, and changes
    the model's arrays in place; the hook reports momentum 0.0. Its
    parameter group holds no velocities, and the data statistics sum in
    the group's gradient buffers, so an iteration adds no weight-sized
    array beyond one statistic at a time.
    """
    if model.chains is None:
        raise ConfigError("model must be pretrained before mean-field training")
    pairs = check_batches(batches, model.sizes[0], model.label_dim or None, one_of_k=True)
    rng = make_rng(cfg.seed)
    d_total = sum(len(x) for x, _ in pairs)
    m_chains = len(model.chains[0])
    biases = model.hidden_biases + [model.visible_bias]
    if model.label_dim:
        biases.append(model.label_bias)
    params = ParamGroup(model.weights, biases, NO_DECAY, NO_MOMENTUM)

    def iteration(alpha, rho):
        # the data statistics sum in the gradient buffers; each statistic,
        # and each group's means, is dropped before the next is formed
        for g in params.grads:
            g.fill(0.0)
        for x, yb in _row_groups(pairs, max(model.sizes[1:])):
            mus, _ = mean_field_states(model, x, y=yb)
            stats = _statistics(model, x, mus, yb)
            for g in params.grads:
                g += next(stats)
            del mus, stats
        model.chains = _gibbs_sweep(model, model.chains, rng)
        v, *hs = model.chains[:model.n_layers + 1]
        chain = _statistics(model, v, hs, model.chains[-1] if model.label_dim else None)
        for g in params.grads:  # chain minus data statistics, alpha folded in
            c = next(chain)
            g /= d_total / alpha
            c /= m_chains / alpha
            np.subtract(c, g, out=g)
            del c
        params.step(alpha, rho)

    run_epochs(replace(cfg, anneal=AnnealSchedule(AnnealKind.STEP),
                       momentum=NO_MOMENTUM), model, iteration, hook)
    return model


def _row_groups(pairs, rows: int):
    """Consecutive (x, y) pairs joined into groups of at least `rows` rows,
    the last one possibly fewer, built one at a time. A group of one pair is
    that pair, uncopied."""
    group, n = [], 0
    for i, pair in enumerate(pairs):
        group.append(pair)
        n += len(pair[0])
        if n >= rows or i == len(pairs) - 1:
            if len(group) == 1:
                yield group[0]
            else:
                xs, ys = zip(*group)
                yield np.vstack(xs), None if ys[0] is None else np.vstack(ys)
            group, n = [], 0


def predict_dbm(model: DbmModel, data: Matrix) -> Matrix:
    """Label-unit means after a mean-field settle with labels free and
    initialized to zero, settled in row groups (`core.in_row_groups`)."""
    if model.label_dim == 0:
        raise ConfigError("model was pretrained without labels")
    return in_row_groups(lambda x: mean_field_states(model, x)[1], data, model.group_rows)
