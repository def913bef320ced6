"""Deep neural network: greedy layer-wise RBM pretraining, forward pass,
backpropagation fine-tuning, and prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ActivationKind, ConfigError, LossKind, Matrix, activation_derivative,
                   as_rows, check_batches, group_rows, in_row_groups)
from .optim import ParamGroup, run_epochs
from .rbm import RbmLayer, TrainConfig, _check_chain, _last_activation, _pretrain_layers


@dataclass
class LayerStack:
    """Feed-forward stack of layers with chained dimensions."""

    layers: list

    @property
    def sizes(self):
        return [self.layers[0].n_v] + [layer.n_h for layer in self.layers]

    @property
    def group_rows(self) -> int:
        """Rows per prediction group (`core.group_rows`)."""
        return group_rows([layer.w for layer in self.layers], self.sizes[1:])

    def check(self) -> "LayerStack":
        """Raise ShapeError unless every layer checks and feeds the next."""
        _check_chain([layer.check().w.shape for layer in self.layers])
        return self


def pretrain_stack(sizes, batches, cfg: TrainConfig, pretrain: bool = True) -> LayerStack:
    """Build a classifier stack: hidden layers greedily pretrained as RBMs
    (or randomly initialized when pretrain is false) plus a randomly
    initialized softmax output layer, left for the classifier head trainer.
    """
    if len(sizes) < 2:
        raise ConfigError("a stack needs at least input and output sizes")
    hidden, rng = _pretrain_layers(sizes[:-1], batches, cfg, train=pretrain)
    head = RbmLayer.random(sizes[-2], sizes[-1], rng,
                           activation=ActivationKind.SOFTMAX)
    return LayerStack(layers=hidden + [head]).check()


def forward(stack: LayerStack, batch: Matrix) -> list:
    """Full forward pass keeping every activation a(0..N); a[0] is the input."""
    activations = [as_rows(batch, stack.layers[0].n_v)]
    for layer in stack.layers:
        activations.append(_last_activation([layer], activations[-1]))
    return activations


def _check_loss(stack: LayerStack, loss: LossKind) -> None:
    """Raise ConfigError unless backprop can train the stack on `loss`:
    cross entropy on a softmax output layer, or MSE on any other."""
    softmax = stack.layers[-1].activation == ActivationKind.SOFTMAX
    if loss == LossKind.CROSS_ENTROPY and not softmax:
        raise ConfigError("cross entropy expects a softmax output layer")
    if loss == LossKind.MSE and softmax:
        raise ConfigError("softmax derivative is handled jointly with cross entropy")
    if loss not in (LossKind.CROSS_ENTROPY, LossKind.MSE):
        raise ConfigError(f"unsupported fine-tuning loss: {loss!r}")


def _output_delta(a_out: Matrix, target: Matrix, loss: LossKind,
                  out_kind: ActivationKind) -> Matrix:
    """Per-sample delta at the output layer for a loss `_check_loss` passed
    (the 1/m factor is applied when gradients are formed)."""
    if loss == LossKind.CROSS_ENTROPY:
        return a_out - target
    return (a_out - target) * activation_derivative(a_out, out_kind)


def _backprop(stack: LayerStack, batch: Matrix, target: Matrix, loss: LossKind,
              dws, dbs, lr: float = 1.0) -> None:
    """Each layer's dW and db for the row-averaged loss on one batch,
    scaled by `lr`, written into its buffers in `dws` and `dbs`."""
    a = forward(stack, batch)
    m = batch.shape[0]
    delta = _output_delta(a[-1], target, loss, stack.layers[-1].activation)
    for l in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[l]
        # lr folded into the batch-sized operand (exactly / m when lr is 1)
        np.matmul(a[l].T, delta / (m / lr), out=dws[l])
        np.mean(delta, axis=0, keepdims=True, out=dbs[l])
        dbs[l] *= lr
        if l > 0:
            below = stack.layers[l - 1]
            delta = (delta @ layer.w.T) * activation_derivative(
                a[l], below.activation)


def backprop_gradients(stack: LayerStack, batch: Matrix, target: Matrix,
                       loss: LossKind):
    """Per-layer (dW, db) for the row-averaged loss on one batch, in fresh
    arrays."""
    [(batch, target)] = check_batches([(batch, target)], stack.sizes[0], stack.sizes[-1])
    _check_loss(stack, loss)
    dws = [np.empty_like(layer.w) for layer in stack.layers]
    dbs = [np.empty_like(layer.b_h) for layer in stack.layers]
    _backprop(stack, batch, target, loss, dws, dbs)
    return list(zip(dws, dbs))


def _backprop_epochs(stack: LayerStack, pairs, loss: LossKind, cfg: TrainConfig,
                     hook, noisy=None) -> None:
    """Momentum backprop over checked (input, target) pairs, updating every
    layer's weights and hidden biases in place; `noisy` corrupts each
    input afresh every epoch. ConfigError unless `_check_loss` passes."""
    _check_loss(stack, loss)
    n = len(stack.layers)
    params = ParamGroup([l.w for l in stack.layers], [l.b_h for l in stack.layers],
                        cfg.decay, cfg.momentum)

    def epoch(lr, rho):
        for x, t in pairs:
            _backprop(stack, noisy(x) if noisy else x, t, loss,
                      params.grads[:n], params.grads[n:], lr)
            params.step(lr, rho)

    run_epochs(cfg, stack, epoch, hook)


def backprop_fine_tune(stack: LayerStack, batches, loss: LossKind, cfg: TrainConfig,
                       hook=None) -> LayerStack:
    """Refine all layers by backpropagation on (x, y) batches checked by
    `core.check_batches`, y holding the targets. The layers' arrays are
    updated in place."""
    _backprop_epochs(stack, check_batches(batches, stack.sizes[0], stack.sizes[-1]),
                     loss, cfg, hook)
    return stack


def predict(stack: LayerStack, data: Matrix) -> np.ndarray:
    """The output layer's activations, forwarded in row groups
    (`core.in_row_groups`) that hold one activation at a time."""
    n_v = stack.layers[0].n_v
    return in_row_groups(lambda x: _last_activation(stack.layers, as_rows(x, n_v)),
                         data, stack.group_rows)


def hidden_features(stack: LayerStack, batches):
    """Propagate each (x, y) batch through every layer except the output
    head: the (features, y) pairs that `train_classifier_head` takes."""
    n_v = stack.layers[0].n_v
    return [(_last_activation(stack.layers[:-1], as_rows(x, n_v)), y) for x, y in batches]
