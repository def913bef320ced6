"""Deep neural network: greedy layer-wise RBM pretraining, forward pass,
backpropagation fine-tuning, and classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ActivationKind, ClassificationReport, ConfigError, LossKind,
                   Matrix, ShapeError, activate, activation_derivative,
                   classification_report, label_indices)
from .data import batch_part
from .optim import ParamGroup, run_epochs
from .rbm import (RbmLayer, TrainConfig, _check_chain, _pretrain_layers,
                  hidden_given_visible)


@dataclass
class LayerStack:
    """Feed-forward stack of layers with chained dimensions."""

    layers: list

    @property
    def sizes(self):
        return [self.layers[0].n_v] + [layer.n_h for layer in self.layers]

    def check(self) -> "LayerStack":
        """Raise ShapeError unless every layer checks and feeds the next."""
        _check_chain([layer.check().w.shape for layer in self.layers])
        return self


@dataclass
class ForwardTrace:
    """Pre-activations z(1..N) and activations a(0..N); a[0] is the input."""

    z: list
    a: list


def pretrain_stack(sizes, batches, cfg: TrainConfig, pretrain: bool = True) -> LayerStack:
    """Build a classifier stack: hidden layers greedily pretrained as RBMs
    (or randomly initialized when pretrain is false) plus a randomly
    initialized softmax output layer, left for the classifier head trainer.
    """
    if len(sizes) < 2:
        raise ConfigError("a stack needs at least input and output sizes")
    hidden, rng = _pretrain_layers(sizes[:-1], batches, cfg, train=pretrain)
    head = RbmLayer.random(sizes[-2], sizes[-1], rng,
                           activation=ActivationKind.SOFTMAX,
                           index=len(sizes) - 2)
    return LayerStack(layers=hidden + [head]).check()


def forward(stack: LayerStack, batch: Matrix) -> ForwardTrace:
    """Full forward pass keeping every pre-activation and activation."""
    a = np.asarray(batch, dtype=np.float64)
    if a.shape[1] != stack.layers[0].n_v:
        raise ShapeError(f"input width {a.shape[1]} != {stack.layers[0].n_v}")
    zs, activations = [], [a]
    for layer in stack.layers:
        z = activations[-1] @ layer.w + layer.b_h
        zs.append(z)
        activations.append(activate(z, layer.activation))
    return ForwardTrace(z=zs, a=activations)


def _output_delta(a_out: Matrix, target: Matrix, loss: LossKind,
                  out_kind: ActivationKind) -> Matrix:
    """Per-sample delta at the output layer (the 1/m factor is applied when
    gradients are formed)."""
    if loss == LossKind.CROSS_ENTROPY:
        if out_kind != ActivationKind.SOFTMAX:
            raise ConfigError("cross entropy expects a softmax output layer")
        return a_out - target
    if loss == LossKind.MSE:
        return (a_out - target) * activation_derivative(a_out, out_kind)
    raise ConfigError(f"unsupported fine-tuning loss: {loss!r}")


def backprop_gradients(stack: LayerStack, batch: Matrix, target: Matrix,
                       loss: LossKind):
    """Per-layer (dW, db) for the row-averaged loss on one batch."""
    trace = forward(stack, batch)
    m = batch.shape[0]
    delta = _output_delta(trace.a[-1], target, loss, stack.layers[-1].activation)
    grads = [None] * len(stack.layers)
    for l in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[l]
        dw = trace.a[l].T @ delta / m
        db = delta.mean(axis=0, keepdims=True)
        grads[l] = (dw, db)
        if l > 0:
            below = stack.layers[l - 1]
            delta = (delta @ layer.w.T) * activation_derivative(
                trace.a[l], below.activation)
    return grads


def _backprop_epochs(stack: LayerStack, pairs, loss: LossKind, cfg: TrainConfig,
                     hook, noisy=None) -> None:
    """Momentum backprop over (input, target) batch pairs, updating every
    layer's weights and hidden biases in place; `noisy` corrupts each
    input afresh every epoch."""
    params = ParamGroup([l.w for l in stack.layers], [l.b_h for l in stack.layers],
                        cfg.decay)

    def epoch(lr, rho):
        for x, t in pairs:
            grads = backprop_gradients(stack, noisy(x) if noisy else x, t, loss)
            params.step([dw for dw, _ in grads] + [db for _, db in grads], lr, rho)

    run_epochs(cfg, params, epoch, hook)


def backprop_fine_tune(stack: LayerStack, data, labels, loss: LossKind,
                       cfg: TrainConfig, hook=None) -> LayerStack:
    """Refine all layers by backpropagation. The layers' arrays are updated
    in place, so arrays a caller holds change with the model."""
    data_batches = batch_part(data, 0)
    label_batches = batch_part(labels, 1)
    if len(data_batches) != len(label_batches):
        raise ShapeError("data/label batch counts differ")
    _backprop_epochs(stack, list(zip(data_batches, label_batches)), loss, cfg, hook)
    return stack


def predict(stack: LayerStack, data: Matrix) -> np.ndarray:
    return forward(stack, data).a[-1]


def classify_dnn(stack: LayerStack, data: Matrix, labels: Matrix) -> ClassificationReport:
    """Argmax of the final softmax emission against the true classes."""
    pred = predict(stack, data).argmax(axis=1)
    return classification_report(pred, label_indices(labels),
                                 stack.layers[-1].n_h)


def hidden_features(stack: LayerStack, batches):
    """Propagate batches through every layer except the output head."""
    feats = batch_part(batches, 0)
    for layer in stack.layers[:-1]:
        feats = [hidden_given_visible(layer, f) for f in feats]
    return feats
