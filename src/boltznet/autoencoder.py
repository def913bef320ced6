"""Autoencoder and denoising autoencoder: symmetric construction from
stacked RBMs, input corruption, MSE fine-tuning, reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, DomainError, LossKind, Matrix, Rng, ShapeError, _row_count,
                   as_rows, check_batches, in_row_groups, make_rng)
from .dnn import LayerStack, _backprop_epochs
from .rbm import RbmLayer, TrainConfig, _last_activation, _pretrain_layers


@dataclass
class AeModel:
    """Symmetric reconstruction stack; denoise_rate 0 is a plain autoencoder."""

    stack: LayerStack
    denoise_rate: float = 0.0

    @property
    def sizes(self):
        return self.stack.sizes

    def check(self) -> "AeModel":
        """Raise ShapeError unless the stack checks and outputs its input width."""
        if self.stack.check().sizes[-1] != self.sizes[0]:
            raise ShapeError(f"output width {self.sizes[-1]} != input {self.sizes[0]}")
        return self


def build_symmetric(sizes_half, batches, cfg: TrainConfig,
                    denoise_rate: float = 0.0) -> AeModel:
    """Pretrain the encoder half as RBMs and mirror it into the decoder.

    `sizes_half` lists n_0 .. n_{N/2}. Decoder layer i starts from the
    transposed weight of its mirror layer and the mirror RBM's visible bias,
    so the palindrome n_i = n_{N-i} holds by construction.
    """
    if len(sizes_half) < 2:
        raise ConfigError("need at least input size and one encoding size")
    if not 0.0 <= denoise_rate <= 1.0:
        raise ConfigError("denoise rate must lie in [0, 1]")
    encoder, _ = _pretrain_layers(sizes_half, batches, cfg)
    decoder = [RbmLayer(w=m.w.T.copy(), b_v=m.b_h.copy(), b_h=m.b_v.copy(),
                        activation=m.activation) for m in reversed(encoder)]
    stack = LayerStack(layers=encoder + decoder).check()
    return AeModel(stack=stack, denoise_rate=denoise_rate)


def corrupt(batch: Matrix, rate: float, rng: Rng) -> Matrix:
    """Element-wise mask with keep probability 1 - rate (fresh mask)."""
    if not 0.0 <= rate <= 1.0:
        raise DomainError("corruption rate must lie in [0, 1]")
    batch = np.asarray(batch, dtype=np.float64)
    mask = (rng.random(batch.shape) > rate).astype(np.float64)
    return batch * mask


def fine_tune_mse(model: AeModel, batches, cfg: TrainConfig, hook=None) -> AeModel:
    """Backpropagate the reconstruction MSE through the whole stack on
    batches checked by `core.check_batches`, each y ignored, updating the
    layers' arrays in place.

    When the model has a denoise rate the input of every batch is freshly
    corrupted each epoch, while the target stays the clean data.
    """
    rng = make_rng(cfg.seed)
    noisy = ((lambda x: corrupt(x, model.denoise_rate, rng))
             if model.denoise_rate > 0 else None)
    pairs = [(x, x) for x, _ in check_batches(batches, model.sizes[0])]
    _backprop_epochs(model.stack, pairs, LossKind.MSE, cfg, hook, noisy)
    return model


def reconstruct(model: AeModel, data: Matrix) -> Matrix:
    """Full forward pass in row groups (`core.in_row_groups`) that hold one
    activation at a time; output has the input's shape, in a fresh array."""
    def group(x):
        x = as_rows(x, model.sizes[0])
        out = _last_activation(model.stack.layers, x)
        if out.shape != x.shape:
            raise ShapeError("reconstruction shape does not match the input")
        return out
    return in_row_groups(group, data, model.stack.group_rows)


def reconstruction_error(model: AeModel, data: Matrix) -> float:
    """`core.loss`'s MSE of the reconstruction, formed in its own buffer;
    DomainError for zero rows."""
    data = np.asarray(data, dtype=np.float64)
    d = reconstruct(model, data)
    np.subtract(d, data, out=d)
    return float(0.5 * np.square(d, out=d).sum() / _row_count(d))
