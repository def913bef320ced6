"""Autoencoder and denoising autoencoder: symmetric construction from
stacked RBMs, input corruption, MSE fine-tuning, reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ConfigError, DomainError, LossKind, Matrix, Rng, ShapeError, loss,
                   make_rng)
from .data import batch_part
from .dnn import LayerStack, _backprop_epochs, forward
from .rbm import RbmLayer, TrainConfig, _pretrain_layers


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
    decoder = []
    n_half = len(encoder)
    for i, mirror in enumerate(reversed(encoder)):
        decoder.append(RbmLayer(w=mirror.w.T.copy(), b_v=mirror.b_h.copy(),
                                b_h=mirror.b_v.copy(),
                                activation=mirror.activation,
                                index=n_half + i))
    stack = LayerStack(layers=encoder + decoder).check()
    return AeModel(stack=stack, denoise_rate=denoise_rate)


def corrupt(batch: Matrix, rate: float, rng: Rng) -> Matrix:
    """Element-wise mask with keep probability 1 - rate (fresh mask)."""
    if not 0.0 <= rate <= 1.0:
        raise DomainError("corruption rate must lie in [0, 1]")
    batch = np.asarray(batch, dtype=np.float64)
    mask = (rng.random(batch.shape) > rate).astype(np.float64)
    return batch * mask


def fine_tune_mse(model: AeModel, clean, cfg: TrainConfig, hook=None) -> AeModel:
    """Backpropagate the reconstruction MSE through the whole stack,
    updating the layers' arrays in place.

    When the model has a denoise rate the input of every batch is freshly
    corrupted each epoch, while the target stays the clean data.
    """
    clean_batches = batch_part(clean, 0)
    rng = make_rng(cfg.seed)
    noisy = ((lambda x: corrupt(x, model.denoise_rate, rng))
             if model.denoise_rate > 0 else None)
    _backprop_epochs(model.stack, [(t, t) for t in clean_batches], LossKind.MSE,
                     cfg, hook, noisy)
    return model


def reconstruct(model: AeModel, data: Matrix) -> Matrix:
    """Full forward pass; output has the input's shape."""
    data = np.asarray(data, dtype=np.float64)
    out = forward(model.stack, data).a[-1]
    if out.shape != data.shape:
        raise ShapeError("reconstruction shape does not match the input")
    return out


def reconstruction_error(model: AeModel, data: Matrix) -> float:
    """Mean over samples of half the summed squared reconstruction error."""
    return loss(reconstruct(model, data), np.asarray(data, dtype=np.float64),
                LossKind.MSE)
