"""Bimodal autoencoder: a denoising autoencoder over two concatenated
modalities, trained with corruption so either modality can be predicted
from the other by zero-filling its slots.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .autoencoder import AeModel, build_symmetric, reconstruct
from .core import ConfigError, DomainError, Matrix, ShapeError, as_rows, make_rng
from .data import make_batches
from .rbm import TrainConfig


@dataclass
class ModalScale:
    """Min/max of one modality on the training data, for [0, 1] scaling."""

    lo: float
    hi: float

    def forward(self, x):
        span = self.hi - self.lo
        return (x - self.lo) / span if span > 0 else np.zeros_like(x)

    def inverse(self, x):
        return x * (self.hi - self.lo) + self.lo


@dataclass
class BimodalAe:
    ae: AeModel
    dim_a: int
    dim_b: int
    scale_a: ModalScale
    scale_b: ModalScale

    def check(self) -> "BimodalAe":
        """Raise ShapeError unless the autoencoder checks and takes dim_a + dim_b."""
        if self.dim_a + self.dim_b != self.ae.check().sizes[0]:
            raise ShapeError(f"modal widths {self.dim_a}+{self.dim_b} != input "
                             f"{self.ae.sizes[0]}")
        return self


def build_bimodal(data_a: Matrix, data_b: Matrix, sizes_half, cfg: TrainConfig,
                  num_batches: int, denoise_rate: float = 0.3) -> tuple[BimodalAe, list]:
    """Scale each modality to [0, 1], join row-aligned samples, shuffle
    them with `cfg.seed`, split them into `num_batches` batches and pretrain
    a symmetric denoising autoencoder on them: (model, batches).

    Corruption is what teaches the network to fill in missing values, so a
    zero denoise rate is rejected. Fine-tune with
    `fine_tune_mse(model.ae, batches, cfg)`.
    """
    data_a, data_b = as_rows(data_a), as_rows(data_b)
    if data_a.shape[0] != data_b.shape[0]:
        raise ShapeError("modalities must be row-aligned (same samples)")
    if denoise_rate <= 0.0:
        raise ConfigError("modal prediction needs corruption: denoise rate must be > 0")
    dim_a, dim_b = data_a.shape[1], data_b.shape[1]
    if sizes_half[0] != dim_a + dim_b:
        raise ShapeError(f"first layer size {sizes_half[0]} != {dim_a}+{dim_b}")

    scale_a = ModalScale(float(data_a.min()), float(data_a.max()))
    scale_b = ModalScale(float(data_b.min()), float(data_b.max()))
    joined = np.hstack([scale_a.forward(data_a), scale_b.forward(data_b)])
    joined = joined[make_rng(cfg.seed).permutation(len(joined))]
    batches = make_batches(joined, None, num_batches)
    ae = build_symmetric(sizes_half, batches, cfg, denoise_rate=denoise_rate)
    model = BimodalAe(ae=ae, dim_a=dim_a, dim_b=dim_b, scale_a=scale_a, scale_b=scale_b)
    return model, batches


def predict_modal(model: BimodalAe, given_a: Matrix) -> Matrix:
    """Predict modality b from modality a by reconstructing with the b
    slots zero-filled. The output is in modality b's original scale."""
    given_a = as_rows(given_a, model.dim_a)
    x = np.hstack([model.scale_a.forward(given_a),
                   np.zeros((given_a.shape[0], model.dim_b))])
    recon = reconstruct(model.ae, x)
    return model.scale_b.inverse(recon[:, model.dim_a:])


def modal_error_rate(pred: Matrix, truth: Matrix) -> float:
    """Mean per-sample relative L2 error, as a percentage.

    Rows whose true norm is zero are excluded (a warning reports how many).
    """
    pred, truth = as_rows(pred), as_rows(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    norms = np.linalg.norm(truth, axis=1)
    keep = norms > 0
    excluded = int((~keep).sum())
    if excluded:
        warnings.warn(f"excluded {excluded} zero-norm truth rows from the error rate")
    if not keep.any():
        raise DomainError("every truth row has zero norm")
    rel = np.linalg.norm(pred[keep] - truth[keep], axis=1) / norms[keep]
    return float(rel.mean() * 100.0)
