"""Cross-modal prediction with a bimodal denoising autoencoder.

Two row-aligned modalities are scaled to [0, 1], concatenated, and used to
train a denoising autoencoder; corruption teaches it to fill in missing
values. Prediction zero-fills one modality's slots and reads that slice of
the reconstruction. Here modality b is a noisy linear mixture of the same
latent factors as modality a, so it is genuinely predictable.
"""

from dataclasses import replace

import numpy as np

import boltznet as bn
from boltznet import multimodal as mm
from boltznet.core import make_rng

# latent mixing factors shared by both modalities
basis_a = make_rng(100).random((6, 24))
basis_b = make_rng(101).random((6, 12)) * 3.0  # different scale on purpose


def sample(n, seed):
    coef = make_rng(seed).random((n, 6))
    coef /= coef.sum(axis=1, keepdims=True)
    return coef @ basis_a, coef @ basis_b


train_a, train_b = sample(1500, seed=7)
test_a, test_b = sample(300, seed=8)

print("training the bimodal autoencoder (denoise rate 0.3)...")
cfg = bn.TrainConfig(epochs=8, lr=0.3, seed=3)
model, batches = mm.build_bimodal(train_a, train_b, [36, 24], cfg, 30, denoise_rate=0.3)
bn.fine_tune_mse(model.ae, batches, replace(cfg, epochs=200))
print(f"modal split: {model.dim_a} + {model.dim_b} inputs")

pred_b = mm.predict_modal(model, test_a)
rate = mm.modal_error_rate(pred_b, test_b)
print(f"predicting modality b from modality a alone:")
print(f"  relative L2 error: {rate:.2f}%")
print(f"  per-entry mean absolute error: {np.abs(pred_b - test_b).mean():.4f} "
      f"(modality b spans [{test_b.min():.2f}, {test_b.max():.2f}])")
