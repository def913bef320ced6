"""Autoencoder vs denoising autoencoder on the same architecture.

Both are built by pretraining the encoder half as RBMs and mirroring the
transposed weights into the decoder. The denoising variant sees corrupted
inputs during fine-tuning while always reconstructing the clean originals,
so fine-tuning buys it a much larger improvement. Writes PGM images of the
noisy inputs and their reconstructions.
"""

import numpy as np

import boltznet as bn
from boltznet import autoencoder as ae
from boltznet.cli import export_pgm
from boltznet.data import make_batches
from boltznet.synth import make_digit_corpus

train_x, _, test_x, _ = make_digit_corpus(3000, 600, seed=1)
batches = make_batches(train_x, None, 60)
rate = 0.3

build_cfg = bn.TrainConfig(epochs=3, lr=0.1, seed=0)
ft_cfg = bn.TrainConfig(epochs=8, lr=0.1, seed=5)

print("building mirrored 784-300-150-300-784 models...")
dae = ae.build_symmetric([784, 300, 150], batches, build_cfg, denoise_rate=rate)
plain = ae.build_symmetric([784, 300, 150], batches, build_cfg)
print("decoder starts as the exact transpose of the encoder:",
      np.array_equal(dae.stack.layers[2].w, dae.stack.layers[1].w.T))


def denoise_error(model):
    noisy = ae.corrupt(test_x, rate, bn.make_rng(99))
    return bn.loss(ae.reconstruct(model, noisy), test_x, bn.LossKind.MSE)


dae_before = denoise_error(dae)
ae_before = ae.reconstruction_error(plain, test_x)

print("fine-tuning both models (8 epochs of MSE backprop)...")
ae.fine_tune_mse(dae, batches, ft_cfg)
ae.fine_tune_mse(plain, batches, ft_cfg)

dae_after = denoise_error(dae)
ae_after = ae.reconstruction_error(plain, test_x)
print(f"DAE error (noisy input): {dae_before:8.2f} -> {dae_after:8.2f}")
print(f"AE  error (clean input): {ae_before:8.2f} -> {ae_after:8.2f}")
print(f"fine-tuning helped the DAE more: "
      f"{dae_before - dae_after:.2f} > {ae_before - ae_after:.2f}")

noisy = ae.corrupt(test_x[:36], rate, bn.make_rng(99))
export_pgm(noisy, 28, 28, "dae_noisy_inputs.pgm")
export_pgm(ae.reconstruct(dae, noisy), 28, 28, "dae_reconstructions.pgm")
print("wrote dae_noisy_inputs.pgm and dae_reconstructions.pgm")
