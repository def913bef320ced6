"""Deterministic synthetic image corpus for demos and desk-scale runs when
the real datasets are not on disk.

Each class is a fixed arrangement of Gaussian bumps on a square canvas;
samples jitter the prototype with shifts, pixel noise, and dropped pixels.
The result is learnable but not trivially separable, which is what the
training-improvement checks need.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import make_rng


def class_prototypes(n_classes: int = 10, side: int = 28, seed: int = 1234,
                     bumps: int = 4) -> np.ndarray:
    rng = make_rng(seed)
    yy, xx = np.mgrid[0:side, 0:side]
    protos = np.zeros((n_classes, side, side))
    for c in range(n_classes):
        img = np.zeros((side, side))
        for _ in range(bumps):
            cy, cx = rng.uniform(4, side - 4, size=2)
            sigma = rng.uniform(1.8, 3.5)
            amp = rng.uniform(0.6, 1.0)
            img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        protos[c] = img / img.max()
    return protos


def make_digit_corpus(n_train: int, n_test: int, seed: int = 0, side: int = 28,
                      n_classes: int = 10, noise: float = 0.32,
                      max_shift: int = 3, drop: float = 0.22,
                      scale_lo: float = 0.65):
    """(train_x, train_y, test_x, test_y); labels are m x 1 index columns,
    pixels lie in [0, 1].

    The default jitter puts a 500-hidden RBM classifier in the few-percent
    error regime on a 10k/2k split, leaving visible headroom for the
    fine-tuning stages to improve on pretraining.
    """
    protos = class_prototypes(n_classes=n_classes, side=side)
    rng = make_rng(seed)

    def sample(n):
        labels = rng.integers(0, n_classes, size=n)
        x = np.empty((n, side * side))
        for i, c in enumerate(labels):
            img = protos[c] * rng.uniform(scale_lo, 1.0)
            dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
            img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
            img = img + noise * rng.standard_normal((side, side))
            img[rng.random((side, side)) < drop] = 0.0
            x[i] = np.clip(img, 0.0, 1.0).reshape(-1)
        return x, labels.astype(np.float64).reshape(-1, 1)

    train_x, train_y = sample(n_train)
    test_x, test_y = sample(n_test)
    return train_x, train_y, test_x, test_y


def write_idx_images(path, pixels: np.ndarray, rows: int = 28, cols: int = 28) -> None:
    """Write one image per row as a standard big-endian IDX image file.

    Integer pixels are written as bytes as they are; floating-point rows are
    read as [0, 1] intensities and rounded onto 0..255 first."""
    pixels = np.asarray(pixels)
    if np.issubdtype(pixels.dtype, np.floating):
        pixels = np.clip(np.rint(pixels * 255.0), 0, 255)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, pixels.shape[0], rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    idx = np.asarray(labels).reshape(-1).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 2049, idx.size))
        fh.write(idx.tobytes())


def write_cifar_batch(path, labels: np.ndarray, pixels: np.ndarray) -> None:
    """Write CIFAR-10 binary records: one label byte, then 3072 pixel bytes."""
    records = np.hstack([np.asarray(labels, dtype=np.uint8).reshape(-1, 1),
                         np.asarray(pixels, dtype=np.uint8)])
    Path(path).write_bytes(records.tobytes())


def write_mnist_style_dir(dirpath, n_train: int, n_test: int, seed: int = 0,
                          **kwargs) -> None:
    """Generate a corpus and lay it out with the standard MNIST file names."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    train_x, train_y, test_x, test_y = make_digit_corpus(n_train, n_test,
                                                         seed=seed, **kwargs)
    write_idx_images(d / "train-images-idx3-ubyte", train_x)
    write_idx_labels(d / "train-labels-idx1-ubyte", train_y)
    write_idx_images(d / "t10k-images-idx3-ubyte", test_x)
    write_idx_labels(d / "t10k-labels-idx1-ubyte", test_y)
