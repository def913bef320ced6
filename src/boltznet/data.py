"""Dataset readers (MNIST IDX, CIFAR-10 binary, raw big-endian float
matrices) and batch-building utilities.

All readers validate declared dimensions against actual byte counts before
allocating, scale pixel features into [0, 1], and are pure: the same file
always yields the same matrix.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import DomainError, Matrix, Rng, ShapeError, class_indices

MNIST_IMAGE_MAGIC = 2051
MNIST_LABEL_MAGIC = 2049
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 32*32*3 pixel bytes


class FormatError(ValueError):
    """File does not conform to the declared binary format."""


def _read_bytes(path) -> bytes:
    return Path(path).read_bytes()


def read_mnist_images(path) -> Matrix:
    """Read an IDX image file into an m x (rows*cols) matrix scaled to [0,1]."""
    raw = _read_bytes(path)
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated IDX header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != MNIST_IMAGE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic}, expected {MNIST_IMAGE_MAGIC}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: {len(raw)} bytes, header declares {expected}")
    if max(count, rows * cols) > len(raw):  # so even an empty matrix's shape fits
        raise FormatError(f"{path}: {count} images of {rows}x{cols} exceed the file")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    return np.divide(pixels.reshape(count, rows * cols), 255.0)  # converts as it scales


def read_mnist_labels(path) -> Matrix:
    """Read an IDX label file into an m x 1 matrix of class indices in [0, 9]."""
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated IDX header")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != MNIST_LABEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic}, expected {MNIST_LABEL_MAGIC}")
    if len(raw) != 8 + count:
        raise FormatError(f"{path}: {len(raw)} bytes, header declares {8 + count}")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if labels.size and labels.max() > 9:
        raise FormatError(f"{path}: label byte {labels.max()} outside [0, 9]")
    return labels.astype(np.float64).reshape(count, 1)


def read_cifar10(paths: Sequence):
    """Read the six CIFAR-10 binary batch files.

    The first five files are training batches, the last is the test batch.
    Each record is one label byte (0-9) followed by 3072 pixel bytes (1024 R,
    1024 G, 1024 B). Returns (train_data, train_labels, test_data,
    test_labels) with pixels scaled to [0, 1].
    """
    if len(paths) != 6:
        raise FormatError(f"expected 6 CIFAR batch files, got {len(paths)}")

    def records(path):
        raw = _read_bytes(path)
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise FormatError(
                f"{path}: length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
        recs = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        if recs[:, 0].max() > 9:
            raise FormatError(f"{path}: label byte {recs[:, 0].max()} outside [0, 9]")
        return recs

    def scaled(batches):
        recs = np.concatenate(batches)  # joined as bytes, one float64 pass after
        return np.divide(recs[:, 1:], 255.0), recs[:, :1].astype(np.float64)

    return (*scaled([records(p) for p in paths[:5]]), *scaled([records(paths[5])]))


def read_f32be_matrix(path, rows: int, cols: int) -> Matrix:
    """Read big-endian 32-bit floats, widened to 64-bit, row-major. NaN and
    infinity pass through; `core.as_rows` rejects them at any model."""
    if rows < 0 or cols < 0:
        raise DomainError(f"matrix dimensions {rows}x{cols} must not be negative")
    raw = _read_bytes(path)
    needed = 4 * rows * cols
    if len(raw) < needed:
        raise FormatError(f"{path}: {len(raw)} bytes, need at least {needed}")
    values = np.frombuffer(raw, dtype=">f4", count=rows * cols)
    return values.astype(np.float64).reshape(rows, cols)


def one_of_k(labels: Matrix, k: int) -> Matrix:
    """Expand an m x 1 column of class indices to an m x k indicator matrix."""
    return np.eye(k)[class_indices(labels, k)]


def shuffle_paired(data: Matrix, labels: Matrix, rng: Rng):
    """Apply one random row permutation to both matrices."""
    if data.shape[0] != labels.shape[0]:
        raise ShapeError("data and labels must have the same number of rows")
    perm = rng.permutation(data.shape[0])
    return data[perm], labels[perm]


def make_batches(data: Matrix, labels: Optional[Matrix], num_batches: int) -> list:
    """Split rows into `num_batches` contiguous (x, y) batches, y None when
    `labels` is.

    All batches hold floor(rows / num_batches) rows except the last, which
    carries any remainder.
    """
    rows = data.shape[0]
    if num_batches < 1:
        raise DomainError("num_batches must be >= 1")
    if num_batches > rows:
        raise DomainError(f"num_batches {num_batches} exceeds {rows} rows")
    if labels is not None and labels.shape[0] != rows:
        raise ShapeError("data and labels must have the same number of rows")
    size = rows // num_batches
    batches = []
    for i in range(num_batches):
        lo = i * size
        hi = rows if i == num_batches - 1 else lo + size
        lab = labels[lo:hi] if labels is not None else None
        batches.append((data[lo:hi], lab))
    return batches

