"""Numeric substrate shared by every model: dense float64 matrices,
activation and loss functions with their derivatives, and seeded sampling.

All matrices are 2-D float64 numpy arrays in row-major order with one
sample per row. Functions here are pure: randomness always comes from an
explicitly passed generator, never from global state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# A Matrix is a 2-D float64 ndarray, one sample per row.
Matrix = np.ndarray
Rng = np.random.Generator

LEAKY_SLOPE = 0.01
LOG_FLOOR = 1e-12  # guards log(0) in cross entropy


class ConfigError(ValueError):
    """Invalid configuration value (unknown kind, bad hyperparameter)."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """Matrix dimensions do not line up."""


class DivergenceError(Exception):
    """Training produced non-finite values. Not a ValueError: the input was
    valid, the optimisation blew up."""


class ActivationKind(enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"
    LEAKY_RELU = "leaky_relu"
    SOFTMAX = "softmax"
    IDENTITY = "identity"


class LossKind(enum.Enum):
    MSE = "mse"
    CROSS_ENTROPY = "cross_entropy"
    ABSOLUTE = "absolute"
    BINARY = "binary"


def make_rng(seed: int) -> Rng:
    """Deterministic generator: same seed, same stream."""
    return np.random.default_rng(seed)


def matrix(values) -> Matrix:
    """Coerce nested sequences (or scalars) to a 2-D float64 matrix."""
    m = np.array(values, dtype=np.float64)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(1, -1)
    elif m.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got {m.ndim}")
    return m


def sigmoid(z: Matrix) -> Matrix:
    # split by sign so exp never overflows
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z: Matrix) -> Matrix:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def activate(z: Matrix, kind: ActivationKind) -> Matrix:
    """Element-wise activation; softmax is applied per row."""
    z = np.asarray(z, dtype=np.float64)
    if kind == ActivationKind.SIGMOID:
        return sigmoid(z)
    if kind == ActivationKind.TANH:
        return np.tanh(z)
    if kind == ActivationKind.RELU:
        return np.maximum(z, 0.0)
    if kind == ActivationKind.LEAKY_RELU:
        return np.where(z > 0, z, LEAKY_SLOPE * z)
    if kind == ActivationKind.SOFTMAX:
        return softmax(z)
    if kind == ActivationKind.IDENTITY:
        return z.copy()
    raise ConfigError(f"unknown activation kind: {kind!r}")


def activation_derivative(a: Matrix, kind: ActivationKind) -> Matrix:
    """Derivative expressed in terms of the activation output `a`.

    For sigmoid this is a*(1-a), for tanh 1-a^2. Softmax has no standalone
    element-wise derivative here; its gradient is handled jointly with the
    cross-entropy loss by the classifier code.
    """
    a = np.asarray(a, dtype=np.float64)
    if kind == ActivationKind.SIGMOID:
        return a * (1.0 - a)
    if kind == ActivationKind.TANH:
        return 1.0 - a * a
    if kind == ActivationKind.RELU:
        return (a > 0).astype(np.float64)
    if kind == ActivationKind.LEAKY_RELU:
        return np.where(a > 0, 1.0, LEAKY_SLOPE)
    if kind == ActivationKind.IDENTITY:
        return np.ones_like(a)
    if kind == ActivationKind.SOFTMAX:
        raise ConfigError("softmax derivative is handled jointly with cross entropy")
    raise ConfigError(f"unknown activation kind: {kind!r}")


def _check_same_shape(pred: Matrix, target: Matrix) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")


def loss(pred: Matrix, target: Matrix, kind: LossKind) -> float:
    """Scalar loss averaged over rows (samples)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_same_shape(pred, target)
    m = pred.shape[0]
    if kind == LossKind.MSE:
        return float(0.5 * np.square(pred - target).sum() / m)
    if kind == LossKind.CROSS_ENTROPY:
        return float(-(target * np.log(np.maximum(pred, LOG_FLOOR))).sum() / m)
    if kind == LossKind.ABSOLUTE:
        return float(np.abs(pred - target).sum() / m)
    if kind == LossKind.BINARY:
        # 0-1 mismatch count at 0.5 threshold; reporting only
        return float(((pred >= 0.5) != (target >= 0.5)).sum() / m)
    raise ConfigError(f"unknown loss kind: {kind!r}")


def loss_derivative(pred: Matrix, target: Matrix, kind: LossKind) -> Matrix:
    """d loss / d pred for the row-averaged losses above."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_same_shape(pred, target)
    m = pred.shape[0]
    if kind == LossKind.MSE:
        return (pred - target) / m
    if kind == LossKind.CROSS_ENTROPY:
        return -target / np.maximum(pred, LOG_FLOOR) / m
    if kind == LossKind.ABSOLUTE:
        return np.sign(pred - target) / m
    if kind == LossKind.BINARY:
        raise ConfigError("binary loss is for reporting only and has no derivative")
    raise ConfigError(f"unknown loss kind: {kind!r}")


def sample_bernoulli(p: Matrix, rng: Rng) -> Matrix:
    """Binary sample: 1 where a fresh uniform draw u satisfies u < p.

    A NaN probability means the model producing it diverged, and raises
    DivergenceError instead of sampling as 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.size:
        lo = p.min()  # NaN propagates through min
        if np.isnan(lo):
            raise DivergenceError("NaN bernoulli probability: training diverged")
        if lo < 0.0 or p.max() > 1.0:
            raise DomainError("bernoulli probabilities must lie in [0, 1]")
    u = rng.random(p.shape)
    return (u < p).astype(np.float64)


@dataclass
class ClassificationReport:
    """Outcome of scoring predictions against true labels."""

    error_rate: float
    confusion: np.ndarray  # (K, K) counts, row = true class, col = predicted
    n_samples: int


def label_indices(labels: Matrix) -> np.ndarray:
    """Class indices from either an index column or a one-of-K matrix."""
    labels = np.asarray(labels)
    if labels.ndim == 2 and labels.shape[1] == 1:
        return labels[:, 0].astype(np.int64)
    if labels.ndim == 1:
        return labels.astype(np.int64)
    return labels.argmax(axis=1).astype(np.int64)


def classification_report(pred_idx, true_idx, n_classes: int) -> ClassificationReport:
    pred_idx = np.asarray(pred_idx, dtype=np.int64)
    true_idx = np.asarray(true_idx, dtype=np.int64)
    if pred_idx.shape != true_idx.shape:
        raise ShapeError("prediction/label count mismatch")
    n = pred_idx.size
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (true_idx, pred_idx), 1)
    errors = int((pred_idx != true_idx).sum())
    return ClassificationReport(error_rate=errors / n, confusion=confusion, n_samples=n)
