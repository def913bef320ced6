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


def as_rows(data, width: int = None) -> Matrix:
    """`data` as float64 rows; ShapeError unless it is 2-D and, when `width`
    is given, each row is `width` wide; DomainError for a NaN or infinite
    value."""
    rows = np.asarray(data, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"input must be 2-D rows, got shape {rows.shape}")
    if width is not None and rows.shape[1] != width:
        raise ShapeError(f"input width {rows.shape[1]} != {width}")
    # NaN propagates through min and max, and an infinity is one of them
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        raise DomainError("input holds a non-finite value (NaN or infinity)")
    return rows


def group_rows(weights, widths) -> int:
    """Rows per prediction group for a model with `weights` whose prediction
    computes layers `widths` units wide: the largest weight's element count
    over the widest of them, at least 1. A group's widest activation is
    then no larger than the model's largest weight."""
    return max(1, max(w.size for w in weights) // max(widths))


def in_row_groups(predict, data, rows: int) -> Matrix:
    """`predict(data)` for a `predict` that maps each row on its own. A 2-D
    input of more than `rows` rows runs `rows` rows at a time into one
    output array allocated once, so the working memory is set by the group,
    not by the input; any other input is one call."""
    if np.ndim(data) != 2 or len(data) <= rows:
        return predict(data)
    first = predict(data[:rows])
    out = np.empty((len(data), first.shape[1]))
    out[:rows] = first
    del first  # the next groups run without it
    for start in range(rows, len(data), rows):
        out[start:start + rows] = predict(data[start:start + rows])
    return out


def check_batches(batches, width: int, y_width: int = None, one_of_k: bool = False) -> list:
    """The one rule for a training batch list: its (x, y) pairs as float64
    rows, arrays that already are left uncopied, y None unless `y_width`
    says y is read. DomainError for no batches or a batch without rows;
    ShapeError unless each x is `width` wide and each read y is `y_width`
    wide with as many rows as its x; DomainError for a `one_of_k` y whose
    rows are not one-of-K."""
    if not batches:
        raise DomainError("training needs at least one batch of at least one data row")
    pairs = []
    for i, (x, y) in enumerate(batches):
        x = as_rows(x, width)
        if len(x) == 0:
            raise DomainError(f"batch {i} is empty: each needs at least one data row")
        if y_width is None:
            y = None
        else:
            y = as_rows(y, y_width)
            if len(y) != len(x):
                raise ShapeError(f"{len(y)} label rows for {len(x)} data rows")
            if one_of_k and not (np.all((y == 0.0) | (y == 1.0))
                                 and np.allclose(y.sum(axis=1), 1.0)):
                raise DomainError("labels must be one-of-K rows")
        pairs.append((x, y))
    return pairs


def sigmoid(z: Matrix, out: Matrix = None) -> Matrix:
    """The logistic function of `z`, written into `out` when it is given
    (a float64 array of `z`'s shape, which may be `z` itself)."""
    # e = exp(-|z|) never overflows: 1/(1+e) where z >= 0, e/(1+e) below.
    # As e <= 1, that numerator is max(e, z >= 0).
    # Two passes, not np.copysign(z, -1.0): its loop over a scalar operand
    # is not vectorised, and it made the whole call 1-12% slower on 30 to
    # 1,000 rows of 500.
    e = np.abs(z, dtype=np.float64)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0, out=out)
    e += 1.0
    out /= e
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


def _row_count(x: Matrix) -> int:
    """The divisor of a row average: `x`'s row count; DomainError for none."""
    if len(x) == 0:
        raise DomainError("a row average needs at least one row")
    return len(x)


def loss(pred: Matrix, target: Matrix, kind: LossKind) -> float:
    """Scalar loss averaged over rows (samples); DomainError for zero rows."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_same_shape(pred, target)
    m = _row_count(pred)
    if kind == LossKind.MSE:
        d = pred - target
        return float(0.5 * np.square(d, out=d).sum() / m)
    if kind == LossKind.CROSS_ENTROPY:
        return float(-(target * np.log(np.maximum(pred, LOG_FLOOR))).sum() / m)
    if kind == LossKind.ABSOLUTE:
        return float(np.abs(pred - target).sum() / m)
    if kind == LossKind.BINARY:
        # 0-1 mismatch count at 0.5 threshold; reporting only
        return float(((pred >= 0.5) != (target >= 0.5)).sum() / m)
    raise ConfigError(f"unknown loss kind: {kind!r}")


def loss_derivative(pred: Matrix, target: Matrix, kind: LossKind) -> Matrix:
    """d loss / d pred for the row-averaged losses above; DomainError for
    zero rows."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_same_shape(pred, target)
    m = _row_count(pred)
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


def class_indices(labels, k: int) -> np.ndarray:
    """`labels` (an m x 1 column of class indices) as m int64 indices;
    DomainError unless each is an integer in [0, k)."""
    idx = np.asarray(labels, dtype=np.float64).reshape(-1)
    as_int = idx.astype(np.int64)
    if not np.array_equal(as_int, idx):
        raise DomainError("labels must be integral class indices")
    if as_int.size and (as_int.min() < 0 or as_int.max() >= k):
        raise DomainError(f"label index outside [0, {k})")
    return as_int


def classify(scores: Matrix, labels) -> ClassificationReport:
    """The one scoring rule: each row's class is the index of its largest
    score, scored against `labels`, one class index in [0, K) per row for K
    scores. DomainError for zero rows or a bad index, ShapeError for a label
    count other than the row count."""
    if len(scores) == 0:
        raise DomainError("scoring needs at least one row")
    k = scores.shape[1]
    pred, true = scores.argmax(axis=1), class_indices(labels, k)
    if pred.shape != true.shape:
        raise ShapeError("prediction/label count mismatch")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (true, pred), 1)
    return ClassificationReport(error_rate=int((pred != true).sum()) / pred.size,
                                confusion=confusion, n_samples=pred.size)
