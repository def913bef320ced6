"""Gradient-descent machinery: learning-rate annealing, momentum,
L1/L2 weight decay, dropout masks, the shared in-place parameter update
and the epoch loop every trainer runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .core import ConfigError, DivergenceError, DomainError, Matrix, Rng, ShapeError


class AnnealKind(enum.Enum):
    NONE = "none"
    EXPONENTIAL = "exp"
    DIVIDE = "div"
    STEP = "step"


@dataclass(frozen=True)
class AnnealSchedule:
    kind: AnnealKind = AnnealKind.NONE
    k: float = 0.0  # decay coefficient; ignored by the step schedule

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("anneal coefficient k must be >= 0")


@dataclass(frozen=True)
class MomentumSchedule:
    """Two-phase momentum: `early` below the epoch threshold, `late` at or above."""

    early: float = 0.5
    late: float = 0.9
    threshold: int = 5

    def __post_init__(self):
        for rho in (self.early, self.late):
            if not 0.0 <= rho < 1.0:
                raise ConfigError("momentum coefficients must lie in [0, 1)")


NO_MOMENTUM = MomentumSchedule(early=0.0, late=0.0, threshold=0)


class DecayKind(enum.Enum):
    NONE = "none"
    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class WeightDecaySpec:
    kind: DecayKind = DecayKind.NONE
    k: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("weight decay coefficient k must be >= 0")


NO_DECAY = WeightDecaySpec()


def anneal(base_lr: float, epoch: int, sched: AnnealSchedule) -> float:
    """Annealed learning rate at a 0-based epoch index."""
    if base_lr <= 0:
        raise ConfigError("base learning rate must be positive")
    if epoch < 0:
        raise ConfigError("epoch index must be >= 0")
    if sched.kind == AnnealKind.NONE:
        return base_lr
    if sched.kind == AnnealKind.EXPONENTIAL:
        return base_lr * math.exp(-sched.k * epoch)
    if sched.kind == AnnealKind.DIVIDE:
        return base_lr / (1.0 + sched.k * epoch)
    if sched.kind == AnnealKind.STEP:
        # halve every five epochs
        return base_lr * 0.5 ** (epoch // 5)
    raise ConfigError(f"unknown anneal kind: {sched.kind!r}")


def momentum_coeff(epoch: int, sched: MomentumSchedule) -> float:
    if epoch < 0:
        raise ConfigError("epoch index must be >= 0")
    return sched.early if epoch < sched.threshold else sched.late


def decay_penalty_gradient(w: Matrix, spec: WeightDecaySpec, out: Matrix = None) -> Matrix:
    """Gradient of the weight-decay penalty: k*sign(w) for L1, 2k*w for L2,
    written into `out` (w's shape) when it is given."""
    out = np.empty_like(w) if out is None else out
    if spec.kind == DecayKind.NONE:
        out[...] = 0.0
    elif spec.kind == DecayKind.L1:
        np.sign(w, out=out)
        out *= spec.k
    elif spec.kind == DecayKind.L2:
        np.multiply(w, 2.0 * spec.k, out=out)
    else:
        raise ConfigError(f"unknown decay kind: {spec.kind!r}")
    return out


STEP_BLOCK = 16384  # elements of each array one block of the parameter step touches


def _momentum_step(param: Matrix, grad: Matrix, vel, lr: float, rho: float,
                   spec: WeightDecaySpec, scratch) -> None:
    """In place, on a gradient `grad` already scaled by `lr`: vel *= rho;
    vel -= grad + lr * penalty; param += vel, or param -= grad + lr * penalty
    when `vel` is None, the same result from a zero velocity. The arrays
    are C-contiguous and run block by block over flat views, so each block
    stays in cache through every pass. With decay `grad` is consumed, and
    each block's penalty, its coefficient scaled by `lr`, is formed in
    `scratch` (flat, at least one block or all of `param`)."""
    penalty = None if spec.kind == DecayKind.NONE else replace(spec, k=spec.k * lr)
    p, g = param.reshape(-1), grad.reshape(-1)
    v = None if vel is None else vel.reshape(-1)
    for start in range(0, p.size, STEP_BLOCK):
        end = start + STEP_BLOCK
        pb, gb = p[start:end], g[start:end]
        if penalty is not None:
            gb += decay_penalty_gradient(pb, penalty, out=scratch[:gb.size])
        if v is None:
            pb -= gb
            continue
        vb = v[start:end]
        vb *= rho
        vb -= gb
        pb += vb


def apply_update(param: Matrix, grad: Matrix, vel: Matrix, lr: float, rho: float,
                 spec: WeightDecaySpec = NO_DECAY):
    """Momentum update step.

    vel' = rho * vel - lr * (grad + penalty)
    param' = param + vel'

    The penalty is scaled by the learning rate together with the gradient,
    so annealing does not change the model the decay steers toward.
    Returns (param', vel'): the in-place training step applied to copies,
    with `lr` folded into the gradient and the decay coefficient as the
    trainers fold it, so the formula holds to rounding.
    """
    if param.shape != grad.shape or param.shape != vel.shape:
        raise ShapeError("param/grad/velocity shapes must match")
    param, vel = (np.array(a, dtype=np.float64, order="C") for a in (param, vel))
    grad = np.multiply(grad, lr, dtype=np.float64, order="C")
    _momentum_step(param, grad, vel, lr, rho, spec, np.empty(min(param.size, STEP_BLOCK)))
    return param, vel


class ParamGroup:
    """Arrays trained together, updated in place: weights with the weight
    decay, biases without it. Each array has a gradient buffer, which
    trainers fill each step, already scaled by the step's learning rate, in
    the weights-then-biases order of `params`, and a velocity unless the
    `momentum` schedule the trainer runs is zero throughout; then `vels` is
    None and each step is plain gradient descent. With decay the group owns
    one penalty buffer of a block, or of the largest weight when that is
    smaller. The arrays must be C-contiguous (ShapeError otherwise): the
    step runs over flat views."""

    def __init__(self, weights, biases, decay: WeightDecaySpec, momentum: MomentumSchedule):
        self.params = list(weights) + list(biases)
        if not all(p.flags.c_contiguous for p in self.params):
            raise ShapeError("trained arrays must be C-contiguous")
        self.decays = [decay] * len(weights) + [NO_DECAY] * len(biases)
        self.grads = [np.zeros(p.shape) for p in self.params]  # C-contiguous
        self.vels = ([np.zeros_like(p) for p in self.params]
                     if momentum.early or momentum.late else None)
        self.scratch = (None if decay.kind == DecayKind.NONE or not weights else
                        np.empty(min(STEP_BLOCK, max(w.size for w in weights))))

    def step(self, lr: float, rho: float) -> None:
        """One step on the `lr`-scaled gradients in `grads`, which it may
        consume; `lr` scales the decay penalty, and `rho` is 0 for a group
        without velocities."""
        vels = self.vels or [None] * len(self.params)
        for param, grad, vel, spec in zip(self.params, self.grads, vels, self.decays):
            _momentum_step(param, grad, vel, lr, rho, spec, self.scratch)


def _check_finite(model, name: str, what: str = "values") -> None:
    """Raise DivergenceError("non-finite `what` in <path>") naming the first
    non-finite array reachable from `model`, called `name`, through
    dataclass fields and lists."""
    if isinstance(model, np.ndarray):
        if not np.isfinite(model).all():
            raise DivergenceError(f"non-finite {what} in {name}")
    elif isinstance(model, list):
        for i, item in enumerate(model):
            _check_finite(item, f"{name}[{i}]", what)
    elif is_dataclass(model):
        for f in fields(model):
            _check_finite(getattr(model, f.name), f"{name}.{f.name}", what)


def run_epochs(cfg, model, step, hook) -> None:
    """The training loop every model shares: for each of `cfg.epochs`
    epochs, anneal `cfg.lr`, pick the momentum, run `step(lr, rho)` over
    the epoch's batches, check that every array reachable from `model` is
    finite (DivergenceError naming the first that is not) and report
    `hook(epoch, lr, rho)`. A truthy `step` result stops training after
    that epoch's report."""
    for epoch in range(cfg.epochs):
        lr = anneal(cfg.lr, epoch, cfg.anneal)
        rho = momentum_coeff(epoch, cfg.momentum)
        stop = step(lr, rho)
        _check_finite(model, type(model).__name__, f"parameters after epoch {epoch}")
        if hook is not None:
            hook(epoch, lr, rho)
        if stop:
            break


def dropout_mask(n: int, rate: float, rng: Rng) -> Matrix:
    """1 x n binary mask: entry 1 keeps the unit (u > rate), 0 blocks it."""
    if not 0.0 <= rate <= 1.0:
        raise DomainError("dropout rate must lie in [0, 1]")
    u = rng.random((1, n))
    return (u > rate).astype(np.float64)
