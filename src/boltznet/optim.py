"""Gradient-descent machinery: learning-rate annealing, momentum,
L1/L2 weight decay, dropout masks, the shared in-place parameter update
and the epoch loop every trainer runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DomainError, Matrix, Rng, ShapeError


class AnnealKind(enum.Enum):
    NONE = "none"
    EXPONENTIAL = "exponential"
    DIVIDE = "divide"
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


def decay_penalty_gradient(w: Matrix, spec: WeightDecaySpec) -> Matrix:
    """Gradient of the weight-decay penalty: k*sign(w) for L1, 2k*w for L2."""
    if spec.kind == DecayKind.NONE:
        return np.zeros_like(w)
    if spec.kind == DecayKind.L1:
        return spec.k * np.sign(w)
    if spec.kind == DecayKind.L2:
        return 2.0 * spec.k * w
    raise ConfigError(f"unknown decay kind: {spec.kind!r}")


def _momentum_step(param: Matrix, grad: Matrix, vel: Matrix, lr: float, rho: float,
                   spec: WeightDecaySpec) -> None:
    """In place: vel *= rho; vel -= lr * (grad + penalty); param += vel."""
    penalty = 0.0 if spec.kind == DecayKind.NONE else decay_penalty_gradient(param, spec)
    vel *= rho
    vel -= lr * (grad + penalty)
    param += vel


def apply_update(param: Matrix, grad: Matrix, vel: Matrix, lr: float, rho: float,
                 spec: WeightDecaySpec = NO_DECAY):
    """Momentum update step.

    vel' = rho * vel - lr * (grad + penalty)
    param' = param + vel'

    The penalty is scaled by the learning rate together with the gradient,
    so annealing does not change the model the decay steers toward.
    Returns (param', vel'): the in-place training step applied to copies.
    """
    if param.shape != grad.shape or param.shape != vel.shape:
        raise ShapeError("param/grad/velocity shapes must match")
    param = np.array(param, dtype=np.float64)
    vel = np.array(vel, dtype=np.float64)
    _momentum_step(param, grad, vel, lr, rho, spec)
    return param, vel


class ParamGroup:
    """Arrays trained together, each with its own velocity, updated in
    place: weights with the weight decay, biases without it."""

    def __init__(self, weights, biases, decay: WeightDecaySpec):
        self.params = list(weights) + list(biases)
        self.decays = [decay] * len(weights) + [NO_DECAY] * len(biases)
        self.vels = [np.zeros_like(p) for p in self.params]

    def step(self, grads, lr: float, rho: float) -> None:
        """One momentum step; `grads` follow the weights-then-biases order."""
        for param, grad, vel, spec in zip(self.params, grads, self.vels, self.decays):
            _momentum_step(param, grad, vel, lr, rho, spec)


def run_epochs(cfg, step, hook) -> None:
    """The training loop every model shares: for each of `cfg.epochs`
    epochs, anneal `cfg.lr`, pick the momentum, run `step(lr, rho)` over
    the epoch's batches and report `hook(epoch, lr, rho)`. A truthy `step`
    result stops training after that epoch's report."""
    for epoch in range(cfg.epochs):
        lr = anneal(cfg.lr, epoch, cfg.anneal)
        rho = momentum_coeff(epoch, cfg.momentum)
        stop = step(lr, rho)
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
