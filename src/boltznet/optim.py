"""Gradient-descent machinery: learning-rate annealing, momentum,
L1/L2 weight decay, dropout masks, the shared in-place parameter update
and the epoch loop every trainer runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, is_dataclass

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


PENALTY_BLOCK = 4096  # elements of a weight-decay penalty formed at once


def _add_penalty(grad: Matrix, param: Matrix, spec: WeightDecaySpec, scratch) -> None:
    """grad += the decay penalty of `param`, formed block by block in the
    flat `PENALTY_BLOCK`-element buffer `scratch` over flat views (`grad`
    C-contiguous), so no weight-sized array is made. Without decay
    grad += 0.0, which turns -0.0 into +0.0 as the out-of-place formula
    does."""
    if spec.kind == DecayKind.NONE:
        grad += 0.0
        return
    g, p = grad.reshape(-1), param.reshape(-1)
    for start in range(0, g.size, scratch.size):
        block = g[start:start + scratch.size]
        block += decay_penalty_gradient(p[start:start + scratch.size], spec,
                                        out=scratch[:block.size])


def _momentum_step(param: Matrix, grad: Matrix, vel, lr: float, rho: float,
                   spec: WeightDecaySpec, scratch) -> None:
    """In place: vel *= rho; vel -= lr * (grad + penalty); param += vel, or
    param -= lr * (grad + penalty) when `vel` is None, which is the same
    result from a zero velocity. `grad` is consumed as the scratch for
    lr * (grad + penalty), whose penalty is formed in `scratch`."""
    _add_penalty(grad, param, spec, scratch)
    grad *= lr
    if vel is None:
        param -= grad
        return
    vel *= rho
    vel -= grad
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
    param, grad, vel = (np.array(a, dtype=np.float64, order="C") for a in (param, grad, vel))
    _momentum_step(param, grad, vel, lr, rho, spec, np.empty(PENALTY_BLOCK))
    return param, vel


class ParamGroup:
    """Arrays trained together, updated in place: weights with the weight
    decay, biases without it. Each array has a gradient buffer, which
    trainers fill each step in the weights-then-biases order of `params`,
    and a velocity unless the `momentum` schedule the trainer runs is zero
    throughout; then `vels` is None and each step is plain gradient
    descent. With decay the group owns one block-sized penalty buffer."""

    def __init__(self, weights, biases, decay: WeightDecaySpec, momentum: MomentumSchedule):
        self.params = list(weights) + list(biases)
        self.decays = [decay] * len(weights) + [NO_DECAY] * len(biases)
        self.grads = [np.zeros(p.shape) for p in self.params]  # C-contiguous
        self.vels = ([np.zeros_like(p) for p in self.params]
                     if momentum.early or momentum.late else None)
        self.scratch = None if decay.kind == DecayKind.NONE else np.empty(PENALTY_BLOCK)

    def step(self, lr: float, rho: float) -> None:
        """One step on the gradients in `grads`, which it consumes; `rho`
        is 0 for a group without velocities."""
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
