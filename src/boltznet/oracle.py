"""Exact brute-force references on tiny models: partition functions,
enumerated joints and conditionals, exact likelihood gradients, and a
central-finite-difference gradient harness.

Everything here recomputes energies from raw parameters instead of calling
the model code it is used to check. Enumeration is capped so tests stay
sub-second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DomainError, sigmoid
from .rbm import CdGradients, RbmLayer

MAX_UNITS = 20
MAX_GRADIENT_UNITS = 16
FD_STEP = 1e-5


def bit_states(n: int) -> np.ndarray:
    """All 2^n binary configurations as a (2^n, n) matrix; unit j is bit j
    of the row index."""
    idx = np.arange(2 ** n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.float64)


@dataclass
class EnumeratedDistribution:
    """A fully enumerated distribution over binary configurations."""

    states: np.ndarray  # (n_states, n_units)
    probs: np.ndarray   # (n_states,)

    def marginals(self) -> np.ndarray:
        """Per-unit probability of being 1."""
        return self.probs @ self.states


def _check_units(n: int, cap: int = MAX_UNITS) -> None:
    if n > cap:
        raise ConfigError(f"{n} units exceeds the enumeration cap of {cap}")


def _rbm_energy_grid(rbm: RbmLayer):
    """Energy of every (v, h) pair as a (2^n_v, 2^n_h) grid."""
    V = bit_states(rbm.n_v)
    H = bit_states(rbm.n_h)
    e = -(V @ rbm.b_v.T) - (H @ rbm.b_h.T).T - V @ rbm.w @ H.T
    return V, H, e


def exact_partition(model) -> float:
    """Z = sum over all binary states of exp(-E)."""
    from .dbm import DbmModel

    if isinstance(model, RbmLayer):
        _check_units(model.n_v + model.n_h)
        _, _, e = _rbm_energy_grid(model)
        shift = e.min()
        return float(np.exp(-(e - shift)).sum() * np.exp(-shift))
    if isinstance(model, DbmModel):
        return _dbm_partition(model)
    raise ConfigError(f"cannot enumerate {type(model).__name__}")


def _clamp_mask(states: np.ndarray, clamp) -> np.ndarray:
    """Rows of `states` consistent with the clamp (NaN marks free units)."""
    if clamp is None:
        return np.ones(states.shape[0], dtype=bool)
    clamp = np.asarray(clamp, dtype=np.float64).reshape(-1)
    fixed = ~np.isnan(clamp)
    if not fixed.any():
        return np.ones(states.shape[0], dtype=bool)
    return np.all(states[:, fixed] == clamp[fixed], axis=1)


def exact_conditional(rbm: RbmLayer, visible=None, hidden=None) -> EnumeratedDistribution:
    """Renormalized joint over the free units given a (partial) clamp.

    `visible` / `hidden` are rows where NaN marks a free unit and 0/1 a
    clamped one; None leaves the whole side free. Free visible units come
    first in the returned states, then free hidden units.
    """
    _check_units(rbm.n_v + rbm.n_h)
    V, H, e = _rbm_energy_grid(rbm)
    v_rows = np.flatnonzero(_clamp_mask(V, visible))
    h_rows = np.flatnonzero(_clamp_mask(H, hidden))
    if v_rows.size == 0 or h_rows.size == 0:
        raise DomainError("clamp matches no binary state")
    sub = e[np.ix_(v_rows, h_rows)]
    w = np.exp(-(sub - sub.min()))
    probs = (w / w.sum()).reshape(-1)

    def free_cols(side_states, clamp):
        if clamp is None:
            return side_states
        clamp = np.asarray(clamp, dtype=np.float64).reshape(-1)
        return side_states[:, np.isnan(clamp)]

    v_free = free_cols(V[v_rows], visible)
    h_free = free_cols(H[h_rows], hidden)
    states = np.hstack([np.repeat(v_free, h_rows.size, axis=0),
                        np.tile(h_free, (v_rows.size, 1))])
    return EnumeratedDistribution(states=states, probs=probs)


def exact_likelihood_gradient(rbm: RbmLayer, data: np.ndarray) -> CdGradients:
    """Exact gradient of mean log-likelihood: data-phase expectations minus
    model-phase expectations, both enumerated."""
    _check_units(rbm.n_v + rbm.n_h, MAX_GRADIENT_UNITS)
    data = np.asarray(data, dtype=np.float64)
    h_probs = sigmoid(data @ rbm.w + rbm.b_h)
    data_w = data.T @ h_probs / data.shape[0]
    data_v = data.mean(axis=0, keepdims=True)
    data_h = h_probs.mean(axis=0, keepdims=True)

    V, H, e = _rbm_energy_grid(rbm)
    w = np.exp(-(e - e.min()))
    p = w / w.sum()
    model_w = V.T @ p @ H
    model_v = (p.sum(axis=1) @ V).reshape(1, -1)
    model_h = (p.sum(axis=0) @ H).reshape(1, -1)
    return CdGradients(dw=data_w - model_w, db_v=data_v - model_v,
                       db_h=data_h - model_h)


def finite_difference_gradient(f, params, h: float = FD_STEP):
    """Central differences (f(t+h) - f(t-h)) / 2h per coordinate.

    `params` is a list of arrays; `f` is called with a perturbed copy of the
    list and must return a finite scalar. Returns same-shaped gradients.
    """
    if h <= 0:
        raise ConfigError("finite-difference step must be positive")
    grads = []
    work = [np.array(p, dtype=np.float64) for p in params]
    for pi, p in enumerate(work):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = f(work)
            flat[j] = orig - h
            fm = f(work)
            flat[j] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise DomainError("objective returned a non-finite value")
            gflat[j] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# Deep Boltzmann Machine enumeration (biases included; tiny models only)
# ---------------------------------------------------------------------------

def _dbm_partition(model) -> float:
    """Partition function via exact layer-chain contraction."""
    if model.label_dim:
        raise ConfigError("oracle enumeration supports unlabeled models only")
    sizes = model.sizes
    _check_units(sum(sizes))
    S_prev = bit_states(sizes[0])
    r = np.exp(S_prev @ model.visible_bias.T).reshape(-1)
    for W, b, n in zip(model.weights, model.hidden_biases, sizes[1:]):
        S = bit_states(n)
        T = np.exp(S_prev @ W @ S.T + (S @ b.T).T)
        r = r @ T
        S_prev = S
    return float(r.sum())


def dbm_joint(model) -> EnumeratedDistribution:
    """Full joint over concatenated (v, h1, ..., hN) bits, biases included."""
    if model.label_dim:
        raise ConfigError("oracle enumeration supports unlabeled models only")
    sizes = model.sizes
    total = sum(sizes)
    _check_units(total, MAX_GRADIENT_UNITS)
    states = bit_states(total)
    splits = np.cumsum(sizes)[:-1]
    blocks = np.hsplit(states, splits)
    logw = (blocks[0] @ model.visible_bias.T).reshape(-1)
    for i, (W, b) in enumerate(zip(model.weights, model.hidden_biases)):
        logw += ((blocks[i] @ W) * blocks[i + 1]).sum(axis=1)
        logw += (blocks[i + 1] @ b.T).reshape(-1)
    w = np.exp(logw - logw.max())
    return EnumeratedDistribution(states=states, probs=w / w.sum())


# ---------------------------------------------------------------------------
# Deep Belief Network enumeration (evidence, posterior, variational bound)
# ---------------------------------------------------------------------------

def _bernoulli_log_prob(bits: np.ndarray, probs: np.ndarray) -> np.ndarray:
    p = np.clip(probs, 1e-300, 1.0 - 1e-16)
    return (bits * np.log(p) + (1.0 - bits) * np.log1p(-p)).sum(axis=1)


def _dbn_hidden_blocks(model):
    sizes = [layer.n_h for layer in model.recognition] + [model.top.n_h]
    total = sum(sizes)
    _check_units(total, MAX_GRADIENT_UNITS)
    states = bit_states(total)
    splits = np.cumsum(sizes)[:-1]
    return np.hsplit(states, splits), states


def dbn_log_joint(model, x: np.ndarray) -> tuple:
    """log P(x, h1, ..., hN) for every hidden configuration of a (tiny,
    unlabeled) DBN: sigmoid-belief terms downward plus the top RBM joint.

    Returns (hidden_states, log_joint_vector).
    """
    if model.label_dim:
        raise ConfigError("oracle enumeration supports unlabeled models only")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    blocks, states = _dbn_hidden_blocks(model)
    n_lower = len(model.recognition)
    logp = np.zeros(states.shape[0])
    # directed part: layer k generated from layer k+1
    below = [x.repeat(states.shape[0], axis=0)] + blocks[:n_lower]
    for k in range(n_lower):
        gen_p = sigmoid(blocks[k] @ model.generative_w[k] + model.generative_b[k])
        logp += _bernoulli_log_prob(below[k], gen_p)
    # undirected top over (h_{N-1}, h_N)
    top_v = blocks[n_lower - 1] if n_lower else x.repeat(states.shape[0], axis=0)
    top_h = blocks[-1]
    top_e = (-(top_v @ model.top.b_v.T).reshape(-1)
             - (top_h @ model.top.b_h.T).reshape(-1)
             - ((top_v @ model.top.w) * top_h).sum(axis=1))
    logp += -top_e - np.log(exact_partition(model.top))
    return states, logp


def dbn_evidence(model, x: np.ndarray):
    """(log P(x), exact posterior over hidden configurations)."""
    states, logp = dbn_log_joint(model, x)
    m = logp.max()
    log_px = m + np.log(np.exp(logp - m).sum())
    posterior = np.exp(logp - log_px)
    return float(log_px), EnumeratedDistribution(states=states, probs=posterior)


def dbn_recognition_q(model, x: np.ndarray) -> np.ndarray:
    """Factorized recognition distribution Q(h | x) over the same hidden
    enumeration used by dbn_log_joint."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    blocks, states = _dbn_hidden_blocks(model)
    n_lower = len(model.recognition)
    logq = np.zeros(states.shape[0])
    prev = x.repeat(states.shape[0], axis=0)
    for k, layer in enumerate(model.recognition):
        q = sigmoid(prev @ layer.w + layer.b_h)
        logq += _bernoulli_log_prob(blocks[k], q)
        prev = blocks[k]
    q_top = sigmoid(prev @ model.top.w + model.top.b_h)
    logq += _bernoulli_log_prob(blocks[-1], q_top)
    return np.exp(logq)


def variational_bound(log_joint: np.ndarray, q: np.ndarray) -> float:
    """sum_h Q(h) log[P(x,h) / Q(h)] with the 0 log 0 = 0 convention."""
    mask = q > 0
    return float((q[mask] * (log_joint[mask] - np.log(q[mask]))).sum())
