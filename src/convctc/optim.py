"""Parameter initialization and the two-stage update rules.

The main stage is bias-corrected Adam at learning rate 1e-4; fine-tuning is
plain SGD at 1e-5 with an L2 gradient penalty of 1e-5.  The L2 term applies
to weights only, never to biases or PReLU slopes, so the optimizer carries
the kind of every parameter alongside its moments.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError

OPTIMIZER_KINDS = ("adam", "sgd")


def init_uniform(param_specs, rng, lo=-0.05, hi=0.05, dtype=np.float32, alpha_init=0.1):
    """Draw weights i.i.d. uniform [lo, hi); biases start at 0, PReLU slopes
    at alpha_init.  param_specs is the network's (name, shape, kind) list."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    params = {}
    for name, shape, kind in param_specs:
        if kind == "weight":
            params[name] = rng.uniform(lo, hi, size=shape).astype(dtype)
        elif kind == "alpha":
            params[name] = np.full(shape, alpha_init, dtype=dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


@dataclass
class OptimizerState:
    kind: str                      # one of OPTIMIZER_KINDS
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    l2: float = 0.0
    t: int = 0
    kinds: dict = field(default_factory=dict)     # param name -> weight/bias/alpha
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def make_optimizer(kind, param_specs, lr, beta1=0.9, beta2=0.999, eps=1e-8, l2=0.0,
                   dtype=np.float32):
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    state = OptimizerState(kind, lr, beta1, beta2, eps, l2,
                           kinds={name: k for name, _, k in param_specs})
    if kind == "adam":
        for name, shape, _ in param_specs:
            state.m[name] = np.zeros(shape, dtype=dtype)
            state.v[name] = np.zeros(shape, dtype=dtype)
    return state


def _penalized(state, name, param, grad):
    if grad.shape != param.shape:
        raise ShapeError(f"gradient for {name} has shape {grad.shape}, parameter {param.shape}")
    if state.l2 and state.kinds.get(name) == "weight":
        return grad + state.l2 * param
    return grad


def adam_step(params, grads, state):
    """One bias-corrected Adam update, in place.  t increments first."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = _penalized(state, name, p, grads[name])
        m = state.m[name]
        v = state.v[name]
        m[...] = b1 * m + (1.0 - b1) * g
        v[...] = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def sgd_step(params, grads, state):
    """Plain SGD with L2 penalty on weights: p <- p - lr * (g + l2 * p)."""
    state.t += 1
    for name, p in params.items():
        g = _penalized(state, name, p, grads[name])
        p -= state.lr * g
    return params, state


def step(params, grads, state):
    if state.kind == "adam":
        return adam_step(params, grads, state)
    return sgd_step(params, grads, state)


def global_norm_clip(grads, max_norm):
    """Scale the whole gradient set so its global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        return {name: g * g.dtype.type(factor) for name, g in grads.items()}
    return grads
