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
# the paper's fixed values: initial weight range and PReLU slope, Adam's constants
INIT_RANGE, ALPHA_INIT = 0.05, 0.1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def init_uniform(param_specs, rng, dtype=np.float32):
    """Draw weights i.i.d. uniform [-INIT_RANGE, INIT_RANGE); biases start at
    0, PReLU slopes at ALPHA_INIT.  param_specs is the network's (name,
    shape, kind) list."""
    params = {}
    for name, shape, kind in param_specs:
        if kind == "weight":
            params[name] = rng.uniform(-INIT_RANGE, INIT_RANGE, size=shape).astype(dtype)
        elif kind == "alpha":
            params[name] = np.full(shape, ALPHA_INIT, dtype=dtype)
        else:
            params[name] = np.zeros(shape, dtype=dtype)
    return params


@dataclass
class OptimizerState:
    kind: str                      # one of OPTIMIZER_KINDS
    lr: float
    beta1: float
    beta2: float
    eps: float
    l2: float
    t: int
    kinds: dict                    # param name -> weight/bias/alpha
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def check_rates(dtype, lr, l2, where=""):
    """Raise ValueError, naming the value and `dtype` after `where`, unless lr
    and l2 are finite in `dtype`, the parameters' dtype: 1e39 is inf in
    float32, and so would every parameter be after one step."""
    for name, value in (("lr", lr), ("l2", l2)):
        with np.errstate(over="ignore"):
            if not np.isfinite(np.asarray(value, dtype=dtype)):
                raise ValueError(f"{where}{name} {value!r} is not finite in {np.dtype(dtype).name}")


def make_optimizer(kind, param_specs, lr, l2=0.0, dtype=np.float32):
    """A fresh optimizer state for parameters of `dtype`, with the paper's
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS, which a checkpoint carries."""
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    check_rates(dtype, lr, l2)
    state = OptimizerState(kind, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS, l2, 0,
                           {name: k for name, _, k in param_specs})
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
