"""Self-contained randomized verification suites.

Three suites, all seeded and all runnable from the command line:

  gradcheck  -- central finite differences (h=1e-6, float64) against every
                hand-written backward pass, per layer op and end-to-end
                through a toy conv/dense/softmax/CTC network.
  ctc-oracle -- the log-domain DP against literal path enumeration on
                random small instances.
  shapes     -- geometry conformance of the shipped default stack.

Each suite returns (ok, worst_discrepancy, detail lines); the CLI prints the
details and exits nonzero on failure.
"""

import numpy as np

from . import layers, optim
from .ctc import ctc_grad, ctc_loss, enumerate_oracle, min_feasible_length
from .network import ConvSpec, DenseSpec, Network, NetworkConfig, figure3_config

FD_STEP = 1e-6
GRAD_TOL = 1e-4
ORACLE_TOL = 1e-9


def rel_error(analytic, numeric, floor=1e-3):
    """Worst-case |a - n| / max(|a|, |n|, floor) over all elements.

    The floor turns the ratio into an absolute comparison for near-zero
    gradients, where the relative form is meaningless.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def central_diff(f, x, h=FD_STEP):
    """Numeric gradient of scalar f at array x by central differences."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return grad


def _check_op(name, forward, backward_grads, inputs, rng, details):
    """Compare every analytic input-gradient of an op against central diffs."""
    y, tape = forward(*inputs)
    proj = rng.standard_normal(y.shape)      # random projection -> scalar objective
    grads = backward_grads(tape, proj)
    worst = 0.0
    for idx in range(len(inputs)):
        def objective(xv, idx=idx):
            args = list(inputs)
            args[idx] = xv
            out, _ = forward(*args)
            return float(np.sum(out * proj))
        numeric = central_diff(objective, inputs[idx])
        worst = max(worst, rel_error(grads[idx], numeric))
    details.append(f"gradcheck {name}: max rel err {worst:.3e}")
    return worst


def toy_network():
    """2 maxout conv layers, 1 maxout dense, implicit output + log-softmax."""
    config = NetworkConfig(channels=3, bands=9, alphabet_size=4, layers=[
        ConvSpec(4, 3, 3), ConvSpec(4, 3, 3), DenseSpec(8),
    ])
    return Network(config)


def network_loss_and_grads(net, params, x, target):
    log_probs, tapes = net.forward(x, params)
    loss, lattice = ctc_loss(log_probs, target)
    grads = net.backward(tapes, ctc_grad(lattice, log_probs))
    return loss, grads


def random_ctc_instance(rng, max_t=8, max_a=3, max_l=4):
    """Random logits and a feasible target: T <= max_t, A <= max_a, L <= max_l."""
    A = int(rng.integers(2, max_a + 1))
    T = int(rng.integers(1, max_t + 1))
    logits = rng.standard_normal((A, T)) * 2.0
    while True:
        L = int(rng.integers(0, max_l + 1))
        target = list(rng.integers(1, A, size=L))
        if min_feasible_length(target) <= T:
            return logits, target


def gradcheck_suite(seed=0):
    rng = np.random.default_rng(seed)
    details = []
    worst = 0.0

    def randn(*shape):
        return rng.standard_normal(shape)

    for padding in ("same", "valid"):
        x, w, b = randn(2, 5, 7), randn(3, 2, 3, 3) * 0.5, randn(3)
        fwd = lambda x, w, b, p=padding: layers.conv2d_forward(x, w, b, p)
        worst = max(worst, _check_op(f"conv2d[{padding}]", fwd,
                                     lambda t, g, w=w: layers.conv2d_backward(t, g, w),
                                     (x, w, b), rng, details))

    x, w, b = randn(5, 4), randn(6, 5), randn(6)
    worst = max(worst, _check_op("dense", layers.dense_forward,
                                 lambda t, g: layers.dense_backward(t, g, w),
                                 (x, w, b), rng, details))

    worst = max(worst, _check_op("prelu", layers.prelu,
                                 layers.prelu_backward,
                                 (randn(3, 4, 5), rng.uniform(0.05, 0.5, 3)), rng, details))

    # keep relu/maxout inputs clear of the kink so finite differences are valid
    worst = max(worst, _check_op("relu", layers.relu,
                                 lambda t, g: (layers.relu_backward(t, g),),
                                 (randn(3, 4, 6) + 0.05,), rng, details))
    h1 = randn(3, 4)
    worst = max(worst, _check_op("maxout2", layers.maxout2,
                                 layers.maxout2_backward,
                                 (h1, h1 + randn(3, 4) * 2), rng, details))
    worst = max(worst, _check_op("maxpool_freq",
                                 lambda x: layers.maxpool_freq(x, 3, 3),
                                 lambda t, g: (layers.maxpool_freq_backward(t, g),),
                                 (randn(2, 8, 5),), rng, details))

    # CTC gradient w.r.t. logits on random small instances
    ctc_worst = 0.0
    for _ in range(20):
        logits, target = random_ctc_instance(rng, max_t=6, max_a=3, max_l=2)

        def loss_of(u):
            return ctc_loss(layers.log_softmax_frames(u), target)[0]

        lp = layers.log_softmax_frames(logits)
        _, lattice = ctc_loss(lp, target)
        analytic = ctc_grad(lattice, lp)
        numeric = central_diff(loss_of, logits)
        ctc_worst = max(ctc_worst, rel_error(analytic, numeric))
    details.append(f"gradcheck ctc logits: max rel err {ctc_worst:.3e}")
    worst = max(worst, ctc_worst)

    # end-to-end toy network: every parameter
    net = toy_network()
    params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
    x = rng.standard_normal((3, 9, 12))
    target = [1, 2, 1]
    _, grads = network_loss_and_grads(net, params, x, target)
    net_worst = 0.0
    for name in grads:
        def objective(v, name=name):
            trial = dict(params)
            trial[name] = v
            return network_loss_and_grads(net, trial, x, target)[0]
        numeric = central_diff(objective, params[name])
        net_worst = max(net_worst, rel_error(grads[name], numeric))
    details.append(f"gradcheck toy network ({sum(p.size for p in params.values())} params): "
                   f"max rel err {net_worst:.3e}")
    worst = max(worst, net_worst)

    return worst <= GRAD_TOL, worst, details


def ctc_oracle_suite(instances=1000, seed=0):
    """|DP loss - (-ln enumerated probability)| over random instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        logits, target = random_ctc_instance(rng)
        lp = layers.log_softmax_frames(logits)
        loss, _ = ctc_loss(lp, target)
        pr = enumerate_oracle(lp, target)
        worst = max(worst, abs(loss - (-np.log(pr))))
    details = [f"ctc-oracle: {instances} instances, max |delta log-likelihood| {worst:.3e}"]
    return worst <= ORACLE_TOL, worst, details


def shapes_suite(seed=0, frame_counts=(1, 7, 100, 313), random_frames=4):
    """Default-stack geometry: 62 x f output, 13 pooled bands, time preserved
    at every layer."""
    rng = np.random.default_rng(seed)
    config = figure3_config()
    net = Network(config)
    params = optim.init_uniform(net.param_specs(), rng, dtype=np.float32)
    details = []
    ok = True
    pooled_bands = None
    fs = list(frame_counts) + [int(f) for f in rng.integers(1, 201, size=random_frames)]
    for f in fs:
        x = rng.standard_normal((3, 41, f)).astype(np.float32)
        good = True
        h = x
        for name, stage in net.stack:
            h, _ = stage.forward(h, net._stage_params(name, stage, params), False, None)
            if h.shape[-1] != f:
                good = False
                details.append(f"shapes: layer {name} broke time extent at f={f}: {h.shape}")
            if name == "pool1":
                pooled_bands = h.shape[1]
        good = good and h.shape == (config.alphabet_size, f)
        details.append(f"shapes: f={f} -> output {h.shape}" + ("" if good else "  MISMATCH"))
        ok = ok and good
    details.append(f"shapes: pooled band count after layer 1 = {pooled_bands}")
    ok = ok and pooled_bands == 13
    return ok, 0.0 if ok else 1.0, details


SUITES = {"gradcheck": gradcheck_suite,
          "ctc-oracle": ctc_oracle_suite,
          "shapes": shapes_suite}
