"""The references the tests check the library against, one per rule; no
part of the program runs them. ``tests/test_oracles.py`` pins each one to
finite differences or to a value worked out by hand, and fails if another
test module defines a reference of its own."""

import copy
import hashlib
import itertools
import json

import numpy as np

from ttalab.adaptation import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                               EPS_ENTROPY, AdaptationConfig, default_q,
                               default_filter_threshold, flip_signal,
                               tent_loss, ttc_loss)
from ttalab.benchmark import (NOISE_SIGMA, SIGNAL_LENGTH, TRAIN_BATCH_SIZE,
                              TRAIN_FLIP_PROB, class_templates)
from ttalab.errors import InvalidInput
from ttalab.network import (BNMode, backward_all, backward_bn_affine,
                            forward, layer_to_dict, make_network)
from ttalab.numeric import EPS_PROB, entropy, entropy_grad_logits, softmax

# Central-difference step balancing truncation and round-off in float64.
FD_STEP = 1e-5


def finite_diff_check(f, x, analytic):
    """Max relative error between an analytic gradient and central differences
    with step FD_STEP.

    Args:
        f: scalar-valued function of a 1-D vector.
        x: point at which to check.
        analytic: claimed gradient of f at x, same shape as x.

    Returns:
        max over coordinates of |analytic - fd| / max(1, |analytic|).
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise InvalidInput("analytic gradient shape does not match x")
    worst = 0.0
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.flat[i] = FD_STEP
        hi = float(f(x + bump))
        lo = float(f(x - bump))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise InvalidInput("f returned a non-finite value near x")
        fd = (hi - lo) / (2.0 * FD_STEP)
        a = analytic.flat[i]
        worst = max(worst, abs(a - fd) / max(1.0, abs(a)))
    return worst


def bits(a):
    """An array's shape, dtype and bytes, equal for two arrays exactly when
    they hold the same bits: 0.0 and -0.0 differ, a NaN equals itself. None
    stays None."""
    if a is None:
        return None
    a = np.asarray(a)
    return a.shape, a.dtype.str, a.tobytes()


def network_to_dict(net):
    """The checkpoint document of ``net`` as one dict."""
    return {"k": int(net.k), "layers": [layer_to_dict(layer)
                                         for layer in net.layers],
            "meta": dict(net.meta)}


def document_digest(net):
    """sha256 of the checkpoint document, serialised whole."""
    doc = json.dumps(network_to_dict(net), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def reference_forward(net, x, mode):
    """Forward as written with np.mean / np.var and an out-of-place xhat:
    the oracle the single-pass batch statistics must match bit for bit."""
    records = []
    for dense, bn, relu, _, _ in net.blocks:
        layer = net.layers[dense]
        x_in = x
        x = x @ layer.weight.T + layer.bias
        bn_rec = mask = None
        if bn is not None:
            b = net.layers[bn]
            if mode is BNMode.EVAL_STATS:
                mean, var = b.running_mean, b.running_var
            else:
                mean, var = x.mean(axis=0), x.var(axis=0)
                if mode is BNMode.TRAIN_STATS:
                    m = b.momentum
                    b.running_mean = (1.0 - m) * b.running_mean + m * mean
                    b.running_var = (1.0 - m) * b.running_var + m * var
            inv_std = 1.0 / np.sqrt(var + b.eps)
            xhat = (x - mean) * inv_std
            x = b.gamma * xhat + b.beta
            bn_rec = (xhat, inv_std, mode is not BNMode.EVAL_STATS)
        if relu:
            mask = x > 0.0
            x = x * mask
        records.append((x_in, bn_rec, mask))
    return x, records


class ReferenceSGD:
    """params <- params - lr g."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad):
        params -= self.lr * grad


class ReferenceAdam:
    """Adam on an array of any shape, in place, with one Python-int step
    count and Python-float bias corrections."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = self.v = None

    def step(self, params, grad):
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        self.m += (1.0 - ADAM_BETA1) * (grad - self.m)
        self.v += (1.0 - ADAM_BETA2) * (grad * grad - self.v)
        mhat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        vhat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def sample_weights(entropies, tau, n):
    """Entropy-power weights w_i = max(H_i, EPS_ENTROPY)^(-tau) / n, the
    WA weights that ``ttc_loss`` holds constant: tau = 0 gives uniform
    weights 1/n, tau > 0 down-weights high-entropy samples."""
    h = np.maximum(np.asarray(entropies, dtype=np.float64), EPS_ENTROPY)
    return h ** (-tau) / n


class ReferenceAccumulator:
    """Gradient accumulation of length ``q``: the first gradient of a window
    is copied, so a -0.0 entry stays -0.0, the next ones are added, and the
    q-th steps the optimizer on the sum, which ``accumulated`` still holds
    after the step."""

    def __init__(self, q):
        self.q = q
        self.seen = 0
        self.accumulated = None

    def add(self, grad, optimizer, params):
        """Take one gradient; returns whether the optimizer stepped."""
        self.accumulated = (self.accumulated + grad if self.seen
                            else grad.copy())
        self.seen += 1
        if self.seen < self.q:
            return False
        self.seen = 0
        optimizer.step(params, self.accumulated)
        return True


def two_forward_rla(net, x, affine=None):
    """RLA as two forwards, one per branch: the oracle that the one stacked
    forward of ``rla_forward`` matches bit for bit, for a lone (N, d) batch
    or an (S, N, d) stack of streams that all flip."""
    logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
    aug_logits, _ = forward(net, flip_signal(x), BNMode.TEST_BATCH_STATS,
                            affine)
    return 0.5 * (logits + aug_logits), cache, aug_logits


class ReferenceStream:
    """One stream adapted on its own, one (N, d) batch per call, on a copy
    of the network, with the reference losses ``tent_loss`` and ``ttc_loss``
    and state of its own: the oracle every stream of a stacked Adapter
    matches bit for bit."""

    def __init__(self, net, config, batch_size):
        self.net = copy.deepcopy(net)
        strategy = config.strategy
        ttc = strategy == "ttc"
        self.optimizer = {"sgd": ReferenceSGD,
                          "adam": ReferenceAdam}[config.optimizer](config.lr)
        self.mode = (BNMode.EVAL_STATS if strategy == "source"
                     else BNMode.TEST_BATCH_STATS)
        self.learns = strategy not in ("source", "norm")
        self.rla = ttc and config.rla_enabled
        self.tau = config.tau if ttc and config.wa_enabled else None
        self.threshold = None
        if strategy == "tent-filtered":
            self.threshold = (config.filter_threshold
                              or default_filter_threshold(net.k))
        q = 1
        if ttc and config.ga_enabled:
            q = config.accumulation_q or default_q(batch_size)
        self.grad_scale = (0.5 if self.rla else 1.0) / q
        self.accumulator = ReferenceAccumulator(q)

    def adapt_batch(self, x):
        """Predict, then learn; returns the (N,) predictions and (N, K)
        probabilities from before the update."""
        if self.rla:
            logits, cache, _ = two_forward_rla(self.net, x)
        else:
            logits, cache = forward(self.net, x, self.mode)
        probs = softmax(logits)
        preds = np.argmax(probs, axis=1)
        if not self.learns:
            return preds, probs
        if self.threshold is not None:
            mask = entropy(probs) < self.threshold
            if not mask.any():
                return preds, probs
            grad = np.zeros_like(logits)
            grad[mask] = tent_loss(logits[mask])[1]
        elif self.tau is not None:
            _, grad = ttc_loss(logits, self.tau, x.shape[0])
        else:
            _, grad = tent_loss(logits)
        g = backward_bn_affine(self.net, cache, self.grad_scale * grad)
        self.accumulator.add(g, self.optimizer, self.net.affine)
        return preds, probs


def q_configs(qs, **common):
    """A tent stream for each Q of 1 and a tent+GA stream (ttc without RLA
    and WA) for each other Q, in the order given."""
    return [AdaptationConfig(strategy="tent", **common) if q == 1 else
            AdaptationConfig(strategy="ttc", rla_enabled=False,
                             wa_enabled=False, accumulation_q=q, **common)
            for q in qs]


def reference_dataset(k, m, seed):
    """generate_dataset's inputs and labels as two gathers: the templates
    gathered by label plus the noise, then both permuted by
    ``rng.permutation(m)``. It checks no argument."""
    rng = np.random.default_rng(seed)
    counts = np.full(k, m // k)
    counts[: m % k] += 1
    labels = np.repeat(np.arange(k), counts)
    inputs = class_templates(k)[labels] + rng.normal(
        0.0, NOISE_SIGMA, size=(m, SIGNAL_LENGTH))
    order = rng.permutation(m)
    return inputs[order], labels[order]


def per_batch_train_source(dataset, epochs, seed, lr=1e-2, hidden=64):
    """train_source as a loop that draws its flips batch by batch and
    steps with ReferenceAdam: the oracle that train_source, which draws an
    epoch's flips at once, must match bit for bit. It takes arguments that
    train_source accepts and checks none."""
    net = make_network(input_dim=dataset.inputs.shape[1], hidden=hidden,
                       k=dataset.num_classes, seed=seed)
    optimizer = ReferenceAdam(lr)
    rng = np.random.default_rng(seed)
    m = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, TRAIN_BATCH_SIZE):
            idx = order[start:start + TRAIN_BATCH_SIZE]
            if len(idx) < 2:
                continue  # BN batch statistics need two samples
            x = dataset.inputs[idx]
            y = dataset.labels[idx]
            flips = rng.random(len(idx)) < TRAIN_FLIP_PROB
            if flips.any():
                x = x.copy()
                x[flips] = flip_signal(x[flips])
            logits, cache = forward(net, x, BNMode.TRAIN_STATS)
            grad = softmax(logits)
            grad[np.arange(len(idx)), y] -= 1.0
            grad /= len(idx)
            optimizer.step(net.params, backward_all(net, cache, grad))
    net.meta = {"seed": seed, "trained_epochs": epochs}
    return net


def entropy_descent(p0, lr, steps):
    """Entropy descent of a (K,) start or an (R, K) stack, one step at a
    time through the public functions: z = log p0, then
    z <- z - lr * entropy_grad_logits(z), recording softmax(z), with its
    finiteness check, after each step."""
    p0 = np.asarray(p0, dtype=np.float64)
    traj = np.empty((steps + 1,) + p0.shape, dtype=np.float64)
    traj[0] = p0
    z = np.log(np.maximum(p0, EPS_PROB))
    for t in range(1, steps + 1):
        z = z - lr * entropy_grad_logits(z)
        traj[t] = softmax(z)
    return traj


def per_scalar_csv(trajectory):
    """trajectory_csv's text with one repr per cell."""
    lines = ["step," + ",".join(f"p_{i + 1}" for i in range(trajectory.shape[1]))]
    for step, row in enumerate(trajectory):
        lines.append(str(step) + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def brute_force_assign(features, centers):
    """The nearest center of each point, the lowest index on a tie."""
    labels = np.empty(len(features), dtype=np.int64)
    for i, z in enumerate(features):
        best, best_d = 0, np.inf
        for c, center in enumerate(centers):
            d = np.sum((z - center) ** 2)
            if d < best_d:
                best, best_d = c, d
        labels[i] = best
    return labels


def per_point_update(features, assignment, centers, counts):
    """update_step's MINIBATCH_RUNNING rule one point at a time, with
    numpy-scalar counts and a fresh temporary per point."""
    new_centers = np.array(centers, dtype=np.float64, copy=True)
    for x, c in zip(np.asarray(features, dtype=np.float64), assignment):
        counts[c] += 1
        new_centers[c] += (x - new_centers[c]) / counts[c]
    return new_centers


def array_shapes(axes, largest):
    """Every shape with axis sizes up to ``largest`` that the array rule
    takes for ``axes``, each (optional, may_be_empty, bound size or None),
    the optional ones leading: one product of each axis's sizes for every
    count of leading optional axes left out."""
    shapes = set()
    for skip in range(len(axes) + 1):
        if all(optional for optional, _, _ in axes[:skip]):
            shapes.update(itertools.product(*(
                [size] if size is not None
                else range(0 if may_be_empty else 1, largest + 1)
                for _, may_be_empty, size in axes[skip:])))
    return shapes
