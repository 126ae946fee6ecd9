"""Online test-time adaptation strategies over BN affine parameters.

Strategies:
    source        no adaptation, running-statistics normalization
    norm          per-batch normalization, no gradient step
    tent          batch-entropy minimization, one SGD/Adam step per batch
    tent-filtered tent restricted to samples below an entropy threshold
    ttc           tent plus robust label assignment (flip-averaged logits,
                  no gradient through the augmented branch), entropy-power
                  sample weights, and gradient accumulation; each component
                  individually toggleable

An Adapter fixes its stream's plan at construction. All strategies return
predictions computed before any parameter update in the same call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInput
from .network import BNMode, backward_bn_affine, forward
from .numeric import entropy, entropy_grad_logits, softmax

STRATEGIES = ("source", "norm", "tent", "tent-filtered", "ttc")
OPTIMIZERS = ("sgd", "adam")

# Entropy clamp inside the sample weights; H^(-tau) diverges as H -> 0.
EPS_ENTROPY = 1e-6

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def flip_signal(x):
    """Reverse a signal (or each row of a batch); the 1-D analogue of a
    horizontal flip. An involution."""
    return np.ascontiguousarray(np.asarray(x)[..., ::-1])


def default_q(batch_size):
    """Accumulation length matching an effective batch of about 200 samples."""
    return max(1, round(200 / batch_size))


def default_filter_threshold(k):
    """Entropy cutoff for the filtered strategy: a fixed fraction of log K."""
    return 0.4 * math.log(k)


@dataclass
class AdaptationConfig:
    strategy: str = "ttc"
    lr: float = 1e-2
    optimizer: str = "adam"
    tau: float = 0.5
    accumulation_q: int | None = None   # None: resolved to default_q(N)
    rla_enabled: bool = True
    wa_enabled: bool = True
    ga_enabled: bool = True
    filter_threshold: float | None = None  # None: 0.4 log K

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy {self.strategy!r}")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidInput(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidInput(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise InvalidInput(
                f"tau must be finite and non-negative, got {self.tau}")
        if self.filter_threshold is not None and not self.filter_threshold > 0:
            raise InvalidInput(
                f"filter_threshold must be positive, got {self.filter_threshold}")
        if self.accumulation_q is not None and self.accumulation_q < 1:
            raise InvalidInput("accumulation_q must be a positive integer")

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# optimizers: step(params, grad) updates the parameter vector in place
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad):
        params -= self.lr * grad


class Adam:
    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = self.v = None  # moment vectors, created on the first step

    def step(self, params, grad):
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        self.m += (1.0 - ADAM_BETA1) * (grad - self.m)
        self.v += (1.0 - ADAM_BETA2) * (grad * grad - self.v)
        mhat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        vhat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def make_optimizer(name, lr):
    if name == "sgd":
        return SGD(lr)
    return Adam(lr)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def tent_loss(logits):
    """Mean entropy over a batch of logits.

    Returns (loss, grad) where grad is the analytic gradient of the mean
    entropy with respect to every logit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] < 1:
        raise InvalidInput("logits must be a non-empty 2-D array")
    h = entropy(softmax(logits))
    # scale by multiplication so the tau=0 weighted loss reproduces this
    # gradient bit for bit
    grad = entropy_grad_logits(logits) * (1.0 / logits.shape[0])
    return float(np.mean(h)), grad


def sample_weights(entropies, tau, n):
    """Entropy-power weights w_i = max(H_i, EPS_ENTROPY)^(-tau) / n.

    Constants under differentiation. tau = 0 recovers uniform weights 1/n;
    tau > 0 down-weights high-entropy samples.
    """
    h = np.maximum(np.asarray(entropies, dtype=np.float64), EPS_ENTROPY)
    return h ** (-tau) / n


def ttc_loss(combined_logits, tau, n):
    """Weighted entropy loss: sum_i w_i H_i with the weights held constant.

    Returns (loss, grad); at tau = 0 both coincide with tent_loss up to
    floating-point roundoff.
    """
    logits = np.asarray(combined_logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] < 1:
        raise InvalidInput("logits must be a non-empty 2-D array")
    h = entropy(softmax(logits))
    w = sample_weights(h, tau, n)
    grad = w[:, None] * entropy_grad_logits(logits)
    return float(np.sum(w * h)), grad


def entropy_filter(entropies, threshold):
    """Boolean mask accepting samples with entropy strictly below threshold."""
    if threshold <= 0:
        raise InvalidInput("threshold must be positive")
    return np.asarray(entropies, dtype=np.float64) < threshold


# ---------------------------------------------------------------------------
# robust label assignment
# ---------------------------------------------------------------------------

def rla_forward(net, batch):
    """Average the logits of a batch and of its flip (``flip_signal``).

    Both forwards run in TEST_BATCH_STATS mode, each normalizing with its own
    batch statistics. Gradients flow only through the un-flipped branch;
    because the combination is (live + frozen)/2, the gradient reaching the
    live logits is half the gradient at the combined logits.

    Returns (combined_logits, cache, aug_logits) where cache belongs to the
    un-flipped forward and aug_logits, the flipped branch's logits, carry no
    gradient path.
    """
    x = np.asarray(batch, dtype=np.float64)
    logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
    aug_logits, _ = forward(net, flip_signal(x), BNMode.TEST_BATCH_STATS)
    combined = 0.5 * (logits + aug_logits)
    return combined, cache, aug_logits


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------

@dataclass
class GradientAccumulator:
    q: int
    accumulated: np.ndarray | None = None
    batches_seen: int = 0


def accumulate_and_maybe_step(acc, grad, optimizer, params):
    """Add an (already 1/Q-scaled) gradient; step on the Q-th batch.

    The first batch of a window is copied, not added to zero, so a -0.0
    entry stays -0.0; after a step ``acc.accumulated`` still holds the
    gradient that was applied. Returns whether an optimizer step occurred.
    """
    if acc.batches_seen:
        acc.accumulated += grad
    else:
        acc.accumulated = grad.copy()
    acc.batches_seen += 1
    if acc.batches_seen >= acc.q:
        optimizer.step(params, acc.accumulated)
        acc.batches_seen = 0
        return True
    return False


# ---------------------------------------------------------------------------
# the adapter
# ---------------------------------------------------------------------------

class Adapter:
    """Owns a network and adapts it over a stream of unlabeled batches.

    One adapter per stream; calls are strictly sequential. The stream's plan
    is resolved once, here: the BN mode, whether parameters move (not for
    ``source``/``norm``), RLA with ``flip_signal`` (``ttc`` with
    ``rla_enabled``), the WA exponent (``ttc`` with ``wa_enabled``), the
    ``tent-filtered`` threshold, and Q (``ttc`` with ``ga_enabled``:
    ``accumulation_q``, else ``default_q(batch_size)``). The optimizer
    updates ``net.affine`` in place, which every BN gamma/beta is a view
    into: a layer whose gamma or beta array is replaced after the network
    was built is detached from it and no longer adapts.
    Optimizer state persists across batches. The procedure is online:
    reproducibility comes from fixing the stream order.

    With gradient accumulation the optimizer steps on every Q-th batch only;
    gradients accumulated after the last step of a stream are discarded.
    """

    def __init__(self, net, config, batch_size):
        if batch_size < 1:
            raise InvalidInput("batch_size must be positive")
        strategy = config.strategy
        ttc = strategy == "ttc"
        self.net = net
        self.optimizer = make_optimizer(config.optimizer, config.lr)
        self.mode = (BNMode.EVAL_STATS if strategy == "source"
                     else BNMode.TEST_BATCH_STATS)
        self.learns = strategy not in ("source", "norm")
        self.rla = ttc and config.rla_enabled
        self.tau = config.tau if ttc and config.wa_enabled else None
        self.threshold = None
        if strategy == "tent-filtered":  # a set threshold is positive
            self.threshold = (config.filter_threshold
                              or default_filter_threshold(net.k))
        q = 1
        if ttc and config.ga_enabled:
            q = config.accumulation_q or default_q(batch_size)
        self.accumulator = GradientAccumulator(q=q)
        # under RLA the live logits get half the combined-logit gradient
        self.grad_scale = (0.5 if self.rla else 1.0) / q

    def adapt_batch(self, batch):
        """Process one batch: predict, then (for gradient strategies) update.

        Returns (predictions, probs) computed from the pre-update forward;
        with RLA active these come from the flip-averaged logits.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise InvalidInput("batch must be a non-empty 2-D array")
        if self.rla:
            logits, cache, _ = rla_forward(self.net, x)
        else:
            logits, cache = forward(self.net, x, self.mode)
        probs = softmax(logits)
        preds = np.argmax(probs, axis=1)
        if not self.learns:
            return preds, probs

        if self.threshold is not None:
            mask = entropy_filter(entropy(probs), self.threshold)
            if not mask.any():
                return preds, probs
            grad = np.zeros_like(logits)
            grad[mask] = tent_loss(logits[mask])[1]
        elif self.tau is not None:
            _, grad = ttc_loss(logits, self.tau, x.shape[0])
        else:
            _, grad = tent_loss(logits)
        accumulate_and_maybe_step(
            self.accumulator,
            backward_bn_affine(self.net, cache, self.grad_scale * grad),
            self.optimizer, self.net.affine)
        return preds, probs
