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

All strategies return predictions computed before any parameter update in
the same call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidInput
from .network import BNMode, backward_bn_affine, bn_affine_params, forward
from .numeric import entropy, entropy_grad_logits, softmax

STRATEGIES = ("source", "norm", "tent", "tent-filtered", "ttc")
OPTIMIZERS = ("sgd", "adam")

# Entropy clamp inside the sample weights; H^(-tau) diverges as H -> 0.
EPS_ENTROPY = 1e-6


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
        if self.lr <= 0:
            raise InvalidInput("lr must be positive")
        if self.tau < 0:
            raise InvalidInput("tau must be non-negative")
        if self.accumulation_q is not None and self.accumulation_q < 1:
            raise InvalidInput("accumulation_q must be a positive integer")

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, doc):
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise InvalidInput(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for key, g in grads.items():
            params[key] -= self.lr * g


class Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, g in grads.items():
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(g)
                self.m[key] = m
                self.v[key] = np.zeros_like(g)
            v = self.v[key]
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            params[key] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


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

def rla_forward(net, batch, aug, mode=BNMode.TEST_BATCH_STATS):
    """Average the logits of a batch and its augmented view.

    Both forwards run in the same BN mode, each normalizing with its own
    batch statistics. Gradients flow only through the un-augmented branch;
    because the combination is (live + frozen)/2, the gradient reaching the
    live logits is half the gradient at the combined logits.

    Returns (combined_logits, cache, aug_logits) where cache belongs to the
    un-augmented forward and aug_logits carry no gradient path.
    """
    x = np.asarray(batch, dtype=np.float64)
    aug_x = np.asarray(aug(x), dtype=np.float64)
    if aug_x.shape != x.shape:
        raise InvalidInput("augmentation changed the input shape")
    logits, cache = forward(net, x, mode)
    aug_logits, _ = forward(net, aug_x, mode)
    combined = 0.5 * (logits + aug_logits)
    return combined, cache, aug_logits


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------

@dataclass
class GradientAccumulator:
    q: int
    accumulated: dict = field(default_factory=dict)
    batches_seen: int = 0

    def reset(self):
        self.accumulated = {}
        self.batches_seen = 0


def accumulate_and_maybe_step(acc, grads, optimizer, params):
    """Add (already 1/Q-scaled) gradients; step and reset on the Q-th batch.

    Returns whether an optimizer step occurred.
    """
    for key, g in grads.items():
        if key in acc.accumulated:
            acc.accumulated[key] += g
        else:
            acc.accumulated[key] = g.copy()
    acc.batches_seen += 1
    if acc.batches_seen >= acc.q:
        optimizer.step(params, acc.accumulated)
        acc.reset()
        return True
    return False


# ---------------------------------------------------------------------------
# the adapter
# ---------------------------------------------------------------------------

class Adapter:
    """Owns a network and adapts it over a stream of unlabeled batches.

    One adapter per stream; calls are strictly sequential. Optimizer state
    persists across batches and is zero-initialized at construction. The
    procedure is online: permuting the stream may change the final
    parameters, so reproducibility comes from fixing the stream order, not
    from the algorithm being order-free.

    With gradient accumulation the optimizer steps on every Q-th batch only;
    gradients accumulated after the last step of a stream are discarded.
    ``aug=None`` turns robust label assignment off.
    """

    def __init__(self, net, config, batch_size=None, aug=flip_signal):
        self.net = net
        self.config = config
        self.aug = aug
        self.optimizer = make_optimizer(config.optimizer, config.lr)
        self._q = None
        self.accumulator = None
        if batch_size is not None:
            self._resolve_q(batch_size)

    def _resolve_q(self, batch_size):
        cfg = self.config
        if cfg.strategy == "ttc" and cfg.ga_enabled:
            q = cfg.accumulation_q or default_q(batch_size)
        else:
            q = 1
        self._q = q
        self.accumulator = GradientAccumulator(q=q)

    def _use_rla(self):
        return (self.config.strategy == "ttc" and self.config.rla_enabled
                and self.aug is not None)

    def adapt_batch(self, batch):
        """Process one batch: predict, then (for gradient strategies) update.

        Returns (predictions, probs) computed from the pre-update forward;
        with RLA active these come from the flip-averaged logits.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise InvalidInput("batch must be a non-empty 2-D array")
        cfg = self.config
        if self._q is None:
            self._resolve_q(x.shape[0])

        if cfg.strategy == "source":
            logits, _ = forward(self.net, x, BNMode.EVAL_STATS)
            probs = softmax(logits)
            return np.argmax(probs, axis=1), probs

        if cfg.strategy == "norm":
            logits, _ = forward(self.net, x, BNMode.TEST_BATCH_STATS)
            probs = softmax(logits)
            return np.argmax(probs, axis=1), probs

        if self._use_rla():
            combined, cache, _ = rla_forward(self.net, x, self.aug)
            live_factor = 0.5
        else:
            combined, cache = forward(self.net, x, BNMode.TEST_BATCH_STATS)
            live_factor = 1.0
        probs = softmax(combined)
        preds = np.argmax(probs, axis=1)

        n = x.shape[0]
        if cfg.strategy == "tent":
            _, grad = tent_loss(combined)
        elif cfg.strategy == "tent-filtered":
            threshold = cfg.filter_threshold
            if threshold is None:
                threshold = default_filter_threshold(self.net.k)
            h = entropy(probs)
            mask = entropy_filter(h, threshold)
            if not mask.any():
                return preds, probs
            grad = np.zeros_like(combined)
            _, g_sub = tent_loss(combined[mask])
            grad[mask] = g_sub
        else:  # ttc
            if cfg.wa_enabled:
                _, grad = ttc_loss(combined, cfg.tau, n)
            else:
                _, grad = tent_loss(combined)

        grad_logits = (live_factor / self._q) * grad
        grads = backward_bn_affine(self.net, cache, grad_logits)
        accumulate_and_maybe_step(self.accumulator, grads, self.optimizer,
                                  bn_affine_params(self.net))
        return preds, probs
