"""Online test-time adaptation strategies over BN affine parameters.

Strategies:
    source        no adaptation, running-statistics normalization
    norm          per-batch normalization, no gradient step
    tent          batch-entropy minimization, one SGD/Adam step per batch:
                  the weighted ttc loss at tau = 0, where every weight is 1/N
    tent-filtered tent restricted to samples below an entropy threshold
    ttc           tent plus robust label assignment (flip-averaged logits,
                  no gradient through the augmented branch), entropy-power
                  sample weights, and gradient accumulation; each component
                  individually toggleable

An Adapter adapts S streams that share a plan in lock-step, one (S, N, d)
stack of batches per call (S = 1 for a lone stream), and returns
predictions computed before any parameter update in the same call. Each
stream gets bit for bit the predictions and parameters it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

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
# optimizers: step(params, grad, rows) updates the parameters in place
# ---------------------------------------------------------------------------
# ``params`` and ``grad`` are one (P,) vector or an (S, P) stack of one row
# per stream. ``rows`` is None (every row steps) or, for a stack, a bool per
# row, True where the row steps; the other rows keep every bit.

class SGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad, rows=None):
        np.subtract(params, self.lr * grad, out=params,
                    where=True if rows is None else rows[:, None])


class Adam:
    """Adam with per-row state: step counts ``t``, of shape (S,) or (), and
    moments ``m``, ``v`` shaped like the parameters, so that a row that sits
    a step out keeps its own bias correction."""

    def __init__(self, lr):
        self.lr = lr
        self.t = self.m = self.v = None  # created on the first step

    def step(self, params, grad, rows=None):
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
            self.t = np.zeros(grad.shape[:-1], dtype=np.int64)
        live = True
        if rows is None:
            self.t += 1
        else:
            self.t += rows
            live = rows[:, None]
        # bias corrections from Python's float power, as numpy's vector
        # power can round differently: one pair if every row is at the same
        # step, else one per row. A row that has not stepped yet gets the
        # correction of step 1, which its masked update does not read.
        t = self.t.ravel().tolist()
        if min(t) == max(t):
            c1, c2 = 1.0 - ADAM_BETA1 ** t[0], 1.0 - ADAM_BETA2 ** t[0]
        else:
            c1, c2 = (np.array([[1.0 - beta ** max(n, 1)] for n in t])
                      for beta in (ADAM_BETA1, ADAM_BETA2))
        m, v = self.m, self.v
        np.add(m, (1.0 - ADAM_BETA1) * (grad - m), out=m, where=live)
        np.add(v, (1.0 - ADAM_BETA2) * (grad * grad - v), out=v, where=live)
        np.subtract(params, self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS),
                    out=params, where=live)


def make_optimizer(name, lr):
    if name == "sgd":
        return SGD(lr)
    return Adam(lr)


# ---------------------------------------------------------------------------
# losses: logits of shape (N, K), or (S, N, K) for S streams
# ---------------------------------------------------------------------------

def _check_logits(logits):
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3) or logits.shape[-2] < 1:
        raise InvalidInput("logits must be a non-empty (N, K) or (S, N, K)"
                           " array")
    return logits


def tent_loss(logits):
    """Mean entropy over a batch of logits (per stream, for a stack): the
    weighted loss ``ttc_loss`` at tau = 0, where every weight is 1/N.

    Returns (loss, grad) where grad is the analytic gradient of the mean
    entropy with respect to every logit.
    """
    logits = _check_logits(logits)
    return ttc_loss(logits, 0.0, logits.shape[-2])


def sample_weights(entropies, tau, n):
    """Entropy-power weights w_i = max(H_i, EPS_ENTROPY)^(-tau) / n.

    Constants under differentiation. tau = 0 recovers uniform weights 1/n;
    tau > 0 down-weights high-entropy samples.
    """
    h = np.maximum(np.asarray(entropies, dtype=np.float64), EPS_ENTROPY)
    return h ** (-tau) / n


def ttc_loss(combined_logits, tau, n):
    """Weighted entropy loss: sum_i w_i H_i with the weights held constant.

    Returns (loss, grad); at tau = 0 this is tent's mean-entropy loss.
    """
    logits = _check_logits(combined_logits)
    h = entropy(softmax(logits))
    w = sample_weights(h, tau, n)
    grad = w[..., None] * entropy_grad_logits(logits)
    return np.sum(w * h, axis=-1), grad


def entropy_filter(entropies, threshold):
    """Boolean mask accepting samples with entropy strictly below threshold."""
    if threshold <= 0:
        raise InvalidInput("threshold must be positive")
    return np.asarray(entropies, dtype=np.float64) < threshold


# ---------------------------------------------------------------------------
# robust label assignment
# ---------------------------------------------------------------------------

def rla_forward(net, batch, affine=None):
    """Average the logits of a batch and of its flip (``flip_signal``).

    Both forwards run in TEST_BATCH_STATS mode, each normalizing with its own
    batch statistics. Gradients flow only through the un-flipped branch;
    because the combination is (live + frozen)/2, the gradient reaching the
    live logits is half the gradient at the combined logits. ``batch`` and
    ``affine`` are as for ``forward``.

    Returns (combined_logits, cache, aug_logits) where cache belongs to the
    un-flipped forward and aug_logits, the flipped branch's logits, carry no
    gradient path.
    """
    x = np.asarray(batch, dtype=np.float64)
    logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
    aug_logits, _ = forward(net, flip_signal(x), BNMode.TEST_BATCH_STATS,
                            affine)
    combined = 0.5 * (logits + aug_logits)
    return combined, cache, aug_logits


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------

class GradientAccumulator:
    """One accumulation window per stream: ``q`` and ``batches_seen`` hold
    one int per stream, ``accumulated`` the window sums, an (S, P) stack."""

    def __init__(self, q):
        self.q = list(q)
        self.batches_seen = [0] * len(self.q)
        self.accumulated = None


def accumulate_and_maybe_step(acc, grad, optimizer, params, live=None):
    """Add each live stream's (already 1/Q-scaled) gradient, a row of an
    (S, P) stack with S = ``len(acc.q)``, like ``params``; step each stream
    on its Q-th batch.

    ``live`` is None (every stream) or a bool per stream, False where the
    stream sits this batch out: it neither counts the batch nor steps. The
    first batch of a window is copied, not added to zero, so a -0.0 entry
    stays -0.0; after a step ``acc.accumulated`` still holds the gradient
    that was applied. Returns a bool per stream: whether it stepped.
    """
    if np.shape(grad)[:-1] != (len(acc.q),) or np.shape(params) != grad.shape:
        raise InvalidInput(f"grad and params must be ({len(acc.q)}, P) stacks,"
                           f" got {np.shape(grad)} and {np.shape(params)}")
    seen = acc.batches_seen
    if live is None:
        live = [True] * len(seen)
    opening = [on and not n for on, n in zip(live, seen)]
    if acc.accumulated is None or all(opening):
        acc.accumulated = grad.copy()
    elif any(opening) or not all(live):  # the windows are out of phase
        adding = [on and not first for on, first in zip(live, opening)]
        np.copyto(acc.accumulated, grad, where=np.array(opening)[:, None])
        np.add(acc.accumulated, grad, out=acc.accumulated,
               where=np.array(adding)[:, None])
    else:
        acc.accumulated += grad
    acc.batches_seen = seen = [n + on for n, on in zip(seen, live)]
    stepped = [n >= q for n, q in zip(seen, acc.q)]
    if any(stepped):
        acc.batches_seen = [0 if done else n for n, done in zip(seen, stepped)]
        optimizer.step(params, acc.accumulated,
                       None if all(stepped) else np.array(stepped))
    return stepped


# ---------------------------------------------------------------------------
# the adapter
# ---------------------------------------------------------------------------

class Plan(NamedTuple):
    """What a stream does with each batch, all but its Q: streams with equal
    plans and batch sizes adapt together in one Adapter."""

    mode: BNMode
    learns: bool              # False for source and norm
    rla: bool                 # ttc with rla_enabled
    tau: float                # the WA exponent of ttc with wa_enabled;
                              # 0.0 otherwise: tent's uniform weights
    threshold: float | None   # the tent-filtered entropy cutoff
    optimizer: str
    lr: float


def stream_plan(config, k):
    """The Plan a config resolves to on a network with k classes."""
    strategy = config.strategy
    ttc = strategy == "ttc"
    threshold = None
    if strategy == "tent-filtered":  # a set threshold is positive
        threshold = config.filter_threshold or default_filter_threshold(k)
    return Plan(
        mode=(BNMode.EVAL_STATS if strategy == "source"
              else BNMode.TEST_BATCH_STATS),
        learns=strategy not in ("source", "norm"),
        rla=ttc and config.rla_enabled,
        tau=config.tau if ttc and config.wa_enabled else 0.0,
        threshold=threshold, optimizer=config.optimizer, lr=config.lr)


def stream_q(config, batch_size):
    """The stream's accumulation length: ``accumulation_q``, else
    ``default_q(batch_size)``, for ttc with ``ga_enabled``; 1 otherwise."""
    if config.strategy == "ttc" and config.ga_enabled:
        return config.accumulation_q or default_q(batch_size)
    return 1


class Adapter:
    """Adapts S streams that share a plan, one (S, N, d) stack of batches
    per call, over copies of one network's BN affine parameters.

    The plan (``stream_plan``) is resolved once, here, from the configs,
    which must all resolve to the same one; each stream keeps its own Q
    (``stream_q``). Every stream reads the weights and running statistics
    of ``net``, which is never modified; its gamma/beta are row s of
    ``affine`` (S, A), laid out like ``net.affine`` and updated in place.
    Per-stream state, the optimizer's and the accumulator's, persists across
    batches. Calls are strictly sequential: reproducibility comes from
    fixing each stream's order. Stream s gets bit for bit the predictions,
    ``affine`` row and optimizer state it gets in an Adapter of its own.

    With gradient accumulation a stream steps on every Q-th batch only;
    gradients accumulated after its last step are discarded. A
    ``tent-filtered`` stream whose filter accepts no sample of a batch
    neither steps nor counts that batch.
    """

    def __init__(self, net, configs, batch_size):
        if batch_size < 1:
            raise InvalidInput("batch_size must be positive")
        plans = {stream_plan(c, net.k) for c in configs}
        if len(plans) != 1:
            raise InvalidInput(f"the {len(configs)} streams of an Adapter"
                               f" must share one plan, got {len(plans)}")
        (self.plan,) = plans
        self.net = net
        self.affine = np.tile(net.affine, (len(configs), 1))
        self.optimizer = make_optimizer(self.plan.optimizer, self.plan.lr)
        q = [stream_q(c, batch_size) for c in configs]
        self.accumulator = GradientAccumulator(q)
        # under RLA the live logits get half the combined-logit gradient
        self.grad_scale = np.array(
            [(0.5 if self.plan.rla else 1.0) / n for n in q])[:, None, None]

    def adapt_batch(self, batch):
        """Process one batch of each stream: predict, then (for gradient
        strategies) update.

        ``batch`` is an (S, N, d) stack, one batch per stream; a lone
        stream's batch goes in as ``batch[None]``. Returns (predictions,
        probs), shaped (S, N) and (S, N, K), computed from the pre-update
        forward; with RLA active these come from the flip-averaged logits.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 3 or len(x) != len(self.affine) or x.shape[1] == 0:
            raise InvalidInput(f"batch must be a non-empty (S, N, d) stack of"
                               f" {len(self.affine)} batches, got shape"
                               f" {x.shape}")
        if self.plan.rla:
            logits, cache, _ = rla_forward(self.net, x, self.affine)
        else:
            logits, cache = forward(self.net, x, self.plan.mode, self.affine)
        probs = softmax(logits)
        if self.plan.learns:
            self._learn(logits, probs, cache)
        return np.argmax(probs, axis=-1), probs

    def _learn(self, logits, probs, cache):
        live = None
        if self.plan.threshold is not None:
            mask = entropy_filter(entropy(probs), self.plan.threshold)
            accepted = mask.sum(axis=-1)
            live = (accepted > 0).tolist()
            if not any(live):
                return
            # tent over each stream's accepted rows: their mean entropy
            scale = (1.0 / np.maximum(accepted, 1))[:, None, None]
            grad = np.where(mask[..., None],
                            entropy_grad_logits(logits) * scale, 0.0)
        else:  # tent is the tau = 0 case
            _, grad = ttc_loss(logits, self.plan.tau, logits.shape[-2])
        grad = backward_bn_affine(self.net, cache, self.grad_scale * grad)
        accumulate_and_maybe_step(self.accumulator, grad, self.optimizer,
                                  self.affine, live)
