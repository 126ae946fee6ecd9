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

Every learning strategy descends one loss, sum_i w_i H_i with the weights
held constant, under one weight rule:
w_i = [H_i < threshold] max(H_i, 1e-6)^-tau / accepted. Tent has
tau = 0 and threshold = +inf (every weight 1/N), WA its tau, and the filter
its threshold (1/accepted on the samples below it, 0 on the rest).

An Adapter adapts S streams in lock-step, one (S + R, N, d) stack per call:
S batches (S = 1 for a lone stream), then the flips of the R streams with
RLA. It returns predictions computed before any parameter update in the
same call. Its streams share a Plan (BN mode, whether they learn, optimizer
and lr); RLA, tau, the filter threshold and Q are rows of their own, so
tent, the filter and every ttc ablation adapt together. Each stream gets
bit for bit the predictions and parameters it would get alone. A call runs
one forward, over that stack, and one softmax; a learning plan takes its
loss gradient from those probabilities.
Consecutive streams that share Q step as one ``Window``, with one optimizer;
a window steps all of its streams or none, so a tent-filtered stream, which
sits out a batch whose filter accepts no sample, is a window of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, _array, _bool, _integer, _real
from .network import BNMode, backward_bn_affine, forward
from .numeric import _entropy, _entropy_grad, softmax

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
        self.lr = _real("lr", self.lr, "finite and positive")
        self.tau = _real("tau", self.tau, "finite and non-negative")
        if self.filter_threshold is not None:
            self.filter_threshold = _real("filter_threshold",
                                          self.filter_threshold, "positive")
        if self.accumulation_q is not None:
            self.accumulation_q = _integer("accumulation_q",
                                           self.accumulation_q, 1)
        for name in ("rla_enabled", "wa_enabled", "ga_enabled"):
            setattr(self, name, _bool(name, getattr(self, name)))

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# optimizers: step(params, grad) updates the parameters in place
# ---------------------------------------------------------------------------
# ``params`` and ``grad`` are one (P,) vector or an (S, P) stack of one row
# per stream. Every row steps: a window steps all of its streams or none.

class SGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad):
        np.subtract(params, self.lr * grad, out=params)


class Adam:
    """Adam with one step count ``t`` for all of its rows, and moments
    ``m``, ``v`` shaped like the parameters."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        # created on the first step, with two scratch buffers like m
        self.m = self.v = self._scratch = None

    def step(self, params, grad):
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
            self._scratch = np.empty_like(grad), np.empty_like(grad)
        self.t += 1
        # bias corrections from Python's float power, as numpy's vector
        # power can round differently
        c1, c2 = 1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t
        # the ufunc steps of m += (1 - b1) (g - m), v += (1 - b2) (g g - v),
        # params -= lr (m / c1) / (sqrt(v / c2) + eps), through two buffers
        m, v = self.m, self.v
        a, b = self._scratch
        np.multiply(1.0 - ADAM_BETA1, np.subtract(grad, m, out=a), out=a)
        np.add(m, a, out=m)
        np.subtract(np.multiply(grad, grad, out=a), v, out=a)
        np.add(v, np.multiply(1.0 - ADAM_BETA2, a, out=a), out=v)
        np.multiply(self.lr, np.divide(m, c1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b)
        np.subtract(params, np.divide(a, b, out=a), out=params)


def make_optimizer(name, lr):
    if name == "sgd":
        return SGD(lr)
    return Adam(lr)


# ---------------------------------------------------------------------------
# losses: logits of shape (N, K), or (S, N, K) for S streams
# ---------------------------------------------------------------------------

def tent_loss(logits):
    """Mean entropy over a batch of logits (per stream, for a stack): the
    weighted loss ``ttc_loss`` at tau = 0, where every weight is 1/N.

    Returns (loss, grad) where grad is the analytic gradient of the mean
    entropy with respect to every logit.
    """
    logits = _array("logits", logits, "[S] N K")
    return ttc_loss(logits, 0.0, logits.shape[-2])


def ttc_loss(combined_logits, tau, n):
    """Weighted entropy loss: sum_i w_i H_i with the entropy-power weights
    w_i = max(H_i, EPS_ENTROPY)^(-tau) / n held constant.

    Returns (loss, grad); at tau = 0 this is tent's mean-entropy loss.
    """
    probs = softmax(_array("logits", combined_logits, "[S] N K"))
    h = _entropy(probs)
    w = np.maximum(h, EPS_ENTROPY) ** (-tau) / n
    return np.sum(w * h, axis=-1), w[..., None] * _entropy_grad(probs)


# ---------------------------------------------------------------------------
# robust label assignment
# ---------------------------------------------------------------------------

def with_flips(stack, flips, out=None):
    """(S + R, ..., d): the S streams of ``stack``, then the flip
    (``flip_signal``) of each stream that ``flips`` indexes, each written by
    one ``np.copyto`` of a reversed view; into ``out``, if given, whose
    first S rows ``stack`` already is: what ``Adapter.adapt_batch`` takes."""
    s = len(stack)
    if out is None:
        out = np.empty((s + len(flips),) + stack.shape[1:])
        out[:s] = stack
    for r, f in enumerate(flips):
        np.copyto(out[s + r], stack[f, ..., ::-1])
    return out


def rla_forward(net, x, affine, flips):
    """Robust label assignment: one TEST_BATCH_STATS ``forward`` (ttc's
    plan) over the (S + R, N, d) stack ``with_flips`` builds, which it
    checks against its (S + R, A) affine rows, each branch getting bit for
    bit its own logits.
    Returns the S streams' logits, averaged with their flip's for the
    streams ``flips`` indexes; the cache of the S streams, the only gradient
    path, so a flipping stream's live logits get half its combined-logit
    gradient; and the R flips' logits."""
    logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
    s = len(logits) - len(flips)
    combined, aug_logits = logits[:s].copy(), logits[s:]
    combined[flips] = 0.5 * (combined[flips] + aug_logits)
    return combined, cache.streams(slice(None, s)), aug_logits


# ---------------------------------------------------------------------------
# gradient accumulation
# ---------------------------------------------------------------------------

class Window:
    """Gradient accumulation of length ``q`` over ``params``, the (S, P)
    parameter rows of S streams that step in phase, which ``optimizer``
    steps in place: ``batches_seen`` counts the window's batches since its
    last step, ``accumulated`` holds their sum, an (S, P) stack. ``params``
    is the caller's own float array, never a copy; an Adapter passes each
    window its rows of ``affine``."""

    def __init__(self, params, q, optimizer):
        self.params = _array("params", params, "S* P*", kind="out")
        self.q = _integer("q", q, 1)
        self.optimizer = optimizer
        self.batches_seen = 0
        self.accumulated = None


def accumulate_and_maybe_step(window, grad):
    """Add the window's (already 1/Q-scaled) gradient, an (S, P) stack like
    its ``params``, and step every stream of the window on its Q-th batch.

    The first batch of a window is copied, not added to zero, so a -0.0
    entry stays -0.0; after a step ``window.accumulated`` still holds the
    gradient that was applied; a refused ``grad`` leaves the window as it
    was. Returns whether the window stepped.
    """
    s, p = window.params.shape
    grad = _array("grad", grad, "S P", S=s, P=p)
    if window.batches_seen:
        window.accumulated += grad
    else:
        window.accumulated = grad.copy()
    window.batches_seen += 1
    if window.batches_seen < window.q:
        return False
    window.batches_seen = 0
    window.optimizer.step(window.params, window.accumulated)
    return True


# ---------------------------------------------------------------------------
# the adapter
# ---------------------------------------------------------------------------

class Plan(NamedTuple):
    """What the streams of one Adapter share: streams with equal plans and
    batch sizes adapt together, whatever their ``StreamRow``."""

    mode: BNMode
    learns: bool              # False for source and norm
    optimizer: str
    lr: float


class StreamRow(NamedTuple):
    """What a stream does with each batch beyond its Plan: one row per
    stream of an Adapter."""

    rla: bool                 # ttc with rla_enabled
    tau: float                # the WA exponent of ttc with wa_enabled;
                              # 0.0 otherwise: uniform weights
    threshold: float          # the tent-filtered entropy cutoff; +inf
                              # otherwise: every sample accepted
    q: int                    # the accumulation length


def stream_plan(config):
    """The Plan a config resolves to."""
    strategy = config.strategy
    return Plan(
        mode=(BNMode.EVAL_STATS if strategy == "source"
              else BNMode.TEST_BATCH_STATS),
        learns=strategy not in ("source", "norm"),
        optimizer=config.optimizer, lr=config.lr)


def stream_row(config, k, batch_size):
    """The StreamRow a config resolves to on a network with k classes and
    batches of ``batch_size``. Q is ``accumulation_q``, else
    ``default_q(batch_size)``, for ttc with ``ga_enabled``; 1 otherwise."""
    strategy = config.strategy
    ttc = strategy == "ttc"
    threshold = math.inf
    if strategy == "tent-filtered":  # a set threshold is positive
        threshold = config.filter_threshold or default_filter_threshold(k)
    q = 1
    if ttc and config.ga_enabled:
        q = config.accumulation_q or default_q(batch_size)
    return StreamRow(rla=ttc and config.rla_enabled,
                     tau=config.tau if ttc and config.wa_enabled else 0.0,
                     threshold=threshold, q=q)


class Adapter:
    """Adapts S streams that share a plan, one stack of batches per call
    (``adapt_batch``), over copies of one network's BN affine parameters.

    The plan (``stream_plan``) is resolved once, here, from the configs,
    which must all resolve to the same one; each stream keeps its own
    ``stream_row``: RLA on or off, tau, filter threshold and Q, so tent,
    tent-filtered and every ttc ablation of one optimizer and lr share one
    stacked forward. Every stream reads the weights and running statistics
    of ``net``, which is never modified; its gamma/beta are row s of
    ``affine`` (S, A), laid out like ``net.affine`` and updated in place.
    Per-stream state, the optimizer's and the window's, persists across
    batches. Calls are strictly sequential: reproducibility comes from
    fixing each stream's order. Stream s gets bit for bit the predictions,
    probabilities, ``affine`` row and optimizer state it gets in an Adapter
    of its own.

    That state lives in ``windows``, one (rows, ``Window``) pair per maximal
    run of consecutive streams that share Q: ``rows`` slices the streams,
    and the Window holds Q, the batch count, the sum and an optimizer over
    ``affine[rows]``, a view, so its steps land in ``affine``. A window
    steps all of its streams or none, so it adds and the optimizer corrects
    its bias once for the whole window. With gradient accumulation a
    stream steps on every Q-th batch only; gradients accumulated after its
    last step are discarded. A ``tent-filtered`` stream (always Q = 1) sits
    out a batch whose filter accepts no sample, so it is a window of its
    own. Configs sorted by Q give one window per distinct Q and filtered
    stream; any order gives the same bits.
    """

    def __init__(self, net, configs, batch_size):
        batch_size = _integer("batch_size", batch_size, 1)
        plans = {stream_plan(c) for c in configs}
        if len(plans) != 1:
            raise InvalidInput(
                f"the {len(configs)} streams of an Adapter must share one"
                f" plan (BN mode, learning, optimizer and lr), got"
                f" {len(plans)}")
        (self.plan,) = plans
        self.net = net
        self.affine = np.tile(net.affine, (len(configs), 1))
        rows = [stream_row(c, net.k, batch_size) for c in configs]
        # the R streams with RLA; the affine row each stream with_flips reads
        self.flips = np.flatnonzero([row.rla for row in rows])
        self.stack_rows = np.concatenate([np.arange(len(rows)), self.flips])
        # numpy raises to the Python float -1.0 by a reciprocal, which an
        # array exponent rounds differently, so each distinct tau > 0 is
        # applied as a scalar to the rows that hold it; tau = 0 is 1.0
        self.wa = [(tau, np.array([row.tau == tau for row in rows]))
                   for tau in sorted({row.tau for row in rows} - {0.0})]
        self.threshold = np.array([[row.threshold] for row in rows])
        # a filtered stream may sit a batch out, so it is a window alone
        alone = [row.threshold < math.inf for row in rows]
        starts = [s for s in range(len(rows)) if s == 0 or alone[s]
                  or alone[s - 1] or rows[s].q != rows[s - 1].q]
        self.windows = [
            (slice(lo, hi), Window(self.affine[lo:hi], rows[lo].q,
                                   make_optimizer(self.plan.optimizer,
                                                  self.plan.lr)))
            for lo, hi in zip(starts, starts[1:] + [len(rows)])]
        # under RLA the live logits get half the combined-logit gradient
        self.grad_scale = np.array([(0.5 if row.rla else 1.0) / row.q
                                    for row in rows])[:, None, None]

    def adapt_batch(self, batch):
        """Process one batch of each stream: predict, then (for gradient
        strategies) update.

        ``batch`` is ``with_flips(stack, self.flips)`` of an (S, N, d) stack
        of one batch per stream (a lone stream's is ``batch[None]``), as a
        trip's slice holds it; ``forward`` checks it. Returns (predictions,
        probs), shaped (S, N) and (S, N, K), from the pre-update forward; a
        stream with RLA gets them from its flip-averaged logits.
        """
        if not len(self.flips):  # a plan that does not learn keeps no cache
            logits, cache = forward(self.net, batch, self.plan.mode,
                                    self.affine, cache=self.plan.learns)
        else:
            logits, cache, _ = rla_forward(
                self.net, batch, self.affine[self.stack_rows], self.flips)
        probs = softmax(logits)
        if self.plan.learns:
            self._learn(probs, cache)
        return np.argmax(probs, axis=-1), probs

    def _learn(self, probs, cache):
        """Step on the logit gradient of each stream's loss sum_i w_i H_i
        (w held constant), which ``probs``, the softmax of its logits,
        determines, with the one weight rule of every plan:
        ``w = [H < threshold] max(H, EPS_ENTROPY)^-tau / max(accepted, 1)``.
        Tent and WA accept every sample (threshold +inf, so accepted = N);
        the filter has tau = 0."""
        h = _entropy(probs)
        mask = h < self.threshold
        accepted = mask.sum(axis=-1)
        live = (accepted > 0).tolist()
        if not any(live):
            return
        powers = 1.0
        if self.wa:
            powers = np.ones(h.shape)
            for tau, rows in self.wa:
                powers[rows] = np.maximum(h[rows], EPS_ENTROPY) ** (-tau)
        w = mask * powers / np.maximum(accepted, 1)[:, None]
        grad = backward_bn_affine(self.net, cache, self.grad_scale
                                  * (w[..., None] * _entropy_grad(probs)))
        # only a filtered stream, alone in its window, can sit a batch out
        for rows, window in self.windows:
            if live[rows.start]:
                accumulate_and_maybe_step(window, grad[rows])
