"""Synthetic signal benchmark: dataset generation, corruptions, source
training, and the one-pass streaming evaluation protocol.

Signals live on a 32-point grid. Each class is a smooth double-bump template
that is symmetric under reversal, so the flip augmentation used by the
adaptation strategies is label-preserving by construction (the analogue of a
horizontal flip on natural images). Corruptions are toy analogues of the
usual image benchmark taxonomy with severity levels 1..5.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .adaptation import Adapter, flip_signal, make_optimizer, stream_plan
from .errors import InvalidInput, TrainingDiverged
from .network import (BNMode, DenseLayer, backward_all, forward,
                      layer_to_dict, make_network, penultimate_features)
from .numeric import softmax

SIGNAL_LENGTH = 32
NOISE_SIGMA = 0.1

# Class templates: bump width (grid points), bump amplitude, constant baseline.
TEMPLATE_WIDTH = 1.2
TEMPLATE_AMPLITUDE = 0.3
TEMPLATE_BASELINE = 1.0

# Source training: minibatch size and the probability of flipping a signal.
TRAIN_BATCH_SIZE = 64
TRAIN_FLIP_PROB = 0.5

CORRUPTION_KINDS = ("gaussian_noise", "impulse_noise", "smooth_blur",
                    "contrast", "brightness")

# Severity scaling constants, one entry per kind.
GAUSSIAN_SIGMA_PER_LEVEL = 0.1
IMPULSE_PROB_PER_LEVEL = 0.03
CONTRAST_LOSS_PER_LEVEL = 0.15
BRIGHTNESS_PER_LEVEL = 0.2


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

@dataclass
class SignalDataset:
    inputs: np.ndarray   # (m, SIGNAL_LENGTH)
    labels: np.ndarray   # (m,) int
    seed: int

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1

    def __len__(self):
        return self.inputs.shape[0]


def class_templates(k):
    """Flip-symmetric class templates: a baseline plus a bump and its mirror.

    Bump centers are evenly spaced over the left half of the grid, so the
    mirror pair makes every template exactly symmetric under reversal. The
    amplitude keeps classes well separated against the base noise (pairwise
    distance a few times beyond 5 sigma) while leaving severity-5
    corruptions enough room to actually hurt. The constant baseline gives
    the signals a nonzero mean, so zero-mean corruptions such as impulse
    noise shift the input statistics the way real covariate shift does.
    """
    if k < 2:
        raise InvalidInput("k must be at least 2")
    grid = np.arange(SIGNAL_LENGTH, dtype=np.float64)
    lo, hi = 2.0, 13.5
    positions = np.linspace(lo, hi, k)
    templates = np.empty((k, SIGNAL_LENGTH))
    for c, pos in enumerate(positions):
        bump = np.exp(-((grid - pos) ** 2) / (2.0 * TEMPLATE_WIDTH ** 2))
        # adding the reversed bump keeps the template symmetric bit for bit
        templates[c] = TEMPLATE_BASELINE + TEMPLATE_AMPLITUDE * (
            bump + bump[::-1])
    return templates


def generate_dataset(k, m, seed, noise_sigma=NOISE_SIGMA):
    """Balanced noisy-template dataset; bit-identical for a given seed."""
    if k < 2:
        raise InvalidInput("k must be at least 2")
    if m < k:
        raise InvalidInput("need at least one sample per class")
    rng = np.random.default_rng(seed)
    templates = class_templates(k)
    counts = np.full(k, m // k)
    counts[: m % k] += 1
    labels = np.repeat(np.arange(k), counts)
    inputs = templates[labels] + rng.normal(0.0, noise_sigma, size=(m, SIGNAL_LENGTH))
    order = rng.permutation(m)
    return SignalDataset(inputs=inputs[order], labels=labels[order], seed=seed)


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

@dataclass
class Corruption:
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise InvalidInput(f"unknown corruption kind {self.kind!r}")
        if not 1 <= self.severity <= 5:
            raise InvalidInput("severity must be in 1..5")


def _moving_average(x, size):
    """Mean over a window of ``size`` samples along the last axis, with the
    edge sample repeated past each end.

    A running sum in SciPy's ``uniform_filter1d`` order: it starts at 0.0,
    adds the first window term by term, then adds each entering sample
    minus the leaving one. np.sum would sum the first window pairwise and
    round differently.
    """
    n = x.shape[-1]
    left = size // 2
    # column of x at each padded position; "symmetric" repeats the edge
    cols = np.pad(np.arange(n), (left, size - 1 - left),
                  mode="symmetric").tolist()
    out = np.empty(x.shape)
    total = np.zeros(x.shape[:-1])
    for c in cols[:size]:
        total += x[..., c]
    np.divide(total, size, out=out[..., 0])
    for j in range(1, n):
        total += x[..., cols[j + size - 1]] - x[..., cols[j - 1]]
        np.divide(total, size, out=out[..., j])
    return out


def apply_corruption(x, corruption, seed):
    """Corrupt a signal or a batch of signals; deterministic given seed.

    Severity table: gaussian noise sigma = 0.1 s; impulse sets each
    coordinate to +-1 with probability 0.03 s; blur = moving average of
    window 2s+1 (reflect boundary), bit for bit equal to SciPy's
    ``ndimage.uniform_filter1d(x, 2s+1, axis=-1, mode="reflect")``;
    contrast scales deviations from the per-signal mean by (1 - 0.15 s);
    brightness adds 0.2 s.
    """
    x = np.asarray(x, dtype=np.float64)
    s = corruption.severity
    rng = np.random.default_rng(seed)
    if corruption.kind == "gaussian_noise":
        return x + rng.normal(0.0, GAUSSIAN_SIGMA_PER_LEVEL * s, size=x.shape)
    if corruption.kind == "impulse_noise":
        hit = rng.random(x.shape) < IMPULSE_PROB_PER_LEVEL * s
        signs = rng.choice([-1.0, 1.0], size=x.shape)
        return np.where(hit, signs, x)
    if corruption.kind == "smooth_blur":
        return _moving_average(x, 2 * s + 1)
    if corruption.kind == "contrast":
        mean = x.mean(axis=-1, keepdims=True)
        return mean + (x - mean) * (1.0 - CONTRAST_LOSS_PER_LEVEL * s)
    if corruption.kind == "brightness":
        return x + BRIGHTNESS_PER_LEVEL * s
    raise InvalidInput(f"unknown corruption kind {corruption.kind!r}")


# ---------------------------------------------------------------------------
# source training
# ---------------------------------------------------------------------------

def train_source(dataset, epochs, seed, lr=1e-2, hidden=64):
    """Train the canonical network on a clean dataset with random flips.

    Uses Adam on all parameters with BN in training mode, so running
    statistics are populated. Raises TrainingDiverged on a non-finite loss.
    """
    if epochs < 0:
        raise InvalidInput(f"epochs must be non-negative, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise InvalidInput(f"lr must be finite and positive, got {lr}")
    k = dataset.num_classes
    net = make_network(input_dim=dataset.inputs.shape[1], hidden=hidden,
                       k=k, seed=seed)
    optimizer = make_optimizer("adam", lr)
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
            try:
                logits, cache = forward(net, x, BNMode.TRAIN_STATS)
            except InvalidInput as e:
                raise TrainingDiverged(f"forward blew up: {e}") from None
            p = softmax(logits)
            loss = -np.mean(np.log(p[np.arange(len(idx)), y]))
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss}")
            grad = p.copy()
            grad[np.arange(len(idx)), y] -= 1.0
            grad /= len(idx)
            optimizer.step(net.params, backward_all(net, cache, grad))
    net.meta = {"seed": seed, "trained_epochs": epochs}
    return net


def evaluate_accuracy(net, dataset):
    """Plain accuracy under running statistics, no adaptation."""
    logits, _ = forward(net, dataset.inputs, BNMode.EVAL_STATS)
    return accuracy_score(np.argmax(logits, axis=1), dataset.labels)


def accuracy_score(predictions, labels):
    """Fraction of predictions matching labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise InvalidInput("predictions and labels differ in length")
    if predictions.size == 0:
        raise InvalidInput("cannot score an empty prediction set")
    return float(np.mean(predictions == labels))


# ---------------------------------------------------------------------------
# streaming protocol
# ---------------------------------------------------------------------------

def batch_slices(m, n):
    """Consecutive slices of range(m) in batches of n rows.

    A last batch of one row is folded into the batch before it, which then
    has n + 1 rows, because batch statistics need at least two rows.
    Otherwise the slices start at range(0, m, n).
    """
    starts = list(range(0, m, n))
    if m > 1 and m % n == 1:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [m])]


@dataclass
class StreamProtocol:
    """One pass over the stream in batches from batch_slices: each sample is
    predicted exactly once."""

    batch_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInput("batch_size must be positive")


@dataclass
class RunReport:
    strategy: str
    corruption: str
    severity: int
    seed: int
    n_test: int
    accuracy: float
    per_batch_accuracy: list
    config: dict
    params_digest: str

    def to_json(self):
        return asdict(self)

    def json_str(self):
        return json.dumps(self.to_json(), sort_keys=True) + "\n"

    def per_batch_csv(self):
        buf = io.StringIO()
        buf.write("batch,accuracy\n")
        for i, acc in enumerate(self.per_batch_accuracy):
            buf.write(f"{i},{acc!r}\n")
        return buf.getvalue()


# Layers whose checkpoint JSON params_digest keeps, least recently used
# first. A stream's affine row changes at most the BN layers, so the dense
# layers of the networks in use stay here across streams.
LAYER_JSON_MEMO_SIZE = 16
_layer_json_memo = {}


def _layer_key(layer):
    """Everything layer_to_dict reads, exactly: one changed bit is a new key."""
    if isinstance(layer, DenseLayer):
        arrays, scalars = (layer.weight, layer.bias), (layer.activation,)
    else:
        arrays = (layer.gamma, layer.beta, layer.running_mean,
                  layer.running_var)
        # hex keeps -0.0 apart from 0.0, which compare equal as floats
        scalars = (float(layer.eps).hex(), float(layer.momentum).hex())
    return (type(layer), *scalars,
            *((np.shape(a), np.asarray(a, dtype=np.float64).tobytes())
              for a in arrays))


def _layer_json(layer):
    key = _layer_key(layer)
    text = _layer_json_memo.pop(key, None)
    if text is None:
        text = json.dumps(layer_to_dict(layer), sort_keys=True)
        if len(_layer_json_memo) >= LAYER_JSON_MEMO_SIZE:
            del _layer_json_memo[next(iter(_layer_json_memo))]
    _layer_json_memo[key] = text
    return text


def params_digest(net, affine=None):
    """sha256 of ``json.dumps(network_to_dict(net), sort_keys=True)`` for
    net with the (A,) gamma/beta row ``affine`` (default ``net.affine``),
    built from per-layer JSON texts memoised on each layer's exact contents:
    the dense layers, which no row changes, are serialised once."""
    affine = net.affine if affine is None else np.asarray(affine)
    if affine.shape != net.affine.shape:
        raise InvalidInput(f"affine must be {net.affine.shape}, got shape"
                           f" {affine.shape}")
    layers = list(net.layers)
    for b in net.blocks:
        if b.bn is not None:
            layers[b.bn] = replace(layers[b.bn], gamma=affine[b.gamma],
                                   beta=affine[b.beta])
    layers = ", ".join(_layer_json(layer) for layer in layers)
    meta = json.dumps(dict(net.meta), sort_keys=True)
    doc = f'{{"k": {int(net.k)}, "layers": [{layers}], "meta": {meta}}}'
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def stream_eval(net, dataset, corruption, protocol, config):
    """One pass over a (possibly corrupted) test stream with adaptation: the
    one-stream case of ``eval_streams``."""
    return eval_streams(net, dataset, [(corruption, protocol, config)])[0]


def eval_streams(net, dataset, streams):
    """One pass over each of several test streams of one dataset.

    ``streams`` holds one (corruption or None, protocol, config) per stream.
    Returns one RunReport per stream, in order: each the report the stream
    gets alone; the network is never mutated. Accuracy counts the
    predictions made before any parameter update triggered by that same
    batch.
    """
    results = adapt_streams(net, dataset.inputs, dataset.labels, streams)
    return [RunReport(
        strategy=config.strategy,
        corruption=corruption.kind if corruption is not None else "none",
        severity=corruption.severity if corruption is not None else 0,
        seed=protocol.seed,
        n_test=len(dataset),
        accuracy=accuracy,
        per_batch_accuracy=per_batch,
        config=config.to_json(),
        params_digest=params_digest(net, row),
    ) for (corruption, protocol, config), (accuracy, per_batch, row)
        in zip(streams, results)]


# Rows one Adapter call carries at most: streams with a plan and a batch
# size in common adapt in lock-step, MAX_TRIP_ROWS // N of them at a time.
# Measured per stream-batch against S=1 (tent, Adam; 2-core Xeon, numpy
# 2.4, OpenBLAS on one thread): at N=2, S=100 (200 rows) ran 12.5x faster
# and S=200 (400 rows) only 10.3x; at N=100, S=2 to 8 ran 0.97x to 1.16x.
MAX_TRIP_ROWS = 200


def adapt_streams(net, inputs, labels, streams):
    """Adapt net's gamma/beta over one pass of each of several test streams.

    ``inputs`` (m, d) and ``labels`` (m,) are the clean stream; ``streams``
    holds one (corruption or None, protocol, config) per stream. The
    protocol's seed orders the stream and seeds its corruption, which is
    applied when the stream's trip starts. Streams sharing a plan and a
    batch size adapt in one Adapter, at most ``MAX_TRIP_ROWS // N`` at a
    time. Returns one (accuracy, per_batch_accuracy, adapted gamma/beta
    row laid out like ``net.affine``) per stream, in order.
    """
    groups = {}
    for i, (_, protocol, config) in enumerate(streams):
        key = (stream_plan(config, net.k), protocol.batch_size)
        groups.setdefault(key, []).append(i)
    results = [None] * len(streams)
    for (_, n), members in groups.items():
        per_trip = max(1, MAX_TRIP_ROWS // n)
        for lo in range(0, len(members), per_trip):
            trip = members[lo:lo + per_trip]
            for i, result in zip(trip, _adapt_trip(
                    net, inputs, labels, n, [streams[i] for i in trip])):
                results[i] = result
    return results


def _adapt_trip(net, inputs, labels, n, streams):
    """Adapt streams of one plan and batch size n in lock-step: each sample
    of each stream is predicted exactly once."""
    m = len(labels)
    # every stream's inputs and labels, in its own order
    x = np.empty((len(streams),) + inputs.shape)
    y = np.empty((len(streams), m), dtype=labels.dtype)
    for s, (corruption, protocol, _) in enumerate(streams):
        order = np.random.default_rng(protocol.seed).permutation(m)
        stream = (inputs if corruption is None
                  else apply_corruption(inputs, corruption, protocol.seed))
        np.take(stream, order, axis=0, out=x[s])
        np.take(labels, order, out=y[s])
    adapter = Adapter(net, [config for _, _, config in streams], n)
    hits = np.empty(y.shape, dtype=bool)
    batches = batch_slices(m, n)
    for batch in batches:
        hits[:, batch] = adapter.adapt_batch(x[:, batch])[0] == y[:, batch]
    # np.mean's steps: a count, exact in float64, over the batch size
    starts = [batch.start for batch in batches]
    sizes = np.diff(starts + [m])
    per_batch = (np.add.reduceat(hits, starts, axis=1, dtype=np.int64)
                 / sizes).tolist()
    return list(zip((hits.sum(axis=1) / m).tolist(), per_batch,
                    adapter.affine))


# ---------------------------------------------------------------------------
# feature density comparison
# ---------------------------------------------------------------------------

def collect_features(net, inputs, batch_size, mode, affine=None):
    """Penultimate features (m, feature_dim) of a stream under ``affine``."""
    return np.vstack([penultimate_features(net, inputs[batch], mode, affine)
                      for batch in batch_slices(inputs.shape[0], batch_size)])


def feature_histograms(features_by_name, bins=64):
    """Per-channel normalized histograms over a range shared by all inputs.

    Returns (edges, hists) where edges is (channels, bins+1) and hists maps
    each name to a (channels, bins) array of densities summing to 1 per
    channel.
    """
    if bins < 1:
        raise InvalidInput(f"bins must be positive, got {bins}")
    names = list(features_by_name)
    stacked = np.vstack([features_by_name[n] for n in names])
    channels = stacked.shape[1]
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    hi = np.where(hi > lo, hi, lo + 1.0)  # degenerate constant channel
    edges = np.linspace(lo, hi, bins + 1).T  # (channels, bins+1)
    hists = {n: np.empty((channels, bins)) for n in names}
    for ch in range(channels):
        for n in names:
            counts, _ = np.histogram(features_by_name[n][:, ch], bins=edges[ch])
            total = counts.sum()
            hists[n][ch] = counts / total if total else counts
    return edges, hists


def histogram_overlap(h1, h2):
    """Overlap coefficient of two normalized histograms: sum of bin minima."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if h1.shape != h2.shape:
        raise InvalidInput("histograms differ in shape")
    return float(np.minimum(h1, h2).sum())
