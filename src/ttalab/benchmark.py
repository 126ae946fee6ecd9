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
from dataclasses import asdict, dataclass

import numpy as np

from .adaptation import (Adapter, flip_signal, make_optimizer, stream_plan,
                         stream_row, with_flips)
from .errors import (InvalidInput, TrainingDiverged, _array, _float_rule,
                     _integer, _real)
from .network import (BNMode, backward_all, checkpoint_text, forward,
                      make_network, penultimate_features)
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
    k = _integer("k", k, 2)
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


def generate_dataset(k, m, seed):
    """Balanced noisy-template dataset; bit-identical for a given seed.

    One ``(m, SIGNAL_LENGTH)`` array is built: the noise, with each class's
    template added in place over its rows, then its rows and the labels
    permuted in place by the swaps that ``rng.permutation(m)`` draws. So
    the outputs are ``(templates[labels] + noise)[order]`` and
    ``labels[order]`` for ``order = rng.permutation(m)``, without a copy.
    """
    k = _integer("k", k, 2)
    m = _integer("m", m, k, why=f"one sample per class, k={k}")
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    templates = class_templates(k)
    counts = np.full(k, m // k)
    counts[: m % k] += 1
    labels = np.repeat(np.arange(k), counts)
    inputs = rng.normal(0.0, NOISE_SIGMA, size=(m, SIGNAL_LENGTH))
    # the labels are sorted, so each class's rows are one block
    stops = np.cumsum(counts).tolist()
    for template, start, stop in zip(templates, [0] + stops, stops):
        inputs[start:stop] += template
    # permutation(m) is shuffle(arange(m)); shuffling a 1-D array makes the
    # same swaps, and one void item per row makes them row swaps
    rows = inputs.view(np.dtype((np.void, inputs.strides[0]))).reshape(m)
    state = rng.bit_generator.state
    rng.shuffle(rows)
    rng.bit_generator.state = state
    rng.shuffle(labels)
    return SignalDataset(inputs=inputs, labels=labels, seed=seed)


# ---------------------------------------------------------------------------
# corruptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corruption:
    kind: str
    severity: int

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise InvalidInput(f"unknown corruption kind {self.kind!r}")
        object.__setattr__(self, "severity",
                           _integer("severity", self.severity, 1, 5))


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
    x = _array("x", x, "[m] d")
    s = corruption.severity
    rng = np.random.default_rng(_integer("seed", seed, 0))
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
    statistics are populated. Each epoch draws its order and its flips
    once; each batch gathers its own rows and flips them in place, so no
    copy of the dataset is made. Raises InvalidInput for a dataset of fewer
    than two rows, and TrainingDiverged, naming the epoch and the batch,
    when a step breaks the floating-point rule.
    """
    epochs = _integer("epochs", epochs, 0)
    lr = _real("lr", lr, "finite and positive")
    m = len(dataset)
    if m < 2:
        raise InvalidInput(f"train_source needs m >= 2 rows, as BN batch"
                           f" statistics need two samples, got m={m}")
    k = dataset.num_classes
    net = make_network(input_dim=dataset.inputs.shape[1], hidden=hidden,
                       k=k, seed=seed)
    optimizer = make_optimizer("adam", lr)
    rng = np.random.default_rng(seed)
    # rows of an epoch that train: a last batch of one row is skipped, as
    # BN batch statistics need two samples
    used = m - 1 if m % TRAIN_BATCH_SIZE == 1 else m
    with _float_rule(lambda e: TrainingDiverged(
            f"diverged in epoch {epoch + 1}, batch {batch + 1}: {e}")):
        for epoch in range(epochs):
            order = rng.permutation(m)[:used]
            # one draw per row, the stream a draw per batch makes
            flips = rng.random(used) < TRAIN_FLIP_PROB
            for batch, start in enumerate(range(0, used, TRAIN_BATCH_SIZE)):
                rows = order[start:start + TRAIN_BATCH_SIZE]
                x = dataset.inputs[rows]  # a gather: the loop's own rows
                f = flips[start:start + TRAIN_BATCH_SIZE]
                x[f] = flip_signal(x[f])
                y = dataset.labels[rows]
                logits, cache = forward(net, x, BNMode.TRAIN_STATS)
                grad = softmax(logits)  # minus the one-hot, over N
                grad[np.arange(len(y)), y] -= 1.0
                grad /= len(y)
                optimizer.step(net.params, backward_all(net, cache, grad))
    net.meta["trained_epochs"] = epochs  # beside make_network's checked seed
    return net


def evaluate_accuracy(net, dataset):
    """Plain accuracy under running statistics, no adaptation: forwards
    that keep no backward cache, over consecutive ``TRAIN_BATCH_SIZE``-row
    slices, so the pass holds one slice's activations at a time. Running
    statistics treat each row alone, so the predictions are those of one
    forward over all rows."""
    m = len(dataset)
    predictions = np.empty(m, dtype=np.intp)
    for start in range(0, m, TRAIN_BATCH_SIZE):
        rows = slice(start, start + TRAIN_BATCH_SIZE)
        logits, _ = forward(net, dataset.inputs[rows], BNMode.EVAL_STATS,
                            cache=False)
        np.argmax(logits, axis=1, out=predictions[rows])
    return accuracy_score(predictions, dataset.labels)


def accuracy_score(predictions, labels):
    """Fraction of predictions matching labels, two non-empty (n,)
    vectors."""
    predictions = _array("predictions", predictions, "n", kind=None)
    labels = _array("labels", labels, "n", kind=None, n=len(predictions))
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
    n = _integer("batch_size", n, 1)
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
        self.batch_size = _integer("batch_size", self.batch_size, 1)
        self.seed = _integer("seed", self.seed, 0)


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


def params_digest(net, affine=None):
    """sha256 of ``network.checkpoint_text(net, affine)``: the checkpoint
    document of net with the (A,) gamma/beta row ``affine`` (default
    ``net.affine``)."""
    doc = checkpoint_text(net, affine)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def stream_eval(net, dataset, corruption, protocol, config):
    """One pass over a (possibly corrupted) test stream with adaptation; the
    network is never mutated. Accuracy counts the predictions made before
    any parameter update triggered by that same batch."""
    (accuracy, per_batch, row), = adapt_streams(
        net, dataset.inputs, dataset.labels, [(corruption, protocol, config)])
    return RunReport(
        strategy=config.strategy,
        corruption=corruption.kind if corruption is not None else "none",
        severity=corruption.severity if corruption is not None else 0,
        seed=protocol.seed,
        n_test=len(dataset),
        accuracy=accuracy,
        per_batch_accuracy=per_batch,
        config=config.to_json(),
        params_digest=params_digest(net, row),
    )


# Rows one Adapter call carries at most: streams with a plan (BN mode,
# learning, optimizer, lr) and a batch size in common adapt in lock-step,
# MAX_TRIP_ROWS // N of them at a time, whatever their RLA, tau, filter
# threshold and Q; the forward then runs up to twice as many rows, one more
# batch for each stream with RLA. Measured per stream-batch against S=1
# (tent, Adam; 2-core Xeon, numpy 2.4, OpenBLAS on one thread): at N=2,
# S=100 (200 rows) ran 12.5x faster and S=200 (400 rows) only 10.3x; at
# N=100, S=2 to 8 ran 0.97x to 1.16x.
MAX_TRIP_ROWS = 200


def adapt_streams(net, inputs, labels, streams):
    """Adapt net's gamma/beta over one pass of each of several test streams.

    ``inputs`` (m, d) and ``labels`` (m,) are the clean stream; ``streams``
    holds one (corruption or None, protocol, config) per stream. The
    protocol's seed orders the stream and seeds its corruption, which is
    applied when the stream's trip starts. Streams sharing a plan
    (``stream_plan``: BN mode, learning, optimizer and lr) and a batch size
    adapt in one Adapter, at most ``MAX_TRIP_ROWS // N`` at a time, so
    tent, tent-filtered and every ttc ablation of one N share each call.
    Each group is stably sorted by Q before it is cut into trips, so the
    streams of one Q form one ``Window`` over their rows of the affine,
    but for each tent-filtered stream, which is a window of its own.
    Returns one (accuracy, per_batch_accuracy, adapted gamma/beta
    row laid out like ``net.affine``) per stream, in order.
    """
    inputs = _array("inputs", inputs, "m d", d=net.input_dim)
    labels = _array("labels", labels, "m", kind=None, m=len(inputs))
    groups = {}
    for i, (_, protocol, config) in enumerate(streams):
        key = (stream_plan(config), protocol.batch_size)
        groups.setdefault(key, []).append(i)
    results = [None] * len(streams)
    for (_, n), members in groups.items():
        members.sort(key=lambda i: stream_row(streams[i][2], net.k, n).q)
        per_trip = max(1, MAX_TRIP_ROWS // n)
        for lo in range(0, len(members), per_trip):
            trip = members[lo:lo + per_trip]
            for i, result in zip(trip, _adapt_trip(
                    net, inputs, labels, n, [streams[i] for i in trip])):
                results[i] = result
    return results


def _stream_name(config):
    """``<strategy>[-norla][-nowa][-noga]``: the strategy and, for ttc, the
    components it switches off."""
    offs = ((config.rla_enabled, "-norla"), (config.wa_enabled, "-nowa"),
            (config.ga_enabled, "-noga"))
    return config.strategy + "".join(
        tag for on, tag in offs if config.strategy == "ttc" and not on)


def _adapt_trip(net, inputs, labels, n, streams):
    """Adapt streams of one plan and batch size n in lock-step: each sample
    of each stream is predicted exactly once. The trip's input is built
    once, as the adapter's (S + R, m, d) stack ``with_flips``; streams that
    share (corruption, seed) share one corruption and one order. Raises
    TrainingDiverged, naming N, the batch and the trip's streams, when a
    batch breaks the floating-point rule."""
    m = len(labels)
    adapter = Adapter(net, [config for _, _, config in streams], n)
    x = np.empty((len(adapter.stack_rows),) + inputs.shape)
    y = np.empty((len(streams), m), dtype=labels.dtype)
    first = {}  # (corruption, seed): the first stream that holds it
    for s, (corruption, protocol, _) in enumerate(streams):
        f = first.setdefault((corruption, protocol.seed), s)
        if f < s:
            x[s], y[s] = x[f], y[f]
            continue
        order = np.random.default_rng(protocol.seed).permutation(m)
        stream = (inputs if corruption is None
                  else apply_corruption(inputs, corruption, protocol.seed))
        np.take(stream, order, axis=0, out=x[s])
        np.take(labels, order, out=y[s])
    with_flips(x[:len(streams)], adapter.flips, out=x)
    hits = np.empty(y.shape, dtype=bool)
    batches = batch_slices(m, n)
    names = ", ".join(f"{_stream_name(config)} seed {protocol.seed}"
                      for _, protocol, config in streams)
    with _float_rule(lambda e: TrainingDiverged(
            f"adaptation diverged at N={n}, batch {b + 1}, in the trip of"
            f" {names}: {e}")):
        for b, batch in enumerate(batches):
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
    """Penultimate features (m, feature_dim) of a non-empty (m, d) stream
    under ``affine``, each batch's written into one array."""
    inputs = _array("inputs", inputs, "m d", d=net.input_dim)
    features = np.empty((len(inputs), net.feature_dim))
    for batch in batch_slices(len(inputs), batch_size):
        features[batch] = penultimate_features(net, inputs[batch], mode,
                                               affine)
    return features


def feature_histograms(features_by_name, bins=64):
    """Per-channel normalized histograms over a range shared by all inputs.

    Each input is a non-empty, finite (n, channels) array, with the same
    channels for all. Returns (edges, hists) where edges is
    (channels, bins+1) and hists maps each name to a (channels, bins) array
    of densities summing to 1 per channel.
    """
    bins = _integer("bins", bins, 1)
    names = list(features_by_name)
    if not names:
        raise InvalidInput(f"no features to histogram, got {features_by_name!r}")
    first = _array(f"features {names[0]!r}", features_by_name[names[0]],
                   "n channels", finite=True)
    features = {n: _array(f"features {n!r}", features_by_name[n],
                          "n channels", finite=True, channels=first.shape[1])
                for n in names}
    stacked = np.vstack(list(features.values()))
    channels = stacked.shape[1]
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    hi = np.where(hi > lo, hi, lo + 1.0)  # degenerate constant channel
    edges = np.linspace(lo, hi, bins + 1).T  # (channels, bins+1)
    hists = {n: np.empty((channels, bins)) for n in names}
    for ch in range(channels):
        for n in names:
            counts, _ = np.histogram(features[n][:, ch], bins=edges[ch])
            total = counts.sum()
            hists[n][ch] = counts / total if total else counts
    return edges, hists


def histogram_overlap(h1, h2):
    """Overlap coefficient of two normalized (bins,) histograms: sum of bin
    minima."""
    h1 = _array("h1", h1, "bins")
    h2 = _array("h2", h2, "bins", bins=len(h1))
    return float(np.minimum(h1, h2).sum())
