"""Minimal feedforward classifier with batch normalization.

The flat layer list must form dense-led blocks: a dense layer, optionally
one batch-norm layer right after it, then the dense layer's activation. So
``[Dense(relu), BN]`` composes as affine -> normalize -> relu (normalization
before the nonlinearity). Only the BN affine parameters (gamma, beta) are
trainable at test time; full-parameter gradients exist solely for source
training.

Every trainable array is a view into one float64 vector, ``Network.params``:
each BN layer's gamma then beta, block by block, then each dense layer's
weight (row-major) then bias, block by block. Its first entries, the gamma
and beta, are ``Network.affine``. Gradients come back as one vector in the
same layout, so an optimizer step is one vector operation.

``forward`` and the backward pass read gamma/beta from an affine laid out
like ``Network.affine`` (by default that vector): one (A,) row for a batch
of shape (N, d), one row per stream, (S, A), for a stack of shape (S, N, d).
Every stream shares the network's weights and running statistics, and every
operation acts on the last two axes alone (numpy's stacked matmul makes one
gemm per stream), so stream s of a stack gets bit for bit the logits and
gradient it would get alone, as does a network holding that row.

Checkpoints are a single JSON document so they stay inspectable and portable.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, _array, _broken, _integer


class BNMode(Enum):
    """Which statistics a batch-norm layer normalizes with."""

    TRAIN_STATS = "train_stats"          # batch stats, running stats updated
    EVAL_STATS = "eval_stats"            # running stats
    TEST_BATCH_STATS = "test_batch_stats"  # batch stats, running stats untouched


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    activation: str = "identity"  # "relu" or "identity"

    def __post_init__(self):
        if self.activation not in ("relu", "identity"):
            raise InvalidInput(f"unknown activation {self.activation!r}")


@dataclass
class BatchNormLayer:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    # float64 throughout, so eps can sit low enough that batch-mode
    # normalization is exact to well under 1e-6
    eps: float = 1e-8
    momentum: float = 0.1

    @classmethod
    def identity(cls, num_features):
        """BN initialized to a no-op under running stats (0, 1)."""
        return cls(
            gamma=np.ones(num_features),
            beta=np.zeros(num_features),
            running_mean=np.zeros(num_features),
            running_var=np.ones(num_features),
        )


class Block(NamedTuple):
    """Layer indices, whether a ReLU follows, and gamma/beta in the affine."""

    dense: int
    bn: int | None
    relu: bool
    gamma: slice  # of Network.affine; empty without a BN layer
    beta: slice


def _blocks(layers):
    """Group a flat layer list into dense-led blocks."""
    blocks = []
    i = at = 0  # at: offset of the next BN layer's gamma in the affine
    while i < len(layers):
        layer = layers[i]
        if not isinstance(layer, DenseLayer):
            raise InvalidInput(
                f"layer {i} is a {type(layer).__name__}; every block must start"
                " with a dense layer, optionally followed by one batch-norm layer")
        n_out, n_in = layer.weight.shape
        if blocks and n_in != width:
            raise InvalidInput(f"layer {i} takes {n_in} inputs, but the block"
                               f" before it outputs {width}")
        bn = i + 1 if (i + 1 < len(layers)
                       and isinstance(layers[i + 1], BatchNormLayer)) else None
        if bn is not None and layers[bn].gamma.size != n_out:
            raise InvalidInput(f"layer {bn} normalizes {layers[bn].gamma.size}"
                               f" features, but layer {i} outputs {n_out}")
        f = 0 if bn is None else n_out
        blocks.append(Block(i, bn, layer.activation == "relu",
                            slice(at, at + f), slice(at + f, at + 2 * f)))
        at += 2 * f
        width = n_out
        i += 1 if bn is None else 2
    if not blocks:
        raise InvalidInput("network has no dense layer")
    return tuple(blocks)


@dataclass
class Network:
    """Dense-led blocks whose trainable arrays become views into ``params``
    when built. A layer array rebound after that is no longer read: steps
    miss it, and ``forward`` ignores a rebound gamma or beta."""

    layers: list
    k: int
    meta: dict = field(default_factory=dict)
    blocks: tuple = field(init=False, repr=False, compare=False)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    affine: np.ndarray = field(init=False, repr=False, compare=False)
    # each block's (weight, bias) slices of params
    dense_slices: tuple = field(init=False, repr=False, compare=False)
    # one (key, text) per layer position: the fields of the layer serialised
    # there last, and its text. The digests of a run share one network, so
    # its dense layers, which no affine row changes, are serialised once.
    layer_texts: dict = field(init=False, repr=False, compare=False,
                              default_factory=dict)

    def __post_init__(self):
        _meta_text(self.meta)  # here, not first at a save
        self.blocks = _blocks(self.layers)
        n_out = self.layers[self.blocks[-1].dense].weight.shape[0]
        if n_out != self.k:
            raise InvalidInput(
                f"final dense layer outputs {n_out}, expected k={self.k}")
        # the layout of params: every gamma, beta, then every weight, bias
        bns = [self.layers[b.bn] for b in self.blocks if b.bn is not None]
        denses = [self.layers[b.dense] for b in self.blocks]
        affine = [a for bn in bns for a in (bn.gamma, bn.beta)]
        arrays = affine + [a for d in denses for a in (d.weight, d.bias)]
        self.params = np.concatenate([np.ravel(a) for a in arrays],
                                     dtype=np.float64)
        bounds = np.cumsum([0] + [np.size(a) for a in arrays]).tolist()
        self.affine = self.params[:bounds[len(affine)]]
        dense = [slice(a, b) for a, b in zip(bounds[len(affine):-1],
                                             bounds[len(affine) + 1:])]
        self.dense_slices = tuple(zip(dense[::2], dense[1::2]))
        views = iter(np.split(self.params, bounds[1:-1]))
        for bn in bns:
            bn.gamma, bn.beta = next(views), next(views)
        for d in denses:
            d.weight, d.bias = next(views).reshape(d.weight.shape), next(views)

    def __deepcopy__(self, memo):
        # a deep-copied view is a new array of its own, so the copy's layers
        # are gathered into a buffer of their own by __post_init__
        return Network(layers=copy.deepcopy(self.layers, memo), k=self.k,
                       meta=copy.deepcopy(self.meta, memo))

    @property
    def input_dim(self):
        """Width of the input to the first dense layer: the columns a batch
        must have."""
        return self.layers[0].weight.shape[1]

    @property
    def feature_dim(self):
        """Width of the input to the final dense layer."""
        return self.layers[self.blocks[-1].dense].weight.shape[1]


def make_network(input_dim=32, hidden=64, k=3, seed=0):
    """Canonical experiment architecture: d -> Dense(h)+BN+relu twice -> Dense(k)."""
    input_dim = _integer("input_dim", input_dim, 1)
    hidden = _integer("hidden", hidden, 1)
    k = _integer("k", k, 2)
    seed = _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)

    def dense(n_in, n_out, act):
        w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
        return DenseLayer(weight=w, bias=np.zeros(n_out), activation=act)

    layers = [
        dense(input_dim, hidden, "relu"),
        BatchNormLayer.identity(hidden),
        dense(hidden, hidden, "relu"),
        BatchNormLayer.identity(hidden),
        dense(hidden, k, "identity"),
    ]
    return Network(layers=layers, k=k, meta={"seed": seed, "trained_epochs": 0})


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    # one (dense input, (xhat, inv_std, batch_stats) | None, relu mask | None)
    # per block
    records: list
    # the gamma/beta the BN layers read: net.affine, or the rows passed in
    affine: np.ndarray

    def streams(self, index):
        """The cache of the streams of a stack that ``index`` (an int or a
        slice of the stack axis) selects: what ``forward`` gives them alone."""
        return ForwardCache(
            records=[(x[index],
                      None if bn_rec is None
                      else (bn_rec[0][index], bn_rec[1][index], bn_rec[2]),
                      None if mask is None else mask[index])
                     for x, bn_rec, mask in self.records],
            affine=self.affine[index])


def forward(net, batch, mode, affine=None, cache=True):
    """Run the network on a batch, returning logits and a backward cache.

    ``affine`` holds the gamma/beta, laid out like ``net.affine`` (its
    default), and decides the layout of ``batch``: an (A,) row takes one
    (N, d) batch, and an (S, A) stack of rows takes an (S, N, d) stack of S
    batches, one per row. Both must be finite. In TEST_BATCH_STATS mode the
    batch must have at least two rows so the batch variance is defined.
    TRAIN_STATS, which updates the running statistics, takes the network's
    own gamma/beta.

    With ``cache=False``, for a forward that no backward pass follows, the
    same checks and arithmetic run, but no block's input, x-hat or ReLU
    mask is kept: BN writes ``gamma * xhat + beta`` into the x-hat array,
    and the logits, bit for bit those of the cached call, come back with
    ``None`` for the cache.
    """
    if mode is BNMode.TRAIN_STATS and affine is not None:
        raise InvalidInput("TRAIN_STATS updates the network's own gamma/beta")
    affine = _array("affine", net.affine if affine is None else affine,
                    "[S] A", finite=True, A=net.affine.size)
    x = _checked_batch(net, batch, mode,
                       len(affine) if affine.ndim == 2 else None)
    return _forward(net, x, mode, affine, cache)


def _checked_batch(net, batch, mode, streams):
    """``batch`` as ``forward`` takes it under ``mode``: finite, a (N, d)
    batch if ``streams`` is None and an (S, N, d) stack of that many
    streams otherwise, with at least 2 rows under TEST_BATCH_STATS."""
    x = _array("batch", batch, "N d" if streams is None else "S N d",
               finite=True, S=streams, d=net.input_dim)
    if mode is BNMode.TEST_BATCH_STATS and x.shape[-2] < 2:
        raise InvalidInput("TEST_BATCH_STATS needs a batch of at least 2")
    return x


def _forward(net, x, mode, affine, cache=True):
    """``forward`` of a float64 batch ``x`` and its affine rows, both
    already checked as ``forward`` checks them: the same bits, without the
    checks. The logits are still checked, as the program computed them."""
    records = []
    for dense, bn, relu, gamma, beta in net.blocks:
        layer = net.layers[dense]
        x_in = x
        # every later step of the block writes into arrays it made itself
        x = np.matmul(x_in, layer.weight.T)
        np.add(x, layer.bias, out=x)
        bn_rec = mask = None
        if bn is not None:  # views of shape (..., 1, F)
            x, bn_rec = _bn_forward(net.layers[bn], x, mode,
                                    affine[..., None, gamma],
                                    affine[..., None, beta], cache)
        if relu:
            mask = x > 0.0
            np.multiply(x, mask, out=x)
        if cache:
            records.append((x_in, bn_rec, mask))
    # logits are computed, not input; BLAS may overflow unseen by numpy
    if not np.isfinite(x).all():
        raise FloatingPointError("forward produced non-finite logits")
    return x, (ForwardCache(records=records, affine=affine) if cache
               else None)


def _batch_stats(x, out=None):
    """Mean over the rows (axis -2), centered batch and biased variance of
    a batch or of each stream of a stack; the centered batch is written
    into ``out`` when given (it may be ``x``).

    The ufunc steps of ``x.mean(axis=-2)`` and ``x.var(axis=-2)``, run once:
    the results are bit-identical to theirs.
    """
    n = x.shape[-2]
    mean = np.add.reduce(x, -2) / n
    d = np.subtract(x, mean[..., None, :], out=out)
    return mean, d, np.add.reduce(d * d, -2) / n


def _bn_forward(layer, x, mode, gamma, beta, cache):
    """Normalize ``x``, which the caller owns: it becomes the cached xhat,
    or, with ``cache=False``, the output, and no record is returned."""
    if mode is BNMode.EVAL_STATS:
        mean, var = layer.running_mean, layer.running_var
        d = np.subtract(x, mean, out=x)
    else:
        mean, d, var = _batch_stats(x, out=x)
        if mode is BNMode.TRAIN_STATS:
            m = layer.momentum
            layer.running_mean = (1.0 - m) * layer.running_mean + m * mean
            layer.running_var = (1.0 - m) * layer.running_var + m * var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = np.multiply(d, inv_std[..., None, :], out=d)
    # without a cache gamma * xhat is written over xhat: the same products
    out = np.multiply(gamma, xhat, out=None if cache else xhat)
    np.add(out, beta, out=out)
    if not cache:
        return out, None
    return out, (xhat, inv_std, mode is not BNMode.EVAL_STATS)


def _loss_grad(net, cache, loss_grad_logits):
    """A copy of ``loss_grad_logits``, which must have the shape of the
    cache's logits, for ``_backward`` to write into."""
    return _array("loss_grad_logits", loss_grad_logits,
                  "S N K" if cache.affine.ndim == 2 else "N K",
                  S=len(cache.affine), N=cache.records[0][0].shape[-2],
                  K=net.k).copy()


def _backward(net, cache, g, affine_only):
    """Reverse pass over the blocks: one gradient vector laid out like
    ``net.params``, or like ``net.affine`` if ``affine_only``. For a stack
    of streams (affine only), one such row per stream.

    With ``affine_only`` the pass ends at the gamma/beta gradient of the
    lowest BN layer, as nothing reads a gradient below it; a network
    without BN layers runs no pass at all.

    ``g``, the loss gradient of the cache's logits, is a float64 array the
    caller hands over and does not read again: the pass writes into it and
    its own scratch, never into a cache record. Each piece is written into
    its block's slice of the result."""
    blocks = list(zip(net.blocks, net.dense_slices, cache.records))
    if affine_only:
        lowest = [i for i, b in enumerate(net.blocks) if b.bn is not None]
        blocks = blocks[lowest[0]:] if lowest else []
    size = net.affine.size if affine_only else net.params.size
    grad = np.empty(g.shape[:-2] + (size,))
    for block, (weight, bias), (x, bn_rec, mask) in reversed(blocks):
        if mask is not None:
            np.multiply(g, mask, out=g)
        if block.bn is not None:
            xhat, inv_std, batch_stats = bn_rec
            gx = np.multiply(g, xhat)  # then the chain's scratch
            np.add.reduce(g, -2, out=grad[..., block.beta])
            np.add.reduce(gx, -2, out=grad[..., block.gamma])
            if affine_only and block.bn == blocks[0][0].bn:
                break
            dxhat = np.multiply(g, cache.affine[..., None, block.gamma], out=g)
            if batch_stats:
                # inv_std / n * (n dxhat - sum(dxhat) - xhat sum(dxhat xhat))
                n = xhat.shape[-2]
                sum_dx = np.add.reduce(np.multiply(dxhat, xhat, out=gx), -2,
                                       keepdims=True)
                sum_d = np.add.reduce(dxhat, -2, keepdims=True)
                g = np.multiply(n, dxhat, out=dxhat)
                np.subtract(g, sum_d, out=g)
                np.subtract(g, np.multiply(xhat, sum_dx, out=gx), out=g)
                np.multiply(inv_std[..., None, :] / n, g, out=g)
            else:
                g = np.multiply(dxhat, inv_std[..., None, :], out=dxhat)
        if not affine_only:
            np.add.reduce(g, 0, out=grad[bias])
            np.matmul(g.T, x, out=grad[weight].reshape(-1, x.shape[-1]))
        if block.dense:  # layer 0 reads the network input: no gradient
            g = g @ net.layers[block.dense].weight
    return grad


def backward_bn_affine(net, cache, loss_grad_logits):
    """Gradient of the loss with respect to ``net.affine``."""
    return _backward(net, cache, _loss_grad(net, cache, loss_grad_logits),
                     affine_only=True)


def backward_all(net, cache, loss_grad_logits):
    """Gradient of the loss with respect to ``net.params``; used for source
    training only. Raises InvalidInput for the cache of a stack."""
    if cache.affine.ndim != 1:
        raise InvalidInput(f"backward_all takes the cache of an (N, d) batch,"
                           f" got one of an (S, N, d) stack of shape"
                           f" {cache.records[0][0].shape}")
    return _backward(net, cache, _loss_grad(net, cache, loss_grad_logits),
                     affine_only=False)


def penultimate_features(net, batch, mode, affine=None):
    """Input of the final dense layer; the arguments are as for forward."""
    _, cache = forward(net, batch, mode, affine)
    return cache.records[-1][0]


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def _floats(arr):
    return np.asarray(arr, dtype=np.float64).ravel().tolist()


def layer_to_dict(layer):
    """One entry of a checkpoint's ``layers`` list."""
    if isinstance(layer, DenseLayer):
        return {
            "kind": "dense",
            "shape": list(layer.weight.shape),
            "weight": _floats(layer.weight),
            "bias": _floats(layer.bias),
            "activation": layer.activation,
        }
    return {
        "kind": "bn",
        "shape": [int(layer.gamma.size)],
        "gamma": _floats(layer.gamma),
        "beta": _floats(layer.beta),
        "running_mean": _floats(layer.running_mean),
        "running_var": _floats(layer.running_var),
        "eps": float(layer.eps),
        "momentum": float(layer.momentum),
    }


def _field_key(value):
    """A layer field, exactly: a number by its float64 bits in hex, so that
    -0.0 stays apart from 0.0, and an array by its shape and bytes."""
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return value.shape, np.asarray(value, dtype=np.float64).tobytes()
    return float(value).hex()


def _layer_text(texts, i, layer):
    """``json.dumps(layer_to_dict(layer), sort_keys=True)``, memoised in
    slot i of ``texts`` on every field of the layer."""
    key = (type(layer), *((name, _field_key(value))
                          for name, value in vars(layer).items()))
    slot = texts.get(i)
    if slot is None or slot[0] != key:
        slot = texts[i] = key, json.dumps(layer_to_dict(layer),
                                          sort_keys=True)
    return slot[1]


def _meta_text(meta):
    """The checkpoint text of ``meta``, keys sorted; InvalidInput if it does
    not serialise to JSON. Run at construction and at every write, so a
    meta changed after construction is held to the same rule."""
    try:
        return json.dumps(dict(meta), sort_keys=True)
    except (TypeError, ValueError) as e:
        raise _broken("meta", meta, f"must serialise to JSON ({e})") from None


def checkpoint_text(net, affine=None):
    """The checkpoint document of net, keys sorted, with the (A,) gamma/beta
    row ``affine`` (default ``net.affine``) in its BN layers. Each layer is
    its own ``json.dumps`` (the C encoder), memoised in ``net.layer_texts``,
    so one layer's floats at a time are Python objects. A non-finite value
    in ``net.params`` or ``affine`` raises InvalidInput before any text is
    made, as ``load_checkpoint`` would refuse the document."""
    _array("params", net.params, "P", finite=True)
    layers = list(net.layers)
    if affine is not None:
        affine = _array("affine", affine, "A", finite=True, A=net.affine.size)
        for b in net.blocks:
            if b.bn is not None:
                layers[b.bn] = replace(layers[b.bn], gamma=affine[b.gamma],
                                       beta=affine[b.beta])
    texts = ", ".join(_layer_text(net.layer_texts, i, layer)
                      for i, layer in enumerate(layers))
    return (f'{{"k": {int(net.k)}, "layers": [{texts}],'
            f' "meta": {_meta_text(net.meta)}}}')


def save_checkpoint(net, path):
    """Write the network as a JSON checkpoint (decimal, exact round-trip)."""
    text = checkpoint_text(net) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _array_field(i, obj, key, shape):
    """Layer i's field ``key`` as a finite float64 array of ``shape``."""
    try:
        arr = np.asarray(obj[key], dtype=np.float64)
    except KeyError:
        raise InvalidInput(f"layer {i} missing field {key!r}") from None
    except (TypeError, ValueError):
        raise InvalidInput(f"layer {i} field {key!r} is not numeric") from None
    if arr.size != int(np.prod(shape)):
        raise InvalidInput(f"layer {i} field {key!r} has {arr.size} values,"
                           f" expected shape {shape}")
    # json reads NaN and Infinity
    if not np.isfinite(arr).all():
        raise InvalidInput(f"layer {i} field {key!r} holds a non-finite value")
    return arr.reshape(shape)


def _shape_field(obj, kind, ndim):
    shape = obj.get("shape")
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 1 for n in shape)):
        raise InvalidInput(f"{kind} layer needs a shape of {ndim} positive"
                           f" integers, got {shape!r}")
    return tuple(shape)


def _layer_from_dict(i, entry):
    if not isinstance(entry, dict):
        raise InvalidInput(f"layer {i} is not a JSON object")
    kind = entry.get("kind")
    if kind == "dense":
        shape = _shape_field(entry, "dense", 2)
        return DenseLayer(
            weight=_array_field(i, entry, "weight", shape),
            bias=_array_field(i, entry, "bias", shape[:1]),
            activation=entry.get("activation", "identity"),
        )
    if kind == "bn":
        shape = _shape_field(entry, "bn", 1)
        arrays = {key: _array_field(i, entry, key, shape)
                  for key in ("gamma", "beta", "running_mean", "running_var")}
        # eps and momentum are optional; absent, the class defaults hold
        scalars = {key: _array_field(i, entry, key, ()).item()
                   for key in ("eps", "momentum") if key in entry}
        layer = BatchNormLayer(**arrays, **scalars)
        if not layer.eps > 0:
            raise InvalidInput(
                f"layer {i} field 'eps' must be positive, got {layer.eps!r}")
        if (layer.running_var < 0).any():
            raise InvalidInput(
                f"layer {i} field 'running_var' holds a negative value")
        return layer
    raise InvalidInput(f"unknown layer kind {kind!r}")


def network_from_dict(doc, expect_k=None):
    """The Network of a parsed checkpoint document; InvalidInput naming what
    is wrong for a document that describes none, or has a k not expect_k."""
    if not isinstance(doc, dict):
        raise InvalidInput("checkpoint root must be a JSON object")
    doc = {"meta": {}, **doc}
    for key, kind in (("k", int), ("layers", list), ("meta", dict)):
        if key not in doc:
            raise InvalidInput(f"checkpoint missing {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise InvalidInput(f"checkpoint {key!r} must be of type"
                               f" {kind.__name__}, got {type(doc[key]).__name__}")
    k = doc["k"]
    if expect_k is not None and k != expect_k:
        raise InvalidInput(f"checkpoint has k={k}, expected k={expect_k}")
    return Network(layers=[_layer_from_dict(i, entry)
                           for i, entry in enumerate(doc["layers"])],
                   k=k, meta=dict(doc["meta"]))


def load_checkpoint(path, expect_k=None):
    """Read a JSON checkpoint back into a Network.

    Raises InvalidInput for malformed JSON or UTF-8 (naming the byte
    offset) and for a document that describes no valid network.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise InvalidInput(f"checkpoint is not UTF-8 text at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise InvalidInput(f"invalid checkpoint JSON at byte {e.pos}: {e.msg}") from None
    return network_from_dict(doc, expect_k=expect_k)
