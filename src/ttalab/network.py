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
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBatch, InvalidInput, ParseError, SchemaError


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

    def __post_init__(self):
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
        bounds = np.cumsum([0] + [np.size(a) for a in arrays])
        self.affine = self.params[:bounds[len(affine)]]
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
    def feature_dim(self):
        """Width of the input to the final dense layer."""
        return self.layers[self.blocks[-1].dense].weight.shape[1]


def make_network(input_dim=32, hidden=64, k=3, seed=0):
    """Canonical experiment architecture: d -> Dense(h)+BN+relu twice -> Dense(k)."""
    if input_dim < 1 or hidden < 1:
        raise InvalidInput(
            f"input_dim and hidden must be positive, got {input_dim}, {hidden}")
    if k < 2:
        raise InvalidInput(f"k must be at least 2, got {k}")
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


def forward(net, batch, mode, affine=None):
    """Run the network on a batch, returning logits and a backward cache.

    ``batch`` is (N, d), or (S, N, d) for S streams. ``affine`` holds the
    gamma/beta, laid out like ``net.affine`` (its default), with shape
    ``batch.shape[:-2] + (A,)``: one row for a batch, one row per stream for
    a stack. In TEST_BATCH_STATS mode the batch must have at least two rows
    so the batch variance is defined. TRAIN_STATS, which updates the
    running statistics, takes the network's own gamma/beta.
    """
    x = np.asarray(batch, dtype=np.float64)
    n_in = net.layers[0].weight.shape[1]
    if x.ndim not in (2, 3) or x.shape[-2] < 1 or x.shape[-1] != n_in:
        raise InvalidInput(
            f"batch must be an (N, d) array or an (S, N, d) stack with at"
            f" least one row and {n_in} columns, got shape {x.shape}")
    if mode is BNMode.TRAIN_STATS and affine is not None:
        raise InvalidInput("TRAIN_STATS updates the network's own gamma/beta")
    affine = net.affine if affine is None else np.asarray(affine)
    want = x.shape[:-2] + net.affine.shape
    if affine.shape != want:
        raise InvalidInput(f"affine must be {want} for a batch of shape"
                           f" {x.shape}, got shape {affine.shape}")
    if not np.isfinite(x).all():
        raise InvalidInput("batch contains non-finite values")
    if mode is BNMode.TEST_BATCH_STATS and x.shape[-2] < 2:
        raise DegenerateBatch("TEST_BATCH_STATS needs a batch of at least 2")

    records = []
    for dense, bn, relu, gamma, beta in net.blocks:
        layer = net.layers[dense]
        x_in = x
        x = x @ layer.weight.T + layer.bias
        bn_rec = mask = None
        if bn is not None:  # views of shape (..., 1, F)
            x, bn_rec = _bn_forward(net.layers[bn], x, mode,
                                    affine[..., None, gamma],
                                    affine[..., None, beta])
        if relu:
            mask = x > 0.0
            x = x * mask
        records.append((x_in, bn_rec, mask))
    if not np.isfinite(x).all():
        raise InvalidInput("forward produced non-finite logits")
    return x, ForwardCache(records=records, affine=affine)


def _batch_stats(x):
    """Mean over the rows (axis -2), centered batch and biased variance of
    a batch or of each stream of a stack.

    The ufunc steps of ``x.mean(axis=-2)`` and ``x.var(axis=-2)``, run once:
    the results are bit-identical to theirs.
    """
    n = x.shape[-2]
    mean = x.sum(axis=-2) / n
    d = x - mean[..., None, :]
    return mean, d, (d * d).sum(axis=-2) / n


def _bn_forward(layer, x, mode, gamma, beta):
    if mode is BNMode.EVAL_STATS:
        mean, var = layer.running_mean, layer.running_var
        d = x - mean
    else:
        mean, d, var = _batch_stats(x)
        if mode is BNMode.TRAIN_STATS:
            m = layer.momentum
            layer.running_mean = (1.0 - m) * layer.running_mean + m * mean
            layer.running_var = (1.0 - m) * layer.running_var + m * var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = np.multiply(d, inv_std[..., None, :], out=d)
    out = gamma * xhat + beta
    return out, (xhat, inv_std, mode is not BNMode.EVAL_STATS)


def _backward(net, cache, loss_grad_logits, affine_only):
    """Reverse pass over the blocks: one gradient vector laid out like
    ``net.params``, or like ``net.affine`` if ``affine_only``. For a stack
    of streams (affine only), one such row per stream."""
    g = np.asarray(loss_grad_logits, dtype=np.float64)
    # pieces in reverse layout order: beta before gamma, bias before weight
    affine, dense_grads = [], []
    for (dense, bn, _, gamma, _), (x, bn_rec, mask) in zip(
            reversed(net.blocks), reversed(cache.records)):
        if mask is not None:
            g = g * mask
        if bn is not None:
            xhat, inv_std, batch_stats = bn_rec
            affine += [g.sum(axis=-2), (g * xhat).sum(axis=-2)]
            dxhat = g * cache.affine[..., None, gamma]
            if batch_stats:
                n = xhat.shape[-2]
                g = (inv_std[..., None, :] / n) * (
                    n * dxhat
                    - dxhat.sum(axis=-2, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=-2, keepdims=True)
                )
            else:
                g = dxhat * inv_std[..., None, :]
        if not affine_only:
            dense_grads += [g.sum(axis=0), (g.T @ x).ravel()]
        if dense:  # layer 0 reads the network input, which needs no gradient
            g = g @ net.layers[dense].weight
    pieces = affine[::-1] + dense_grads[::-1]
    return (np.concatenate(pieces, axis=-1) if pieces
            else np.zeros(g.shape[:-2] + (0,)))


def backward_bn_affine(net, cache, loss_grad_logits):
    """Gradient of the loss with respect to ``net.affine``."""
    return _backward(net, cache, loss_grad_logits, affine_only=True)


def backward_all(net, cache, loss_grad_logits):
    """Gradient of the loss with respect to ``net.params``; used for source
    training only."""
    return _backward(net, cache, loss_grad_logits, affine_only=False)


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


def network_to_dict(net):
    return {"k": int(net.k), "layers": [layer_to_dict(layer)
                                         for layer in net.layers],
            "meta": dict(net.meta)}


def save_checkpoint(net, path):
    """Write the network as a JSON checkpoint (decimal, exact round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, sort_keys=True)
        fh.write("\n")


def _array_field(obj, key, shape):
    try:
        arr = np.asarray(obj[key], dtype=np.float64)
    except KeyError:
        raise SchemaError(f"layer missing field {key!r}") from None
    except (TypeError, ValueError):
        raise SchemaError(f"layer field {key!r} is not numeric") from None
    if arr.size != int(np.prod(shape)):
        raise SchemaError(
            f"field {key!r} has {arr.size} values, expected shape {shape}")
    return arr.reshape(shape)


def _shape_field(obj, kind, ndim):
    shape = obj.get("shape")
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 1 for n in shape)):
        raise SchemaError(f"{kind} layer needs a shape of {ndim} positive"
                          f" integers, got {shape!r}")
    return tuple(shape)


def _layer_from_dict(i, entry):
    if not isinstance(entry, dict):
        raise SchemaError(f"layer {i} is not a JSON object")
    kind = entry.get("kind")
    if kind == "dense":
        shape = _shape_field(entry, "dense", 2)
        return DenseLayer(
            weight=_array_field(entry, "weight", shape),
            bias=_array_field(entry, "bias", shape[:1]),
            activation=entry.get("activation", "identity"),
        )
    if kind == "bn":
        shape = _shape_field(entry, "bn", 1)
        arrays = {key: _array_field(entry, key, shape)
                  for key in ("gamma", "beta", "running_mean", "running_var")}
        # eps and momentum are optional; absent, the class defaults hold
        scalars = {key: _array_field(entry, key, ()).item()
                   for key in ("eps", "momentum") if key in entry}
        return BatchNormLayer(**arrays, **scalars)
    raise SchemaError(f"unknown layer kind {kind!r}")


def network_from_dict(doc, expect_k=None):
    if not isinstance(doc, dict):
        raise SchemaError("checkpoint root must be a JSON object")
    doc = {"meta": {}, **doc}
    for key, kind in (("k", int), ("layers", list), ("meta", dict)):
        if key not in doc:
            raise SchemaError(f"checkpoint missing {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise SchemaError(f"checkpoint {key!r} must be of type"
                              f" {kind.__name__}, got {type(doc[key]).__name__}")
    k = doc["k"]
    if expect_k is not None and k != expect_k:
        raise SchemaError(f"checkpoint has k={k}, expected k={expect_k}")
    try:
        return Network(layers=[_layer_from_dict(i, entry)
                               for i, entry in enumerate(doc["layers"])],
                       k=k, meta=dict(doc["meta"]))
    except InvalidInput as e:
        raise SchemaError(str(e)) from None


def load_checkpoint(path, expect_k=None):
    """Read a JSON checkpoint back into a Network.

    Raises ParseError (with the byte offset) for malformed JSON or UTF-8,
    and SchemaError for structurally invalid documents.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError(f"checkpoint is not UTF-8 text at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid checkpoint JSON at byte {e.pos}: {e.msg}") from None
    return network_from_dict(doc, expect_k=expect_k)
