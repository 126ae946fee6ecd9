"""A caller's fault, in any public module, raises ``InvalidInput``: the one
type the command line maps to exit code 3. Each row is one misuse, the
start of the message it raises, and nothing broader than ``InvalidInput``
is accepted (a ``ValueError``, ``IndexError`` or ``TTALabError`` fails)."""

import re

import numpy as np
import pytest

from ttalab import cli
from ttalab.adaptation import AdaptationConfig, Adapter
from ttalab.benchmark import (Corruption, SignalDataset, accuracy_score,
                              apply_corruption, batch_slices,
                              collect_features, feature_histograms,
                              train_source)
from ttalab.clustering import (MINIBATCH_RUNNING, assign_step,
                               run_minibatch_kmeans, update_step)
from ttalab.errors import InvalidInput
from ttalab.network import (BNMode, backward_bn_affine, checkpoint_text,
                            forward, load_checkpoint, make_network)
from ttalab.numeric import softmax

NET = make_network(input_dim=4, hidden=3, k=2, seed=0)
TEXT = checkpoint_text(NET).encode()
# the backward cache of a (3, 4) batch, whose logits are (3, 2)
CACHE = forward(NET, np.zeros((3, 4)), BNMode.TEST_BATCH_STATS)[1]
# numpy's message for a list of rows of other lengths
RAGGED = ("setting an array element with a sequence. The requested array has"
          " an inhomogeneous shape after 1 dimensions.")


def checkpoint(tmp_path, data):
    """load_checkpoint of a file holding the bytes ``data``."""
    path = tmp_path / "net.json"
    path.write_bytes(data)
    return load_checkpoint(path)


def flagged(**config):
    """An AdaptationConfig built the way the command line builds one."""
    with cli._flags("lr", accumulation_q="--q"):
        return AdaptationConfig(**config)


MISUSES = {
    "numeric: non-finite logits": (
        lambda tmp: softmax(np.array([0.0, np.nan])),
        "logits contains non-finite values"),
    "numeric: logits beyond the float range": (
        lambda tmp: softmax([10**400, 1]),
        "logits must be a (K,) or (N, K) or (S, N, K) array with K >= 1, got"
        " a value numpy cannot convert: int too large to convert to float"),
    "adaptation: unknown strategy": (
        lambda tmp: AdaptationConfig(strategy="nope"),
        "unknown strategy 'nope'"),
    "adaptation: a bare stack to an Adapter with RLA": (
        lambda tmp: Adapter(NET, [
            AdaptationConfig(strategy="ttc"),
            AdaptationConfig(strategy="ttc", rla_enabled=False)], 2,
        ).adapt_batch(np.zeros((2, 2, 4))),
        "batch must be a non-empty (S, N, d) array with S=3, d=4, got shape"
        " (2, 2, 4)"),
    "benchmark: corrupting a string": (
        lambda tmp: apply_corruption("abc", Corruption("gaussian_noise", 1),
                                     0),
        "x must be a non-empty (d,) or (m, d) array, got a value numpy"
        " cannot convert: could not convert string to float: 'abc'"),
    "benchmark: blurring a 0-d value": (
        lambda tmp: apply_corruption(1.0, Corruption("smooth_blur", 1), 0),
        "x must be a non-empty (d,) or (m, d) array, got shape ()"),
    "benchmark: contrast of a 0-d value": (
        lambda tmp: apply_corruption(1.0, Corruption("contrast", 1), 0),
        "x must be a non-empty (d,) or (m, d) array, got shape ()"),
    "benchmark: batch size 0": (
        lambda tmp: batch_slices(10, 0),
        "batch_size too small, need >= 1, got 0"),
    "benchmark: batch size -1": (
        lambda tmp: batch_slices(10, -1),
        "batch_size too small, need >= 1, got -1"),
    "benchmark: batch size 2.5": (
        lambda tmp: batch_slices(10, 2.5),
        "batch_size must be an integer, got 2.5"),
    "benchmark: collect_features at batch size 0": (
        lambda tmp: collect_features(NET, np.zeros((6, 4)), 0,
                                     BNMode.EVAL_STATS),
        "batch_size too small, need >= 1, got 0"),
    "benchmark: no features to histogram": (
        lambda tmp: feature_histograms({}),
        "no features to histogram, got {}"),
    "benchmark: train_source on one row": (
        lambda tmp: train_source(SignalDataset(np.ones((1, 32)), np.array([1]),
                                               0), 3, 0),
        "train_source needs m >= 2 rows, as BN batch statistics need two"
        " samples, got m=1"),
    "benchmark: train_source on no rows": (
        lambda tmp: train_source(SignalDataset(np.ones((0, 32)),
                                               np.array([], dtype=int), 0),
                                 3, 0),
        "train_source needs m >= 2 rows, as BN batch statistics need two"
        " samples, got m=0"),
    "benchmark: ragged predictions": (
        lambda tmp: accuracy_score([[1], [1, 2]], [1, 2]),
        "predictions must be a non-empty (n,) array, got a value numpy"
        " cannot convert: setting an array element with a sequence."),
    "clustering: 1-D features": (
        lambda tmp: assign_step(np.zeros(3), np.zeros((2, 3))),
        "features must be a (n, d) array with d=3, got shape (3,)"),
    "clustering: 1-D centers": (
        lambda tmp: assign_step(np.zeros((4, 3)), np.zeros(3)),
        "centers must be a non-empty (k, d) array, got shape (3,)"),
    "clustering: a later batch of strings": (
        lambda tmp: run_minibatch_kmeans([np.zeros((3, 2)), [["a", "b"]]], 2),
        "features must be a (n, d) array with d=2, got a value numpy cannot"
        " convert: could not convert string to float: 'a'"),
    "clustering: a ragged later batch": (
        lambda tmp: run_minibatch_kmeans([np.zeros((3, 2)),
                                          [[1.0], [1.0, 2.0]]], 2),
        "features must be a (n, d) array with d=2, got a value numpy cannot"
        " convert: " + RAGGED),
    "clustering: an empty later batch": (
        lambda tmp: run_minibatch_kmeans([np.zeros((3, 2)), np.zeros((0, 2))],
                                         2),
        "no points to score: features (0, 2), centers (2, 2)"),
    "clustering: counts as a tuple": (
        lambda tmp: update_step(np.zeros((3, 2)), [0, 1, 1], np.zeros((2, 2)),
                                MINIBATCH_RUNNING, counts=(0, 0)),
        "counts must be a list or a writeable array, got a read-only tuple"),
    "clustering: read-only counts": (
        lambda tmp: update_step(np.zeros((3, 2)), [0, 1, 1], np.zeros((2, 2)),
                                MINIBATCH_RUNNING,
                                counts=np.frombuffer(bytes(16), np.int64)),
        "counts must be a list or a writeable array, got a read-only"
        " ndarray"),
    "network: a stack's loss gradient for a batch's cache": (
        lambda tmp: backward_bn_affine(NET, CACHE, np.ones((2, 3, 2))),
        "loss_grad_logits must be a (N, K) array with N=3, K=2, got shape"
        " (2, 3, 2)"),
    "network: a loss gradient of another N": (
        lambda tmp: backward_bn_affine(NET, CACHE, np.ones((4, 2))),
        "loss_grad_logits must be a (N, K) array with N=3, K=2, got shape"
        " (4, 2)"),
    "network: a loss gradient of another K": (
        lambda tmp: backward_bn_affine(NET, CACHE, np.ones((3, 3))),
        "loss_grad_logits must be a (N, K) array with N=3, K=2, got shape"
        " (3, 3)"),
    "network: a batch's loss gradient for a stack's cache": (
        lambda tmp: backward_bn_affine(NET, forward(
            NET, np.zeros((2, 3, 4)), BNMode.TEST_BATCH_STATS,
            np.tile(NET.affine, (2, 1)))[1], np.ones((3, 2))),
        "loss_grad_logits must be a (S, N, K) array with S=2, N=3, K=2, got"
        " shape (3, 2)"),
    "network: 1-row batch under TEST_BATCH_STATS": (
        lambda tmp: forward(NET, np.zeros((1, 4)), BNMode.TEST_BATCH_STATS),
        "TEST_BATCH_STATS needs a batch of at least 2"),
    "network: non-finite affine": (
        lambda tmp: forward(NET, np.zeros((2, 4)), BNMode.TEST_BATCH_STATS,
                            affine=np.full(NET.affine.shape, np.nan)),
        "affine contains non-finite values"),
    "network: a batch of strings": (
        lambda tmp: forward(NET, [["a"] * 4] * 2, BNMode.EVAL_STATS),
        "batch must be a non-empty (N, d) array with d=4, got a value numpy"
        " cannot convert: could not convert string to float: 'a'"),
    "network: truncated checkpoint": (
        lambda tmp: checkpoint(tmp, TEXT[:len(TEXT) // 2]),
        "invalid checkpoint JSON at byte"),
    "network: non-UTF-8 checkpoint": (
        lambda tmp: checkpoint(tmp, TEXT + b"\xff"),
        f"checkpoint is not UTF-8 text at byte {len(TEXT)}"),
    "network: checkpoint layer of unknown kind": (
        lambda tmp: checkpoint(tmp, TEXT.replace(b'"kind": "dense"',
                                                 b'"kind": "conv"', 1)),
        "unknown layer kind 'conv'"),
    "cli: unknown flag": (
        lambda tmp: cli.build_parser().parse_args(["adapt", "--no-such-flag"]),
        "unrecognized arguments: --no-such-flag"),
    "cli: repeated list entry": (
        lambda tmp: cli._distinct("--batch-sizes", [2, 10, 2]),
        "--batch-sizes: 2 repeated"),
    "cli: a config field reported as its flag": (
        lambda tmp: flagged(accumulation_q=0),
        "--q: 0 too small, need >= 1"),
}


@pytest.mark.parametrize("call, message", MISUSES.values(), ids=MISUSES)
def test_caller_fault_is_invalid_input(tmp_path, call, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}") as err:
        call(tmp_path)
    assert type(err.value) is InvalidInput
