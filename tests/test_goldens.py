"""Bit-preservation check against the benchmark's recorded goldens.

``perfbench/goldens.json`` holds the outputs of the benchmark workloads as
recorded from the reference commit. For workload seeds 0 and 1 the ``nets``
fixture trains the same checkpoints as those workloads, so the checkpoint
bytes, the grid-large cells of stream seed 0 (every strategy under every
corruption), the small-batch sweep CSV, the lemma-check summary and the
k-means centers over the held-out stream can be reproduced here. Any change
to a float op on the corruption, forward, backward, optimizer, descent or
clustering path shows up as a digest mismatch; two seeds catch a change that
one happens to leave intact.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ttalab.adaptation import STRATEGIES, AdaptationConfig
from ttalab.benchmark import (CORRUPTION_KINDS, Corruption, StreamProtocol,
                              generate_dataset, stream_eval, train_source)
from ttalab.cli import main
from ttalab.clustering import run_minibatch_kmeans
from ttalab.network import (BNMode, load_checkpoint, penultimate_features,
                            save_checkpoint)

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
SEEDS = (0, 1)
SEVERITY = 5


def data_seed(seed):
    """The benchmark's stream data seed for a workload seed."""
    return 1000 + seed


def heldout_data_seed(seed):
    """The benchmark's held-out k-means stream seed for a workload seed."""
    return 2000 + seed


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def nets(source_net):
    """Workload seed -> the source network the benchmark trains for it."""
    return {seed: source_net if seed == 0 else
            train_source(generate_dataset(3, 3000, seed), epochs=20, seed=seed)
            for seed in SEEDS}


@pytest.fixture(scope="module")
def checkpoints(nets, tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    paths = {seed: root / f"source{seed}.json" for seed in SEEDS}
    for seed, path in paths.items():
        save_checkpoint(nets[seed], path)
    return paths


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_source_checkpoint_bytes(goldens, checkpoints):
    # train-source's seed-0 repetition trains seeds 0, 1 and 2
    for seed, path in checkpoints.items():
        assert sha256_file(path) == \
            goldens["train-source"]["0"][f"source.json/seed{seed}"], seed


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grid_cell(goldens, nets, strategy):
    for seed, net in nets.items():
        dataset = generate_dataset(3, 3000, data_seed(seed))
        for kind in CORRUPTION_KINDS:
            report = stream_eval(net, dataset, Corruption(kind, SEVERITY),
                                 StreamProtocol(batch_size=100, seed=0),
                                 AdaptationConfig(strategy=strategy))
            assert f"{report.accuracy!r} {report.params_digest}" == \
                goldens["grid-large"][str(seed)][f"{strategy}/{kind}/0"], \
                (seed, kind)


def test_small_batch_sweep_csv(goldens, checkpoints, tmp_path):
    for seed, path in checkpoints.items():
        out = tmp_path / str(seed)
        code = main(["sweep-batch-size", "--checkpoint", str(path),
                     "--batch-sizes", "2", "10", "--seeds", "2",
                     "--test-m", "400", "--data-seed", str(data_seed(seed)),
                     "--corruption", "gaussian_noise",
                     "--severity", str(SEVERITY), "--out", str(out)])
        assert code == 0
        assert sha256_file(out / "sweep_batch_size.csv") == \
            goldens["sweep-small"][str(seed)]["sweep_batch_size.csv"], seed


def test_lemma_summary_csv(goldens, tmp_path):
    for seed in SEEDS:
        out = tmp_path / str(seed)
        assert main(["lemma-check", "--seed", str(seed), "--steps", "1000",
                     "--random-starts", "200", "--out", str(out)]) == 0
        assert sha256_file(out / "lemma_summary.csv") == \
            goldens["lemma-kmeans"][str(seed)]["lemma_summary.csv"], seed


def test_kmeans_centers(goldens, checkpoints):
    for seed, path in checkpoints.items():
        net = load_checkpoint(path)
        inputs = generate_dataset(3, 30000, heldout_data_seed(seed)).inputs
        features = (penultimate_features(net, inputs[i:i + 100],
                                         BNMode.EVAL_STATS)
                    for i in range(0, len(inputs), 100))
        centers, _ = run_minibatch_kmeans(features, 3)
        digest = hashlib.sha256(
            np.asarray(centers, dtype=np.float64).tobytes()).hexdigest()
        assert digest == goldens["lemma-kmeans"][str(seed)]["kmeans_centers"], \
            seed
