"""Bit-preservation check against the benchmark's recorded seed-0 goldens.

``perfbench/goldens.json`` holds the outputs of the benchmark workloads as
recorded from the reference commit. The ``source_net`` fixture trains the
same checkpoint as seed 0 of those workloads, so the checkpoint bytes, a
grid-large column and the small-batch sweep CSV can be reproduced here. Any
change to a float op on the forward, backward or optimizer path shows up as
a digest mismatch.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ttalab.adaptation import STRATEGIES, AdaptationConfig
from ttalab.benchmark import (Corruption, StreamProtocol, generate_dataset,
                              stream_eval)
from ttalab.cli import main
from ttalab.network import save_checkpoint

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"
# the benchmark's seed-0 stream data seed and severity
DATA_SEED = 1000
SEVERITY = 5


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def checkpoint(source_net, tmp_path_factory):
    path = tmp_path_factory.mktemp("goldens") / "source.json"
    save_checkpoint(source_net, path)
    return path


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_source_checkpoint_bytes(goldens, checkpoint):
    assert sha256_file(checkpoint) == \
        goldens["train-source"]["0"]["source.json/seed0"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_grid_cell(goldens, source_net, strategy):
    report = stream_eval(source_net, generate_dataset(3, 3000, DATA_SEED),
                         Corruption("gaussian_noise", SEVERITY),
                         StreamProtocol(batch_size=100, seed=0),
                         AdaptationConfig(strategy=strategy))
    assert f"{report.accuracy!r} {report.params_digest}" == \
        goldens["grid-large"]["0"][f"{strategy}/gaussian_noise/0"]


def test_small_batch_sweep_csv(goldens, checkpoint, tmp_path):
    code = main(["sweep-batch-size", "--checkpoint", str(checkpoint),
                 "--batch-sizes", "2", "10", "--seeds", "2",
                 "--test-m", "400", "--data-seed", str(DATA_SEED),
                 "--corruption", "gaussian_noise",
                 "--severity", str(SEVERITY), "--out", str(tmp_path)])
    assert code == 0
    assert sha256_file(tmp_path / "sweep_batch_size.csv") == \
        goldens["sweep-small"]["0"]["sweep_batch_size.csv"]
