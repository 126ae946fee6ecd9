"""Checks of the benchmark itself: exact trace counts, goldens, the metric
list in BENCHMARK.json, and refusal to run without the program's sources.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs twice traced (about two minutes in all on 2 cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads as W  # noqa: E402
from ttalab.adaptation import default_q  # noqa: E402

SEED = 0
EXACT_SUFFIXES = (".calls", ".rows", ".bytes")


def traced_run(workload, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module", params=sorted(W.WORKLOADS))
def two_runs(request):
    return request.param, traced_run(request.param), traced_run(request.param)


def exact_names():
    return [name for name, _, _ in metrics.per_layer_definitions()
            if name.endswith(EXACT_SUFFIXES) or name in metrics.RATIOS]


def test_counts_repeat_and_outputs_match_goldens(two_runs):
    workload, (first, a), (second, b) = two_runs
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert {n: a[n] for n in exact_names()} == {n: b[n] for n in exact_names()}
    expected = {n for n, _, _ in metrics.per_layer_definitions()}
    assert set(a) == expected


def sweep_expected():
    batches = steps = 0
    for n in W.SWEEP_BATCH_SIZES:
        b = W.SWEEP_TEST_M // n
        batches += 4 * b
        # tent and ttc without GA step every batch; tent+GA and ttc every Q
        steps += 2 * b + 2 * (b // default_q(n))
    batches *= W.SWEEP_SEEDS
    steps *= W.SWEEP_SEEDS
    streams = 4 * len(W.SWEEP_BATCH_SIZES) * W.SWEEP_SEEDS
    return {
        "adaptation.Adapter.adapt_batch.calls": batches,
        "adaptation.softmax_per_batch": 3.0,
        "adaptation.forward_rows_per_sample": 1.5,  # RLA doubles 2 of 4
        "adaptation.backward_per_batch": 1.0,
        "adaptation.step_ratio": steps / batches,
        "adaptation.optimizer_step.calls": steps,
        "numeric.softmax.calls": 3 * batches,
        "network.forward.rows": 6 * W.SWEEP_TEST_M * W.SWEEP_SEEDS
        * len(W.SWEEP_BATCH_SIZES),
        "benchmark.stream_eval.calls": streams,
        "benchmark.params_digest.calls": streams,
        "benchmark.apply_corruption.calls": streams,
        "cli.main.sweep-batch-size.calls": 1,
    }


def grid_expected():
    streams = 5 * 5 * len(W.GRID_STREAM_SEEDS)
    return {
        "benchmark.stream_eval.calls": streams,
        "benchmark.params_digest.calls": streams,
        "benchmark.apply_corruption.calls": streams,
        "adaptation.Adapter.adapt_batch.calls":
            streams * W.TEST_M // W.GRID_BATCH_SIZE,
        # source, norm, tent, tent-filtered: one forward; ttc: two (RLA)
        "adaptation.forward_rows_per_sample": 6 / 5,
    }


def train_expected():
    per_epoch = -(-W.TRAIN_M // 64)  # train_source's batch size
    steps = W.TRAININGS * W.TRAIN_EPOCHS * per_epoch
    return {
        "cli.main.train-source.calls": W.TRAININGS,
        "benchmark.train_source.calls": W.TRAININGS,
        "network.save_checkpoint.calls": W.TRAININGS,
        "network.backward_all.calls": steps,
        "adaptation.optimizer_step.calls": steps,
        # training batches plus the train-accuracy evaluation
        "network.forward.rows": W.TRAININGS * W.TRAIN_M * (W.TRAIN_EPOCHS + 1),
        "adaptation.step_ratio": 0.0,
    }


def lemma_expected():
    batches = W.KMEANS_M // W.KMEANS_BATCH
    return {
        "cli.main.lemma-check.calls": 1,
        "numeric.simulate_entropy_descent.calls": 3 + W.LEMMA_RANDOM_STARTS,
        "numeric.entropy_grad_logits.calls": W.LEMMA_STEPS,
        "numeric.softmax.calls": 2 * W.LEMMA_STEPS,
        "clustering.run_minibatch_kmeans.calls": 1,
        "clustering.assign_step.calls": batches,
        "clustering.update_step.calls": batches,
        "clustering.kmeans_objective.calls": batches,
        "network.penultimate_features.calls": batches,
        "network.forward.rows": W.KMEANS_M,
    }


EXPECTED = {"sweep-small": sweep_expected, "grid-large": grid_expected,
            "train-source": train_expected, "lemma-kmeans": lemma_expected}


def test_counts_equal_what_the_code_implies(two_runs):
    workload, (_, values), _ = two_runs
    expected = EXPECTED[workload]()
    assert {k: values[k] for k in expected} == pytest.approx(expected, rel=1e-12)


def test_benchmark_json_matches_metric_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == metrics.benchmark_document()


def test_goldens_cover_every_workload():
    goldens = json.loads((HERE / "goldens.json").read_text())
    assert set(goldens) == set(W.WORKLOADS)
    for by_seed in goldens.values():
        assert {"0", "1"} <= set(by_seed)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
