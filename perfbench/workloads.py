"""The four benchmark workloads.

Each workload is a closed loop: one caller runs one operation after another,
one stream at a time, in this process. ``setup`` builds the inputs from the
workload seed (and is what ``setup_s`` times). One repetition of the timed
part is the list that ``chunks`` returns: ``(label, fn)`` pairs, each timed
on its own, where ``fn()`` returns one ``(key, digest)`` per operation. An
operation is a stream, a training or a CLI command. A digest is a string
that must equal the golden recorded from the seed commit; an operation that
raised or exited non-zero yields a ``Failure`` instead.

Every call goes through module attributes (``cli.main``, ``benchmark.
stream_eval``), never through names bound at import time, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import numpy as np

from ttalab import adaptation, benchmark, cli, clustering, network

K = 3
TRAIN_M = 3000
TRAIN_EPOCHS = 20
TEST_M = 3000
SEVERITY = 5

# sweep-small: the small-batch regime, in-process CLI.
SWEEP_BATCH_SIZES = (2, 10)
SWEEP_SEEDS = 2
SWEEP_TEST_M = 400

# grid-large: all strategies x corruptions x stream seeds at N=100.
GRID_BATCH_SIZE = 100
GRID_STREAM_SEEDS = range(5)

# train-source: trainings per repetition.
TRAININGS = 3

# lemma-kmeans: held-out stream whose penultimate features k-means clusters.
KMEANS_M = 30_000
KMEANS_BATCH = 100
# lemma-check with its default k-list (2, 10, 100) and random-steps (50), but
# a fifth of the default steps and random starts: a repetition of about a
# second gives a steady median within one run.
LEMMA_K_STEPS = 1000
LEMMA_RANDOM_STARTS = 200
LEMMA_STEPS = 3 * LEMMA_K_STEPS + LEMMA_RANDOM_STARTS * 50


def stream_data_seed(seed):
    return 1000 + seed


def heldout_data_seed(seed):
    return 2000 + seed


class Failure(str):
    """Output of an operation that raised or exited non-zero."""


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def run_cli(argv):
    """Run one CLI command in-process with its console output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def guarded(op):
    """Call op(); turn an exception into a Failure so the run continues."""
    try:
        return op()
    except Exception as e:  # every failure counts in error_rate
        return Failure(f"{type(e).__name__}: {e}")


def train_checkpoint(seed, out):
    """Source checkpoint through the library path users call."""
    out.mkdir(parents=True, exist_ok=True)
    dataset = benchmark.generate_dataset(K, TRAIN_M, seed)
    net = benchmark.train_source(dataset, epochs=TRAIN_EPOCHS, seed=seed)
    path = out / "source.json"
    network.save_checkpoint(net, path)
    return path


class SweepSmall:
    name = "sweep-small"

    def setup(self, seed, workdir):
        out = workdir / "ckpt"
        out.mkdir(parents=True)
        run_cli(["train-source", "--out", str(out), "--seed", str(seed),
                 "--k", str(K), "--m", str(TRAIN_M),
                 "--epochs", str(TRAIN_EPOCHS)])
        state = {"seed": seed, "checkpoint": out / "source.json",
                 "out": workdir / "sweep"}
        run_cli(self._argv(state, test_m=40, seeds=1))  # warm-up
        return state

    def _argv(self, state, test_m=SWEEP_TEST_M, seeds=SWEEP_SEEDS):
        return ["sweep-batch-size", "--checkpoint", str(state["checkpoint"]),
                "--batch-sizes", *map(str, SWEEP_BATCH_SIZES),
                "--seeds", str(seeds), "--test-m", str(test_m),
                "--data-seed", str(stream_data_seed(state["seed"])),
                "--corruption", "gaussian_noise",
                "--severity", str(SEVERITY), "--out", str(state["out"])]

    def work_units(self):
        """Test samples adapted per repetition (4 tent/ttc variants)."""
        return 4 * len(SWEEP_BATCH_SIZES) * SWEEP_SEEDS * SWEEP_TEST_M

    def chunks(self, state):
        def op():
            run_cli(self._argv(state))
            return sha256_bytes(
                (state["out"] / "sweep_batch_size.csv").read_bytes())
        return [("sweep", lambda: [("sweep_batch_size.csv", guarded(op))])]

    def invariants(self, state):
        rows = (state["out"] / "sweep_batch_size.csv").read_text().splitlines()
        errors = []
        if len(rows) != 1 + 4 * len(SWEEP_BATCH_SIZES):
            errors.append(f"sweep CSV has {len(rows)} lines")
        for row in rows[1:]:
            mean = float(row.split(",")[3])
            if not 0.0 <= mean <= 1.0:
                errors.append(f"sweep accuracy out of range: {row}")
        return errors


class GridLarge:
    name = "grid-large"

    def setup(self, seed, workdir):
        path = train_checkpoint(seed, workdir / "ckpt")
        net = network.load_checkpoint(path)
        dataset = benchmark.generate_dataset(K, TEST_M, stream_data_seed(seed))
        state = {"net": net, "dataset": dataset,
                 "source_digest": benchmark.params_digest(net)}
        warm = benchmark.SignalDataset(dataset.inputs[:200],
                                       dataset.labels[:200], dataset.seed)
        for strategy in adaptation.STRATEGIES:  # warm-up
            benchmark.stream_eval(
                net, warm, benchmark.Corruption("gaussian_noise", SEVERITY),
                benchmark.StreamProtocol(batch_size=GRID_BATCH_SIZE, seed=0),
                adaptation.AdaptationConfig(strategy=strategy))
        return state

    def work_units(self):
        cells = (len(adaptation.STRATEGIES) * len(benchmark.CORRUPTION_KINDS)
                 * len(GRID_STREAM_SEEDS))
        return cells * TEST_M

    def _cell(self, state, strategy, kind, seed):
        report = benchmark.stream_eval(
            state["net"], state["dataset"],
            benchmark.Corruption(kind, SEVERITY),
            benchmark.StreamProtocol(batch_size=GRID_BATCH_SIZE, seed=seed),
            adaptation.AdaptationConfig(strategy=strategy))
        return f"{report.accuracy!r} {report.params_digest}"

    def _strategy(self, state, strategy):
        outputs = [(f"{strategy}/{kind}/{s}", guarded(
                    lambda: self._cell(state, strategy, kind, s)))
                   for kind in benchmark.CORRUPTION_KINDS
                   for s in GRID_STREAM_SEEDS]
        state["last"][strategy] = outputs
        return outputs

    def chunks(self, state):
        """One chunk per strategy, 25 streams each."""
        state["last"] = {}
        return [(strategy, lambda strategy=strategy:
                 self._strategy(state, strategy))
                for strategy in adaptation.STRATEGIES]

    def invariants(self, state):
        errors = []
        for key, value in (kv for outputs in state["last"].values()
                           for kv in outputs):
            accuracy, digest = value.split()
            if not 0.0 <= float(accuracy) <= 1.0:
                errors.append(f"{key}: accuracy {accuracy}")
            # source and norm never update parameters
            if key.split("/")[0] in ("source", "norm") \
                    and digest != state["source_digest"]:
                errors.append(f"{key}: parameters changed")
        return errors


class TrainSource:
    name = "train-source"

    def setup(self, seed, workdir):
        state = {"seeds": [TRAININGS * seed + i for i in range(TRAININGS)],
                 "out": workdir / "train"}
        run_cli(["train-source", "--out", str(workdir / "warm"),  # warm-up
                 "--seed", str(seed), "--k", str(K), "--m", "64",
                 "--epochs", "1"])
        return state

    def work_units(self):
        """Training samples x epochs per repetition."""
        return TRAININGS * TRAIN_M * TRAIN_EPOCHS

    def _out(self, state, train_seed):
        return state["out"] / f"seed{train_seed}"

    def _train(self, state, train_seed):
        out = self._out(state, train_seed)
        run_cli(["train-source", "--out", str(out), "--seed", str(train_seed),
                 "--k", str(K), "--m", str(TRAIN_M),
                 "--epochs", str(TRAIN_EPOCHS)])
        return sha256_bytes((out / "source.json").read_bytes())

    def chunks(self, state):
        """One chunk per training."""
        return [(f"seed{t}", lambda t=t: [(f"source.json/seed{t}", guarded(
                 lambda: self._train(state, t)))])
                for t in state["seeds"]]

    def invariants(self, state):
        errors = []
        for train_seed in state["seeds"]:
            out = self._out(state, train_seed)
            log = (out / "train_log.txt").read_text()
            accuracy = float(log.split("train_accuracy=")[1])
            if accuracy < 2.0 / K:  # well above chance, as sources train
                errors.append(f"seed {train_seed}: train accuracy {accuracy}")
            network.load_checkpoint(out / "source.json", expect_k=K)
        return errors


class LemmaKmeans:
    name = "lemma-kmeans"

    def setup(self, seed, workdir):
        path = train_checkpoint(seed, workdir / "ckpt")
        state = {"seed": seed, "net": network.load_checkpoint(path),
                 "heldout": benchmark.generate_dataset(
                     K, KMEANS_M, heldout_data_seed(seed)).inputs,
                 "out": workdir / "lemma"}
        run_cli(["lemma-check", "--out", str(workdir / "warm"),  # warm-up
                 "--seed", str(seed), "--steps", "10",
                 "--random-starts", "3", "--random-steps", "5"])
        self._kmeans(state, state["heldout"][:10 * KMEANS_BATCH])
        return state

    def work_units(self):
        """Descent steps plus clustered feature rows per repetition."""
        return LEMMA_STEPS + KMEANS_M

    def _kmeans(self, state, inputs):
        net = state["net"]
        features = (network.penultimate_features(
            net, inputs[i:i + KMEANS_BATCH], network.BNMode.EVAL_STATS)
            for i in range(0, len(inputs), KMEANS_BATCH))
        centers, trace = clustering.run_minibatch_kmeans(
            features, K, mode=clustering.MINIBATCH_RUNNING)
        return np.asarray(centers, dtype=np.float64), trace

    def chunks(self, state):
        def lemma():
            run_cli(["lemma-check", "--seed", str(state["seed"]),
                     "--steps", str(LEMMA_K_STEPS),
                     "--random-starts", str(LEMMA_RANDOM_STARTS),
                     "--out", str(state["out"])])
            return sha256_bytes(
                (state["out"] / "lemma_summary.csv").read_bytes())

        def kmeans():
            centers, trace = self._kmeans(state, state["heldout"])
            state["kmeans"] = (centers, trace)
            return sha256_bytes(centers.tobytes())
        return [("lemma-check",
                 lambda: [("lemma_summary.csv", guarded(lemma))]),
                ("kmeans", lambda: [("kmeans_centers", guarded(kmeans))])]

    def invariants(self, state):
        errors = []
        summary = (state["out"] / "lemma_summary.csv").read_text()
        if not summary.rstrip().endswith(",pass") or ",false" in summary:
            errors.append("lemma check reported a monotonicity violation")
        centers, trace = state["kmeans"]
        if centers.shape != (K, state["net"].feature_dim):
            errors.append(f"k-means centers have shape {centers.shape}")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(trace))):
            errors.append("k-means produced non-finite values")
        return errors


WORKLOADS = {w.name: w for w in (SweepSmall(), GridLarge(), TrainSource(),
                                 LemmaKmeans())}
