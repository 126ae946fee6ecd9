import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttalab
from ttalab import benchmark, cli
from ttalab.adaptation import STRATEGIES, AdaptationConfig
from ttalab.benchmark import generate_dataset, evaluate_accuracy
from ttalab.cli import main
from ttalab.network import load_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    code = main(["train-source", "--out", str(root), "--seed", "0",
                 "--epochs", "10", "--m", "600"])
    assert code == 0
    return root


def run_adapt(workdir, out, *extra):
    args = ["adapt", "--checkpoint", str(workdir / "source.json"),
            "--out", str(out), "--test-m", "400", "--batch-size", "50",
            "--data-seed", "777"]
    args.extend(extra)
    return main(args)


class TestTrainSource:
    def test_writes_checkpoint_and_log(self, workdir):
        assert (workdir / "source.json").exists()
        assert (workdir / "train_log.txt").exists()
        net = load_checkpoint(workdir / "source.json")
        assert net.k == 3

    def test_same_seed_gives_identical_checkpoints(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["train-source", "--out", str(tmp_path / sub),
                         "--seed", "7", "--epochs", "3", "--m", "300"])
            assert code == 0
        a = (tmp_path / "a" / "source.json").read_bytes()
        b = (tmp_path / "b" / "source.json").read_bytes()
        assert a == b

    def test_zero_epochs_warns_but_writes(self, tmp_path, capsys):
        code = main(["train-source", "--out", str(tmp_path), "--epochs", "0",
                     "--m", "300"])
        assert code == 0
        assert "untrained" in capsys.readouterr().err
        assert (tmp_path / "source.json").exists()

    def test_divergence_exits_two(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(["train-source", "--out", str(tmp_path),
                         "--epochs", "20", "--m", "300", "--lr", "1e306"])
        assert code == 2
        assert "training failed" in capsys.readouterr().err


class TestAdapt:
    def test_source_on_clean_stream_matches_checkpoint_accuracy(
            self, workdir, tmp_path):
        code = run_adapt(workdir, tmp_path, "--strategy", "source",
                         "--corruption", "none")
        assert code == 0
        report = json.loads(
            (tmp_path / "report_source_none_seed0.json").read_text())
        net = load_checkpoint(workdir / "source.json")
        expected = evaluate_accuracy(net, generate_dataset(3, 400, 777))
        assert report["accuracy"] == expected

    def test_degenerate_ttc_equals_tent(self, workdir, tmp_path):
        assert run_adapt(workdir, tmp_path / "ttc", "--strategy", "ttc",
                         "--no-rla", "--no-wa", "--tau", "0", "--q", "1") == 0
        assert run_adapt(workdir, tmp_path / "tent", "--strategy", "tent") == 0
        ttc = json.loads((tmp_path / "ttc" /
                          "report_ttc_gaussian_noise5_seed0.json").read_text())
        tent = json.loads((tmp_path / "tent" /
                           "report_tent_gaussian_noise5_seed0.json").read_text())
        assert ttc["accuracy"] == tent["accuracy"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tail_batch_of_one_joins_previous_batch(self, workdir, tmp_path,
                                                    strategy):
        assert run_adapt(workdir, tmp_path, "--strategy", strategy,
                         "--test-m", "301", "--batch-size", "100") == 0
        report = json.loads((tmp_path / f"report_{strategy}_gaussian_noise5"
                             "_seed0.json").read_text())
        assert report["n_test"] == 301
        assert len(report["per_batch_accuracy"]) == 3

    def test_no_adaptation_flags_give_the_default_config(self, workdir,
                                                         tmp_path):
        assert run_adapt(workdir, tmp_path) == 0
        report = json.loads(
            (tmp_path / "report_ttc_gaussian_noise5_seed0.json").read_text())
        assert report["config"] == AdaptationConfig().to_json()

    def test_missing_checkpoint_exits_three(self, tmp_path, capsys):
        code = main(["adapt", "--checkpoint", str(tmp_path / "nope.json")])
        assert code == 3
        assert "checkpoint" in capsys.readouterr().err

    def test_writes_report_and_batch_csv(self, workdir, tmp_path):
        assert run_adapt(workdir, tmp_path, "--strategy", "norm",
                         "--corruption", "contrast", "--severity", "3") == 0
        stem = "report_norm_contrast3_seed0"
        assert (tmp_path / f"{stem}.json").exists()
        csv = (tmp_path / f"{stem}_batches.csv").read_text()
        assert csv.startswith("batch,accuracy\n")
        assert len(csv.strip().split("\n")) == 1 + 400 // 50

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        for sub in ("x", "y"):
            assert run_adapt(workdir, tmp_path / sub, "--strategy", "ttc",
                             "--seed", "3") == 0
        name = "report_ttc_gaussian_noise5_seed3.json"
        assert ((tmp_path / "x" / name).read_bytes()
                == (tmp_path / "y" / name).read_bytes())
        csv = "report_ttc_gaussian_noise5_seed3_batches.csv"
        assert ((tmp_path / "x" / csv).read_bytes()
                == (tmp_path / "y" / csv).read_bytes())

    def test_full_grid_emits_125_reports(self, workdir, tmp_path):
        strategies = ["source", "norm", "tent", "tent-filtered", "ttc"]
        corruptions = ["gaussian_noise", "impulse_noise", "smooth_blur",
                       "contrast", "brightness"]
        for strategy in strategies:
            for corruption in corruptions:
                for seed in range(5):
                    args = ["adapt", "--checkpoint",
                            str(workdir / "source.json"),
                            "--out", str(tmp_path), "--test-m", "200",
                            "--batch-size", "50", "--strategy", strategy,
                            "--corruption", corruption, "--seed", str(seed)]
                    assert main(args) == 0
        reports = list(tmp_path.glob("report_*.json"))
        assert len(reports) == len(strategies) * len(corruptions) * 5


class TestSweepBatchSize:
    def test_csv_has_one_row_per_cell(self, workdir, tmp_path):
        code = main(["sweep-batch-size",
                     "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--batch-sizes", "50", "100",
                     "--seeds", "2", "--test-m", "400"])
        assert code == 0
        lines = (tmp_path / "sweep_batch_size.csv").read_text().strip().split("\n")
        assert lines[0] == "strategy,batch_size,ga,accuracy_mean,accuracy_std"
        assert len(lines) == 1 + 2 * 2 * 2  # strategies x ga x sizes
        cells = {tuple(l.split(",")[:3]) for l in lines[1:]}
        assert ("tent", "50", "false") in cells
        assert ("ttc", "100", "true") in cells

    def test_tiny_batch_rejected(self, workdir, tmp_path, capsys):
        code = main(["sweep-batch-size",
                     "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--batch-sizes", "1", "10"])
        assert code == 3
        assert "batch" in capsys.readouterr().err


class TestLemmaCheck:
    def test_trajectories_written_and_monotone(self, tmp_path):
        code = main(["lemma-check", "--out", str(tmp_path), "--k-list", "2",
                     "5", "--steps", "300", "--random-starts", "50",
                     "--random-steps", "20"])
        assert code == 0
        for k in (2, 5):
            text = (tmp_path / f"lemma_k{k}.csv").read_text()
            header = text.split("\n", 1)[0]
            assert header == "step," + ",".join(f"p_{i+1}" for i in range(k))
            rows = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
            assert rows.shape == (301, k + 1)
            assert np.all(np.diff(rows[:, 1]) >= 0)
        assert (tmp_path / "lemma_summary.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["lemma-check", "--out", str(tmp_path / sub),
                         "--k-list", "3", "--steps", "100",
                         "--random-starts", "10", "--random-steps", "10"]) == 0
        assert ((tmp_path / "a" / "lemma_k3.csv").read_bytes()
                == (tmp_path / "b" / "lemma_k3.csv").read_bytes())

    def test_property_violation_exits_one(self, tmp_path, monkeypatch, capsys):
        # wire check: a broken trajectory must surface as exit code 1
        import ttalab.cli as cli

        def descending(p0, lr, steps):
            p0 = np.asarray(p0, dtype=float)
            traj = np.repeat(p0[None], steps + 1, axis=0)  # one start or a stack
            traj[1:, ..., 0] -= 1e-3  # top class loses mass
            traj[1:, ..., 1] += 1e-3
            return traj

        monkeypatch.setattr(cli, "simulate_entropy_descent", descending)
        code = main(["lemma-check", "--out", str(tmp_path), "--k-list", "2",
                     "--steps", "5", "--random-starts", "2",
                     "--random-steps", "2"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", [0, 1, 3])
    def test_violations_count_broken_rows_of_a_stack(self, tmp_path,
                                                     monkeypatch, broken):
        real = cli.simulate_entropy_descent
        shapes = []

        def breaking(p0, lr, steps):
            traj = real(p0, lr, steps)
            if traj.ndim == 3:
                shapes.append(traj.shape)
                rows = np.arange(0, 3 * broken, 3)
                top = np.argmax(p0[rows], axis=1)
                traj[-1, rows, top] = 0.0  # each broken row's top class drops
            return traj

        monkeypatch.setattr(cli, "simulate_entropy_descent", breaking)
        code = main(["lemma-check", "--out", str(tmp_path), "--k-list", "3",
                     "--steps", "5", "--random-starts", "10",
                     "--random-steps", "5"])
        assert shapes == [(6, 10, 3)]
        assert code == (1 if broken else 0)
        last = (tmp_path / "lemma_summary.csv").read_text().splitlines()[-1]
        assert last == (f"random_starts=10,violations={broken},"
                        f"{'fail' if broken else 'pass'}")

    def test_summary_identical_under_one_row_budget(self, tmp_path,
                                                    monkeypatch):
        k_list, starts, seed = (2, 5, 9), 31, 4
        expected = {k: [] for k in k_list}  # draws in index order, by K
        rng = np.random.default_rng(seed)
        for i in range(starts):
            k = k_list[i % len(k_list)]
            expected[k].append(rng.dirichlet(np.ones(k)))
        real = cli.simulate_entropy_descent

        def run(name):
            seen = {k: [] for k in k_list}
            calls = []

            def recording(p0, lr, steps):
                if np.ndim(p0) == 2:
                    calls.append(len(p0))
                    seen[p0.shape[1]].extend(p0)
                return real(p0, lr, steps)

            monkeypatch.setattr(cli, "simulate_entropy_descent", recording)
            assert main(["lemma-check", "--out", str(tmp_path / name),
                         "--k-list", *map(str, k_list), "--steps", "50",
                         "--random-starts", str(starts),
                         "--random-steps", "20", "--seed", str(seed)]) == 0
            for k in k_list:
                np.testing.assert_array_equal(seen[k], expected[k])
            return calls, (tmp_path / name / "lemma_summary.csv").read_bytes()

        calls, summary = run("default")
        assert calls == [11, 10, 10]  # one stack per K
        monkeypatch.setattr(cli, "LEMMA_STACK_BYTES", 1)
        calls, one_row = run("one-row")
        assert calls == [1] * starts
        assert one_row == summary


class TestDensity:
    def test_same_strategy_twice_overlaps_fully(self, workdir, tmp_path):
        code = main(["density", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--strategy-a", "ttc",
                     "--strategy-b", "ttc", "--test-m", "400",
                     "--batch-size", "50", "--bins", "32"])
        assert code == 0
        lines = (tmp_path / "density_overlap.csv").read_text().strip().split("\n")
        assert lines[0] == "channel,a_vs_reference,b_vs_reference,a_vs_b"
        for line in lines[1:]:
            a_vs_b = float(line.split(",")[3])
            assert abs(a_vs_b - 1.0) < 1e-9
        hist = (tmp_path / "density_hist.csv").read_text()
        assert hist.startswith("channel,bin_lo,bin_hi,reference,a,b\n")

    def test_histogram_csv_rows_cover_channels_and_bins(self, workdir,
                                                        tmp_path):
        code = main(["density", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--strategy-a", "norm",
                     "--strategy-b", "source", "--test-m", "400",
                     "--batch-size", "50", "--bins", "16"])
        assert code == 0
        lines = (tmp_path / "density_hist.csv").read_text().strip().split("\n")
        net = load_checkpoint(workdir / "source.json")
        assert len(lines) == 1 + net.feature_dim * 16

    def test_stream_is_corrupted_once_per_run(self, workdir, tmp_path,
                                              monkeypatch):
        calls = []
        corrupt = benchmark.apply_corruption

        def counting(*args):
            calls.append(args)
            return corrupt(*args)

        for module in (benchmark, cli):
            monkeypatch.setattr(module, "apply_corruption", counting)
        code = main(["density", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--test-m", "200"])
        assert code == 0
        assert len(calls) == 1
        calls.clear()
        benchmark.stream_eval(load_checkpoint(workdir / "source.json"),
                              generate_dataset(3, 200, 777),
                              benchmark.Corruption("gaussian_noise", 5),
                              benchmark.StreamProtocol(batch_size=50),
                              AdaptationConfig())
        assert len(calls) == 1

    def test_tail_batch_of_one_completes(self, workdir, tmp_path):
        code = main(["density", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--test-m", "301",
                     "--batch-size", "100", "--bins", "8"])
        assert code == 0


class TestDensityBytes:
    """density's two CSVs and its stdout, pinned by sha256 on the seed-0
    checkpoint, for one gradient pair and one filtered-against-norm pair."""

    @pytest.mark.parametrize("argv, digests", [
        (["--strategy-a", "ttc", "--strategy-b", "tent", "--test-m", "400",
          "--batch-size", "10", "--bins", "16"],
         ("764a94fc12e616da20cc4ca1f2b97107c07ccb8b2ce3e1ee9761cd760ea36cfe",
          "156cfd8c310e7a5ae1e488e5cb8f2b03ae411e3d015f86845e4e65a5ff1ff1e4",
          "57792351738f6e97ddd1ccd1597077d521499f381b9744ce607ba2bf98f290b1")),
        (["--strategy-a", "tent-filtered", "--strategy-b", "norm",
          "--corruption", "contrast", "--severity", "3", "--test-m", "400",
          "--batch-size", "50", "--bins", "16"],
         ("0f2df34fe4828d035a9305554210235023d92140407b04d80384e36a848b2fe4",
          "c42058f2627dd3b91a2f567722396cae7ff81659e91d335f6978116b9099bf7a",
          "a137bb67f7b2b4549afa8431da8528498acc88e5c9e664ce5a3dab8f6f12cd6e")),
    ], ids=["ttc-tent", "tent-filtered-norm-contrast"])
    def test_outputs_are_pinned(self, workdir, tmp_path, capsys, argv,
                                digests):
        capsys.readouterr()
        assert main(["density", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), *argv]) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        got = tuple(hashlib.sha256(data).hexdigest() for data in (
            (tmp_path / "density_hist.csv").read_bytes(),
            (tmp_path / "density_overlap.csv").read_bytes(), stdout))
        assert got == digests


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's ttalab."""
    src = str(Path(ttalab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self, tmp_path):
        proc = run_python("-m", "ttalab.cli", "lemma-check", "--steps", "10",
                          "--random-starts", "2", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "lemma_summary.csv").exists()

    def test_import_loads_no_scipy(self):
        # a stray scipy import would add its load time and memory to the
        # start-up of every command
        proc = run_python("-c", "import sys, ttalab, ttalab.cli; print("
                          "sorted(m for m in sys.modules"
                          " if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestArgumentValidation:
    def test_bad_severity_exits_three(self, workdir, tmp_path, capsys):
        code = main(["adapt", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--severity", "6"])
        assert code == 3
        assert "severity" in capsys.readouterr().err

    def test_unknown_strategy_exits_three(self, workdir, tmp_path, capsys):
        code = main(["adapt", "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--strategy", "cotta"])
        assert code == 3
        assert "strategy" in capsys.readouterr().err

    def test_unknown_command_exits_three(self):
        assert main(["fine-tune"]) == 3


# argv, exit code, a word the error message must name
BAD_ARGUMENTS = [
    (["adapt", "--lr", "nan"], 3, "lr"),
    (["adapt", "--lr", "inf"], 3, "lr"),
    (["adapt", "--tau", "nan"], 3, "tau"),
    (["adapt", "--tau", "inf"], 3, "tau"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "nan"], 3,
     "--filter-threshold: nan"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "0"], 3,
     "--filter-threshold: 0.0"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "-1"], 3,
     "--filter-threshold: -1.0"),
    (["adapt", "--q", "0"], 3, "--q: 0"),
    (["adapt", "--tau", "-1"], 3, "--tau: -1.0"),
    (["density", "--tau", "-1"], 3, "--tau: -1.0"),
    (["sweep-batch-size", "--tau", "-1"], 3, "--tau: -1.0"),
    (["train-source", "--hidden", "0"], 3, "--hidden: 0"),
    (["lemma-check", "--steps", "-1"], 3, "--steps: -1"),
    (["train-source", "--epochs", "-1"], 3, "--epochs: -1"),
    (["density", "--bins", "0"], 3, "--bins: 0"),
    (["sweep-batch-size", "--seeds", "0"], 3, "--seeds"),
    (["sweep-batch-size", "--batch-size", "7"], 3, "--batch-size"),
    (["lemma-check", "--k-list", "0"], 3, "--k-list"),
    (["lemma-check", "--k-list", "1"], 3, "--k-list"),
    (["lemma-check", "--k-list", "3", "3"], 3, "--k-list: 3 repeated"),
    (["sweep-batch-size", "--batch-sizes", "10", "10"], 3,
     "--batch-sizes: 10 repeated"),
    (["lemma-check", "--random-starts", "-1"], 3, "--random-starts"),
    (["lemma-check", "--random-steps", "-1"], 3, "--random-steps"),
    (["adapt", "--test-m", "0"], 3, "--test-m: 0"),
    (["adapt", "--batch-size", "0"], 3, "--batch-size: 0"),
    (["density", "--test-m", "0"], 3, "--test-m: 0"),
    (["density", "--batch-size", "0"], 3, "--batch-size: 0"),
    (["sweep-batch-size", "--test-m", "0"], 3, "--test-m: 0"),
    (["adapt", "--batch-size", "1"], 3, "--batch-size: 1"),
    (["adapt", "--strategy", "norm", "--batch-size", "1"], 3,
     "strategy norm"),
    (["density", "--batch-size", "1"], 3, "--batch-size: 1"),
    (["density", "--strategy-a", "source", "--batch-size", "1"], 3,
     "strategy tent"),
    (["density", "--lr", "nan"], 3, "lr"),
    (["sweep-batch-size", "--lr", "nan"], 3, "lr"),
    (["train-source", "--m", "0"], 3, "--m: 0"),
    (["train-source", "--k", "1"], 3, "--k: 1"),
    (["train-source", "--lr", "0"], 3, "--lr: 0.0"),
    (["train-source", "--lr", "nan"], 3, "--lr: nan"),
    (["lemma-check", "--lr", "0"], 3, "--lr: 0.0"),
    (["train-source", "--seed", "-1"], 3, "--seed: -1"),
    (["adapt", "--seed", "-1"], 3, "--seed: -1"),
    (["density", "--seed", "-1"], 3, "--seed: -1"),
    (["lemma-check", "--seed", "-1"], 3, "--seed: -1"),
    (["adapt", "--data-seed", "-1"], 3, "--data-seed: -1"),
    (["density", "--data-seed", "-1"], 3, "--data-seed: -1"),
    (["sweep-batch-size", "--data-seed", "-1"], 3, "--data-seed: -1"),
    # diverges on its last step: caught before the checkpoint is written
    (["train-source", "--lr", "1e306", "--m", "30", "--epochs", "1"], 2,
     "non-finite"),
]


@pytest.mark.parametrize("argv, expected, word", BAD_ARGUMENTS,
                         ids=[" ".join(a) for a, _, _ in BAD_ARGUMENTS])
def test_bad_argument_exits_with_precise_error(workdir, tmp_path, capsys,
                                               argv, expected, word):
    command, *flags = argv
    out = tmp_path / "out"
    paths = ["--out", str(out)]
    if command in ("adapt", "sweep-batch-size", "density"):
        paths += ["--checkpoint", str(workdir / "source.json")]
    with np.errstate(all="ignore"):
        code = main([command, *paths, *flags])
    err = capsys.readouterr().err
    assert code == expected
    assert [line for line in err.splitlines()
            if line.startswith(("error:", "training failed:")) and word in line]
    assert "Traceback" not in err
    assert not out.exists()  # nothing written, not even the directory


# id, --checkpoint, --out (both under tmp_path), what the error line names
BAD_PATHS = [
    ("out-is-a-file", "good.json", "file", "{tmp}/file"),
    ("out-under-a-file", "good.json", "file/sub", "{tmp}/file/sub"),
    ("checkpoint-is-a-directory", "dir", "out", "{tmp}/dir"),
    ("missing-checkpoint", "nope.json", "out", "{tmp}/nope.json"),
    ("malformed-checkpoint", "k_is_text.json", "out", "'k'"),
    ("width-mismatched-checkpoint", "two_inputs.json", "out", "2 columns"),
]


@pytest.mark.parametrize("checkpoint, out, names", [c[1:] for c in BAD_PATHS],
                         ids=[c[0] for c in BAD_PATHS])
def test_bad_path_or_checkpoint_exits_three(workdir, tmp_path, capsys,
                                            checkpoint, out, names):
    doc = json.loads((workdir / "source.json").read_text())
    (tmp_path / "good.json").write_text(json.dumps(doc))
    (tmp_path / "k_is_text.json").write_text(json.dumps({**doc, "k": "x"}))
    first = doc["layers"][0]
    first["shape"][1] = 2
    first["weight"] = first["weight"][:2 * first["shape"][0]]
    (tmp_path / "two_inputs.json").write_text(json.dumps(doc))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    code = main(["adapt", "--checkpoint", str(tmp_path / checkpoint),
                 "--out", str(tmp_path / out), "--test-m", "100"])
    err = capsys.readouterr().err
    assert code == 3
    word = names.format(tmp=tmp_path)
    assert [line for line in err.splitlines()
            if line.startswith("error:") and word in line], err
    assert "Traceback" not in err


class TestDensityAlignmentDirection:
    def test_ttc_features_align_better_than_tent_at_small_batch(
            self, source_net, test_dataset):
        """Flip-averaged, weighted, accumulated updates keep the adapted
        feature distribution closer to the clean reference than plain
        per-batch entropy steps do, once batches are small enough for step
        noise to matter. Averaged over channels and 5 stream seeds."""
        from ttalab.adaptation import AdaptationConfig
        from ttalab.benchmark import (Corruption, StreamProtocol,
                                      adapt_streams, apply_corruption,
                                      collect_features, feature_histograms,
                                      histogram_overlap)
        from ttalab.network import BNMode

        corr = Corruption("gaussian_noise", 5)
        reference = collect_features(source_net, test_dataset.inputs, 100,
                                     BNMode.EVAL_STATS)
        gaps = []
        for seed in range(5):
            protocol = StreamProtocol(batch_size=10, seed=seed)
            inputs = apply_corruption(test_dataset.inputs, corr, protocol.seed)
            feats = {"reference": reference}
            names = {"a": "ttc", "b": "tent"}
            results = adapt_streams(
                source_net, inputs, test_dataset.labels,
                [(None, protocol, AdaptationConfig(strategy=strategy))
                 for strategy in names.values()])
            for name, (_, _, row) in zip(names, results):
                feats[name] = collect_features(source_net, inputs, 10,
                                               BNMode.TEST_BATCH_STATS, row)
            _, hists = feature_histograms(feats, bins=64)
            channels = reference.shape[1]
            ttc_overlap = np.mean([histogram_overlap(hists["a"][c],
                                                     hists["reference"][c])
                                   for c in range(channels)])
            tent_overlap = np.mean([histogram_overlap(hists["b"][c],
                                                      hists["reference"][c])
                                    for c in range(channels)])
            gaps.append(ttc_overlap - tent_overlap)
        assert np.mean(gaps) > 0.0
