import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ttalab
from ttalab import benchmark, cli
from ttalab.adaptation import STRATEGIES, AdaptationConfig
from ttalab.benchmark import generate_dataset, evaluate_accuracy
from ttalab.cli import main
from ttalab.network import load_checkpoint
from ttalab.numeric import simulate_entropy_descent, trajectory_csv

from conftest import traced_peak


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

    def test_divergence_names_the_epoch_and_warns_nothing(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train-source", "--out", str(out), "--m", "300",
                         "--epochs", "5", "--lr", "1e300"])
        assert code == 2
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("training failed: diverged in epoch 1, batch 2:"
                               " overflow encountered in ")
        assert caught == []
        assert not out.exists()

    def test_last_step_divergence_warns_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train-source", "--out", str(out), "--lr", "1e306",
                         "--m", "30", "--epochs", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "training failed: trained network is unusable: overflow"
            " encountered in multiply"]
        assert caught == []
        assert not out.exists()

    def test_traced_peak_is_the_dataset_and_one_batch(self, tmp_path):
        """Any whole-stream pass on top of the (m, 32) dataset shows here:
        training on an epoch buffer and scoring in one forward traced 5.4
        times the dataset."""
        m = 30000
        code, peak = traced_peak(lambda: main([
            "train-source", "--m", str(m), "--epochs", "1",
            "--out", str(tmp_path)]))
        assert code == 0
        assert peak <= 1.5 * m * 32 * 8


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

    def test_the_one_parser_keeps_nothing_between_calls(self, workdir,
                                                        tmp_path, capsys):
        """main parses every argv of a process with one parser: a flag of
        one call, or an argv refused half-way through, leaves nothing for
        the next call."""
        name = "report_ttc_gaussian_noise5_seed0"
        assert cli._parser() is cli._parser()
        assert run_adapt(workdir, tmp_path / "a", "--no-rla") == 0
        assert run_adapt(workdir, tmp_path / "b") == 0
        for sub, rla in (("a", False), ("b", True)):
            report = json.loads((tmp_path / sub / f"{name}.json").read_text())
            assert report["config"]["rla_enabled"] is rla
        printed = capsys.readouterr().out.splitlines()[1]
        assert run_adapt(workdir, tmp_path / "c", "--no-rla", "--strategy",
                         "cotta") == 3
        assert not (tmp_path / "c").exists()
        assert run_adapt(workdir, tmp_path / "c") == 0
        assert capsys.readouterr().out.splitlines() == [printed]
        for suffix in (".json", "_batches.csv"):
            assert ((tmp_path / "c" / f"{name}{suffix}").read_bytes()
                    == (tmp_path / "b" / f"{name}{suffix}").read_bytes())

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


# adapt argvs (--test-m 600 on the seed-0 checkpoint, N = 100) whose
# adaptation overflows, and the one stderr line each exits 2 with
DIVERGING = [
    (["--strategy", "tent", "--lr", "1e300"],
     "batch 2, in the trip of tent seed 0: overflow encountered in multiply"),
    (["--strategy", "ttc", "--optimizer", "sgd", "--lr", "1e300"],
     "batch 3, in the trip of ttc seed 0: overflow encountered in multiply"),
    (["--strategy", "ttc", "--tau", "30"],
     "batch 2, in the trip of ttc seed 0: overflow encountered in multiply"),
    (["--strategy", "ttc", "--tau", "400"],
     "batch 1, in the trip of ttc seed 0: overflow encountered in power"),
]


class TestAdaptationDivergence:
    @pytest.mark.parametrize("warnings_flags", [[], ["-W",
                                                     "error::RuntimeWarning"]],
                             ids=["default", "warnings-are-errors"])
    @pytest.mark.parametrize("argv, tail", DIVERGING,
                             ids=[" ".join(a) for a, _ in DIVERGING])
    def test_diverging_run_exits_two_naming_the_batch(
            self, workdir, tmp_path, argv, tail, warnings_flags):
        out = tmp_path / "out"
        proc = run_python(*warnings_flags, "-m", "ttalab.cli", "adapt",
                          "--checkpoint", str(workdir / "source.json"),
                          "--out", str(out), "--test-m", "600", *argv)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "training failed: adaptation diverged at N=100, " + tail]
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("warnings_flags", [[], ["-W",
                                                     "error::RuntimeWarning"]],
                             ids=["default", "warnings-are-errors"])
    def test_overflowing_feature_pass_exits_two_writing_nothing(
            self, workdir, tmp_path, warnings_flags):
        """density's one batch adapts to finite but huge rows, and the
        feature passes under them overflow: one line, no output."""
        out = tmp_path / "out"
        proc = run_python(*warnings_flags, "-m", "ttalab.cli", "density",
                          "--checkpoint", str(workdir / "source.json"),
                          "--out", str(out), "--test-m", "20",
                          "--batch-size", "20", "--lr", "1e300",
                          "--strategy-a", "tent", "--strategy-b", "ttc")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "training failed: the features of strategy tent are unusable:"
            " overflow encountered in multiply"]
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--strategy", "ttc", "--tau", "25"],
                                      ["--strategy", "tent", "--lr", "1e4"]],
                             ids=["tau-25", "tent-lr-1e4"])
    def test_large_but_finite_steps_still_exit_zero(self, workdir, tmp_path,
                                                    argv):
        assert run_adapt(workdir, tmp_path, "--test-m", "600",
                         "--batch-size", "100", *argv) == 0

    @pytest.mark.parametrize("argv, trip", [
        (["sweep-batch-size", "--batch-sizes", "10", "--seeds", "2"],
         "tent seed 0, tent seed 1, ttc-noga seed 0, ttc-noga seed 1,"
         " ttc-norla-nowa seed 0, ttc-norla-nowa seed 1, ttc seed 0, ttc"
         " seed 1"),
        (["density", "--batch-size", "10"], "tent seed 0, ttc seed 0"),
    ], ids=["sweep-batch-size", "density"])
    def test_diverging_command_names_every_stream_of_the_trip(
            self, workdir, tmp_path, capsys, argv, trip):
        command, *flags = argv
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(workdir / "source.json"),
                     "--out", str(out), "--test-m", "40", "--lr", "1e300",
                     *flags])
        captured = capsys.readouterr()
        assert code == 2
        (line,) = captured.err.splitlines()
        assert line.startswith("training failed: adaptation diverged at N=10,"
                               " batch ")
        assert f" in the trip of {trip}: overflow encountered in " in line
        assert captured.out == ""
        assert not out.exists()

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(strategy=st.sampled_from(STRATEGIES),
           optimizer=st.sampled_from(["sgd", "adam"]),
           test_m=st.integers(3, 60), n=st.integers(1, 60),
           q=st.one_of(st.none(), st.integers(1, 40)),
           lr=st.floats(-6, 300).map(lambda e: 10.0 ** e),
           tau=st.floats(0, 1e3), seed=st.integers(0, 3))
    def test_every_adapt_run_completes_or_fails_by_name(
            self, workdir, strategy, optimizer, test_m, n, q, lr, tau, seed):
        """An adapt argv exits 0 with finite accuracies, 2 with an
        ``adaptation diverged`` line, or 3 with an ``error:`` line; nothing
        escapes as a traceback or a numpy warning."""
        argv = ["adapt", "--checkpoint", str(workdir / "source.json"),
                "--strategy", strategy, "--optimizer", optimizer,
                "--test-m", str(test_m), "--batch-size", str(n),
                "--lr", repr(lr), "--tau", repr(tau), "--seed", str(seed)]
        if q is not None:
            argv += ["--q", str(q)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            err, stdout = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(stdout):
                code = main([*argv, "--out", str(out)])
            lines = err.getvalue().splitlines()
            assert code in (0, 2, 3)
            if code == 0:
                (report,) = [json.loads(path.read_text())
                             for path in out.glob("report_*.json")]
                assert math.isfinite(report["accuracy"])
                assert all(map(math.isfinite, report["per_batch_accuracy"]))
                assert lines == []
            elif code == 2:
                (line,) = lines
                assert line.startswith("training failed: adaptation diverged"
                                       f" at N={n}, batch ")
                assert not out.exists()
            else:
                (line,) = lines
                assert line.startswith("error: ")
                assert not out.exists()


class TestBatchStatisticsRemoveAnOffset:
    """norm normalizes each batch with its own statistics, which removes
    a constant offset: its per-batch accuracies on ``brightness`` are those
    on the clean stream, at every severity, N = 2 and N = 100 and seeds
    0-9 (checked on the seed-0 checkpoint, --test-m 600). ``contrast`` is
    removed too at N = 100, but never at N = 2."""

    def test_brightness_and_large_batch_contrast_read_the_clean_stream(
            self, workdir):
        net = load_checkpoint(workdir / "source.json")
        dataset = generate_dataset(3, 600, 777)
        norm = AdaptationConfig(strategy="norm")
        for n in (2, 100):
            for seed in range(10):
                protocol = benchmark.StreamProtocol(batch_size=n, seed=seed)
                corruptions = [None] + [
                    benchmark.Corruption(kind, severity)
                    for kind in ("brightness", "contrast")
                    for severity in range(1, 6)]
                clean, *shifted = [per_batch for _, per_batch, _ in
                                   benchmark.adapt_streams(
                                       net, dataset.inputs, dataset.labels,
                                       [(c, protocol, norm)
                                        for c in corruptions])]
                for corruption, accs in zip(corruptions[1:], shifted):
                    removed = corruption.kind == "brightness" or n == 100
                    assert (accs == clean) == removed, (n, seed, corruption)


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

    def test_one_adapter_call_per_batch_of_each_size(self, workdir, tmp_path,
                                                     monkeypatch):
        """tent, tent+GA, ttc-GA and ttc at one N share one plan, so every
        stream of that N adapts in one trip: one Adapter call (and one
        softmax core) per batch, and no stream's parameters are hashed."""
        from ttalab import adaptation

        counts = dict.fromkeys(["adapt_batch", "_softmax", "params_digest"],
                               0)

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
        counting(adaptation.Adapter, "adapt_batch")
        counting(adaptation, "_softmax")
        counting(benchmark, "params_digest")
        code = main(["sweep-batch-size",
                     "--checkpoint", str(workdir / "source.json"),
                     "--out", str(tmp_path), "--batch-sizes", "2", "10",
                     "--seeds", "2", "--test-m", "40"])
        assert code == 0
        calls = sum(len(benchmark.batch_slices(40, n)) for n in (2, 10))
        assert counts == {"adapt_batch": calls, "_softmax": calls,
                          "params_digest": 0}


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

        def descending(starts, lr, steps):
            trajs = {}
            for key, p0 in starts.items():  # each a start or a stack
                traj = np.repeat(np.asarray(p0, dtype=float)[None], steps + 1,
                                 axis=0)
                traj[1:, ..., 0] -= 1e-3  # top class loses mass
                traj[1:, ..., 1] += 1e-3
                trajs[key] = traj
            return trajs

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

        def breaking(starts, lr, steps):
            trajs = real(starts, lr, steps)
            for key, traj in trajs.items():
                if traj.ndim == 3:
                    shapes.append(traj.shape)
                    rows = np.arange(0, 3 * broken, 3)
                    top = np.argmax(starts[key][rows], axis=1)
                    traj[-1, rows, top] = 0.0  # each broken row's top drops
            return trajs

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

            def recording(starts, lr, steps):
                stacks = {k: p0 for k, p0 in starts.items() if np.ndim(p0) == 2}
                if stacks:
                    calls.append({k: len(p0) for k, p0 in stacks.items()})
                for k, p0 in stacks.items():
                    seen[k].extend(p0)
                return real(starts, lr, steps)

            monkeypatch.setattr(cli, "simulate_entropy_descent", recording)
            assert main(["lemma-check", "--out", str(tmp_path / name),
                         "--k-list", *map(str, k_list), "--steps", "50",
                         "--random-starts", str(starts),
                         "--random-steps", "20", "--seed", str(seed)]) == 0
            for k in k_list:
                np.testing.assert_array_equal(seen[k], expected[k])
            return calls, (tmp_path / name / "lemma_summary.csv").read_bytes()

        calls, summary = run("default")
        assert calls == [{2: 11, 5: 10, 9: 10}]  # one call, one stack per K
        monkeypatch.setattr(cli, "LEMMA_STACK_BYTES", 1)
        calls, one_row = run("one-row")
        # one call per window of one start of each K
        assert calls == [{2: 1, 5: 1, 9: 1}] * 10 + [{2: 1}]
        assert one_row == summary

    @pytest.mark.parametrize("budget", [1, 2000, 6000, 30000])
    def test_one_window_is_alive_at_a_time(self, tmp_path, monkeypatch,
                                           budget):
        """Every descent call starts after the trajectories of each earlier
        call have died: the k-list's once its CSVs are written, a window's
        before the next window descends. The files keep their bytes."""
        real = cli.simulate_entropy_descent
        buffers = []  # a weak reference to each call's trajectory buffer

        def watching(starts, lr, steps):
            assert [buffer() for buffer in buffers] == [None] * len(buffers)
            trajs = real(starts, lr, steps)
            for traj in trajs.values():
                while traj.base is not None:
                    traj = traj.base
                buffers.append(weakref.ref(traj))
            return trajs

        def run(name):
            assert main(["lemma-check", "--out", str(tmp_path / name),
                         "--k-list", "2", "5", "9", "--steps", "30",
                         "--random-starts", "31", "--random-steps", "20"]) == 0
            return {path.name: path.read_bytes()
                    for path in (tmp_path / name).iterdir()}

        expected = run("default")
        monkeypatch.setattr(cli, "simulate_entropy_descent", watching)
        monkeypatch.setattr(cli, "LEMMA_STACK_BYTES", budget)
        assert run("budget") == expected
        assert len(buffers) >= 2  # the k-list and at least one window

    def test_traced_peak_is_one_window(self, tmp_path, monkeypatch):
        """Under a 1-byte budget a window is one start of each K, whose
        (3001, 2 + 5 + 9) trajectories are 384 KB, and the run traces 1.33
        windows. Keeping the last window's trajectories alive through the
        next window's descent traced 1.85."""
        monkeypatch.setattr(cli, "LEMMA_STACK_BYTES", 1)
        # a process's first run imports modules, ~0.9 MB traced: not the run's
        assert main(["lemma-check", "--out", str(tmp_path / "warm"),
                     "--k-list", "2", "--steps", "1", "--random-starts", "1",
                     "--random-steps", "1"]) == 0
        code, peak = traced_peak(lambda: main([
            "lemma-check", "--out", str(tmp_path / "run"), "--k-list", "2",
            "5", "9", "--steps", "30", "--random-starts", "12",
            "--random-steps", "3000"]))
        assert code == 0
        assert peak <= 1.5 * 3001 * (2 + 5 + 9) * 8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_arguments_descend_in_two_calls(self, tmp_path,
                                                      monkeypatch, seed):
        """The k-list's tilted starts in one call, and the 200 random
        starts, one stack per K, in one more."""
        real = cli.simulate_entropy_descent
        calls = []

        def counting(starts, lr, steps):
            calls.append({k: np.shape(p0) for k, p0 in starts.items()})
            return real(starts, lr, steps)

        monkeypatch.setattr(cli, "simulate_entropy_descent", counting)
        assert main(["lemma-check", "--seed", str(seed), "--steps", "1000",
                     "--random-starts", "200", "--out", str(tmp_path)]) == 0
        assert calls == [{2: (2,), 10: (10,), 100: (100,)},
                         {2: (67, 2), 10: (67, 10), 100: (66, 100)}]


class TestLemmaTrajectoryBytes:
    """lemma-check's trajectory CSVs and demo 01's CSV, pinned by sha256.

    The trajectories depend only on --k-list, --lr and --steps, so each
    seed at the benchmark's arguments gives the same three files.
    """

    BENCHMARK_ARGS = {
        2: "d053a3ec07988136781a1625717ba7d3cf617dc0742163a84a059f64264b1d95",
        10: "96f4c5912438ec96b4b5f510c00b34684235140e39ac4cfa94a35a769aa6bbe5",
        100: "67d1aff4c3caf02388eea9526ac3da243f8e586beafbe5b050d0777e356e99b7",
    }
    DEFAULT_ARGS = {
        2: "e05d5b87d398b729c829874ec4f9776c6c5103627b8fa691036eacf12678f35f",
        10: "ea92801b0bd80142916da4a80b9ed7b527ebd5b423d293fdef7b5297f0b28eb3",
        100: "fce20119c68d48a94c4782babf0154400e59c1bfb2ee3313b00afaa557678c5c",
    }
    DEMO_01 = "e058634610821e0b0d4d28b0c1f5318d0c21056406436f028cac539f4566d519"

    @staticmethod
    def digests(out):
        return {k: hashlib.sha256((out / f"lemma_k{k}.csv").read_bytes())
                .hexdigest() for k in (2, 10, 100)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_arguments(self, tmp_path, seed):
        assert main(["lemma-check", "--seed", str(seed), "--steps", "1000",
                     "--random-starts", "200", "--out", str(tmp_path)]) == 0
        assert self.digests(tmp_path) == self.BENCHMARK_ARGS

    def test_default_arguments(self, tmp_path):
        assert main(["lemma-check", "--random-starts", "0",
                     "--out", str(tmp_path)]) == 0
        assert self.digests(tmp_path) == self.DEFAULT_ARGS

    def test_demo_01(self):
        buf = io.StringIO()
        trajectory_csv(simulate_entropy_descent([0.55, 0.45], 0.05, 50), buf)
        assert (hashlib.sha256(buf.getvalue().encode()).hexdigest()
                == self.DEMO_01)


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
    checkpoint, for one gradient pair, one filtered-against-norm pair and
    the filter beside tent at N = 2 with each optimizer."""

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
        # at N = 2 the filter sits batches out beside tent, which steps on
        # every batch
        (["--strategy-a", "tent-filtered", "--strategy-b", "tent",
          "--test-m", "400", "--batch-size", "2", "--bins", "16"],
         ("a3bbbe43cae7eb5850e152c7ea672f210bd6ee4469509427cd9341bcd3cb5c6d",
          "8e12bab2da2fa0e3ba59001b79260d170d3f78ed806bc338aee52097285df1aa",
          "e0574eb26004aff2462672a0b3a4d22f5bb9329ae70ddb6a0dcbdf6087f3f96d")),
        (["--strategy-a", "tent-filtered", "--strategy-b", "tent",
          "--test-m", "400", "--batch-size", "2", "--bins", "16",
          "--optimizer", "sgd"],
         ("0dfd21b4d60314e9abf23f37f87613e69a33e8c21fee2ec9e17a817b8b483d5f",
          "b57c65003354dcc3371fc141bc359e7a302395c8b56736dd2d1ea1cbfd84cf81",
          "76a1a7755aba5204d197f022a753c18f0c710d0cddce1f95be7836c18bbd3da8")),
    ], ids=["ttc-tent", "tent-filtered-norm-contrast",
            "tent-filtered-tent-adam", "tent-filtered-tent-sgd"])
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


# argv, exit code and the one line printed to stderr
BAD_ARGUMENTS = [
    (["adapt", "--lr", "nan"], 3,
     "error: --lr: nan must be finite and positive"),
    (["adapt", "--lr", "inf"], 3,
     "error: --lr: inf must be finite and positive"),
    (["adapt", "--tau", "nan"], 3,
     "error: --tau: nan must be finite and non-negative"),
    (["adapt", "--tau", "inf"], 3,
     "error: --tau: inf must be finite and non-negative"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "nan"], 3,
     "error: --filter-threshold: nan must be positive"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "0"], 3,
     "error: --filter-threshold: 0.0 must be positive"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "-1"], 3,
     "error: --filter-threshold: -1.0 must be positive"),
    (["adapt", "--q", "0"], 3, "error: --q: 0 too small, need >= 1"),
    (["adapt", "--tau", "-1"], 3,
     "error: --tau: -1.0 must be finite and non-negative"),
    (["density", "--tau", "-1"], 3,
     "error: --tau: -1.0 must be finite and non-negative"),
    (["sweep-batch-size", "--tau", "-1"], 3,
     "error: --tau: -1.0 must be finite and non-negative"),
    (["train-source", "--hidden", "0"], 3,
     "error: --hidden: 0 too small, need >= 1"),
    (["lemma-check", "--steps", "-1"], 3,
     "error: --steps: -1 too small, need >= 0"),
    (["train-source", "--epochs", "-1"], 3,
     "error: --epochs: -1 too small, need >= 0"),
    (["density", "--bins", "0"], 3, "error: --bins: 0 too small, need >= 1"),
    (["sweep-batch-size", "--seeds", "0"], 3,
     "error: --seeds: 0 too small, need >= 1"),
    (["sweep-batch-size", "--batch-size", "7"], 3,
     "error: unrecognized arguments: --batch-size 7"),
    (["lemma-check", "--k-list", "0"], 3,
     "error: --k-list: 0 too small, need >= 2"),
    (["lemma-check", "--k-list", "1"], 3,
     "error: --k-list: 1 too small, need >= 2"),
    (["lemma-check", "--k-list", "3", "3"], 3, "error: --k-list: 3 repeated"),
    (["sweep-batch-size", "--batch-sizes", "10", "10"], 3,
     "error: --batch-sizes: 10 repeated"),
    (["lemma-check", "--random-starts", "-1"], 3,
     "error: --random-starts: -1 too small, need >= 0"),
    (["lemma-check", "--random-steps", "-1"], 3,
     "error: --random-steps: -1 too small, need >= 0"),
    (["adapt", "--test-m", "0"], 3,
     "error: --test-m: 0 too small, need >= 3 (one sample per class, k=3)"),
    (["adapt", "--batch-size", "0"], 3,
     "error: --batch-size: 0 too small, need >= 1"),
    (["density", "--test-m", "0"], 3,
     "error: --test-m: 0 too small, need >= 3 (one sample per class, k=3)"),
    (["density", "--batch-size", "0"], 3,
     "error: --batch-size: 0 too small, need >= 1"),
    (["sweep-batch-size", "--test-m", "0"], 3,
     "error: --test-m: 0 too small, need >= 3 (one sample per class, k=3)"),
    (["adapt", "--batch-size", "1"], 3,
     "error: --batch-size: 1 too small, need >= 2 (strategy ttc needs "
     "batch statistics)"),
    (["adapt", "--strategy", "norm", "--batch-size", "1"], 3,
     "error: --batch-size: 1 too small, need >= 2 (strategy norm needs "
     "batch statistics)"),
    (["density", "--batch-size", "1"], 3,
     "error: --batch-size: 1 too small, need >= 2 (strategy ttc needs "
     "batch statistics)"),
    (["density", "--strategy-a", "source", "--batch-size", "1"], 3,
     "error: --batch-size: 1 too small, need >= 2 (strategy tent needs "
     "batch statistics)"),
    (["density", "--lr", "nan"], 3,
     "error: --lr: nan must be finite and positive"),
    (["sweep-batch-size", "--lr", "nan"], 3,
     "error: --lr: nan must be finite and positive"),
    (["train-source", "--m", "0"], 3,
     "error: --m: 0 too small, need >= 3 (one sample per class, k=3)"),
    (["train-source", "--k", "1"], 3, "error: --k: 1 too small, need >= 2"),
    (["train-source", "--lr", "0"], 3,
     "error: --lr: 0.0 must be finite and positive"),
    (["train-source", "--lr", "nan"], 3,
     "error: --lr: nan must be finite and positive"),
    (["lemma-check", "--lr", "0"], 3,
     "error: --lr: 0.0 must be finite and positive"),
    (["train-source", "--seed", "-1"], 3,
     "error: --seed: -1 too small, need >= 0"),
    (["adapt", "--seed", "-1"], 3, "error: --seed: -1 too small, need >= 0"),
    (["density", "--seed", "-1"], 3, "error: --seed: -1 too small, need >= 0"),
    (["lemma-check", "--seed", "-1"], 3,
     "error: --seed: -1 too small, need >= 0"),
    (["adapt", "--data-seed", "-1"], 3,
     "error: --data-seed: -1 too small, need >= 0"),
    (["density", "--data-seed", "-1"], 3,
     "error: --data-seed: -1 too small, need >= 0"),
    (["sweep-batch-size", "--data-seed", "-1"], 3,
     "error: --data-seed: -1 too small, need >= 0"),
    (["adapt", "--lr", "0"], 3,
     "error: --lr: 0.0 must be finite and positive"),
    (["adapt", "--test-m", "2"], 3,
     "error: --test-m: 2 too small, need >= 3 (one sample per class, k=3)"),
    (["train-source", "--m", "2"], 3,
     "error: --m: 2 too small, need >= 3 (one sample per class, k=3)"),
    (["train-source", "--epochs", "0", "--hidden", "0"], 3,
     "error: --hidden: 0 too small, need >= 1"),
    # diverges on its last step: caught before the checkpoint is written
    (["train-source", "--lr", "1e306", "--m", "30", "--epochs", "1"], 2,
     "training failed: trained network is unusable: overflow encountered in "
     "multiply"),
    # negative numbers in every form float() reads are values, not flags
    (["adapt", "--lr", "-1e-05"], 3,
     "error: --lr: -1e-05 must be finite and positive"),
    (["adapt", "--strategy", "tent-filtered", "--filter-threshold", "-inf"], 3,
     "error: --filter-threshold: -inf must be positive"),
    (["lemma-check", "--lr", "-.5E+3"], 3,
     "error: --lr: -500.0 must be finite and positive"),
    (["density", "--tau", "-nan"], 3,
     "error: --tau: nan must be finite and non-negative"),
]


@pytest.mark.parametrize("argv, expected, line", BAD_ARGUMENTS,
                         ids=[" ".join(a) for a, _, _ in BAD_ARGUMENTS])
def test_bad_argument_exits_with_precise_error(workdir, tmp_path, capsys,
                                               argv, expected, line):
    command, *flags = argv
    out = tmp_path / "out"
    paths = ["--out", str(out)]
    if command in ("adapt", "sweep-batch-size", "density"):
        paths += ["--checkpoint", str(workdir / "source.json")]
    with np.errstate(all="ignore"):
        code = main([command, *paths, *flags])
    assert code == expected
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()  # nothing written, not even the directory


def _below(low, why=None):
    """Integers below ``low``, each with the tail of the error it gets."""
    rule = f"too small, need >= {low}" + (f" ({why})" if why else "")
    return st.integers(-2**70, low - 1).map(lambda v: (str(v), f"{v} {rule}"))


def _breaking(rule, holds):
    """Floats, nan and infinities among them, for which ``holds`` fails."""
    return st.floats().filter(lambda x: not holds(x)).map(
        lambda x: (repr(x), f"{x!r} must be {rule}"))


LR = _breaking("finite and positive", lambda x: math.isfinite(x) and x > 0)
TAU = _breaking("finite and non-negative",
                lambda x: math.isfinite(x) and x >= 0)
TEST_M = _below(3, "one sample per class, k=3")
# per command, each integer or real flag: out-of-range values
OUT_OF_RANGE = {
    "train-source": {"--k": _below(2), "--m": TEST_M, "--hidden": _below(1),
                     "--epochs": _below(0), "--seed": _below(0), "--lr": LR},
    "adapt": {"--q": _below(1), "--lr": LR, "--tau": TAU,
              "--filter-threshold": _breaking("positive", lambda x: x > 0),
              "--test-m": TEST_M, "--data-seed": _below(0),
              "--seed": _below(0), "--batch-size": _below(1)},
    "sweep-batch-size": {"--batch-sizes": _below(2, "per-batch statistics"),
                         "--seeds": _below(1), "--lr": LR, "--tau": TAU,
                         "--test-m": TEST_M, "--data-seed": _below(0)},
    "lemma-check": {"--k-list": _below(2), "--steps": _below(0),
                    "--random-starts": _below(0),
                    "--random-steps": _below(0), "--seed": _below(0),
                    "--lr": LR},
    "density": {"--bins": _below(1), "--batch-size": _below(1),
                "--seed": _below(0), "--test-m": TEST_M,
                "--data-seed": _below(0), "--lr": LR, "--tau": TAU},
}


@pytest.mark.parametrize("command", OUT_OF_RANGE)
@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), untrained=st.booleans())
def test_one_out_of_range_flag_prints_one_line_naming_it(workdir, command,
                                                         data, untrained):
    """``error: <flag>: <value> <rule>``, exit 3 and no --out, whether the
    value is passed as ``<flag>=<value>`` or as a token of its own (a
    negative one included); with ``--epochs 0``, train-source warns only
    once its flags pass."""
    flag = data.draw(st.sampled_from(sorted(OUT_OF_RANGE[command])))
    text, tail = data.draw(OUT_OF_RANGE[command][flag])
    argv = [command, *data.draw(st.sampled_from(
        [[f"{flag}={text}"], [flag, text]]))]
    if command == "train-source" and untrained and flag != "--epochs":
        argv += ["--epochs", "0"]
    if command in ("adapt", "sweep-batch-size", "density"):
        argv += ["--checkpoint", str(workdir / "source.json")]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", str(out)])
        assert (code, err.getvalue(), stdout.getvalue()) == (
            3, f"error: {flag}: {tail}\n", "")
        assert not out.exists()


def test_cli_bounds_no_flag_itself():
    """The bounds of a flag's value live in ``ttalab.errors``' rules, so
    ``cli.py`` compares no ``args.<flag>`` by order and imports no math."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, ordering) for op in node.ops):
            flags = [ast.unparse(n) for side in (node.left, *node.comparators)
                     for n in ast.walk(side) if isinstance(n, ast.Attribute)
                     and isinstance(n.value, ast.Name)
                     and n.value.id == "args"]
            assert not flags, f"line {node.lineno}: {ast.unparse(node)}"
        if isinstance(node, ast.Import):
            assert "math" not in [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            assert node.module != "math"


def test_one_floating_point_rule():
    """The floating-point rule is stated once: only ``errors.py`` calls
    ``np.errstate`` (or ``np.seterr``), and no handler that catches
    InvalidInput raises TrainingDiverged, so a caller's bad input never
    reads as a divergence."""
    catching = {"InvalidInput", "TTALabError", "Exception", "BaseException"}
    for path in sorted(Path(ttalab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("errstate", "seterr")
                    or isinstance(node, ast.Name)
                    and node.id in ("errstate", "seterr")):
                assert path.name == "errors.py", where
            if isinstance(node, ast.ExceptHandler) and (
                    node.type is None or catching & {
                        n.id if isinstance(n, ast.Name) else n.attr
                        for n in ast.walk(node.type)
                        if isinstance(n, (ast.Name, ast.Attribute))}):
                raised = [ast.unparse(n.exc) for n in ast.walk(node)
                          if isinstance(n, ast.Raise) and n.exc is not None]
                assert not [r for r in raised if "TrainingDiverged" in r], (
                    where)


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


@pytest.mark.parametrize("command", ["adapt", "density",
                                     "sweep-batch-size"])
def test_checkpoint_of_another_input_width_exits_three_before_out(
        workdir, tmp_path, capsys, command):
    doc = json.loads((workdir / "source.json").read_text())
    first = doc["layers"][0]
    first["shape"][1] = 2
    first["weight"] = first["weight"][:2 * first["shape"][0]]
    checkpoint = tmp_path / "two_inputs.json"
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([command, "--checkpoint", str(checkpoint), "--out", str(out),
                 "--test-m", "100"])
    err = capsys.readouterr().err
    assert code == 3
    assert [line for line in err.splitlines() if line.startswith(
        f"error: --checkpoint {checkpoint}:") and "2 columns" in line
        and "32" in line], err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_checkpoint_exits_three_naming_the_field(workdir,
                                                             tmp_path,
                                                             capsys):
    doc = json.loads((workdir / "source.json").read_text())
    doc["layers"][0]["weight"][0] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(doc))  # NaN, as json has it
    out = tmp_path / "out"
    code = main(["adapt", "--checkpoint", str(tmp_path / "nan.json"),
                 "--out", str(out), "--test-m", "100"])
    err = capsys.readouterr().err
    assert code == 3
    assert [line for line in err.splitlines() if line.startswith("error:")
            and "layer 0 field 'weight'" in line], err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["adapt", "--test-m", "1000000000000"],
    ["train-source", "--m", "1000000000000"],
], ids=["adapt", "train-source"])
def test_out_of_memory_exits_three(workdir, tmp_path, capsys, monkeypatch,
                                   argv):
    def no_memory(*args, **kwargs):  # allocates nothing
        raise MemoryError("Unable to allocate 7.28 TiB")
    monkeypatch.setattr(cli, "generate_dataset", no_memory)
    command, *flags = argv
    out = tmp_path / "out"
    paths = ["--out", str(out)]
    if command == "adapt":
        paths += ["--checkpoint", str(workdir / "source.json")]
    code = main([command, *paths, *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: out of memory: Unable to allocate 7.28 TiB" in err
    assert "Traceback" not in err
    assert not out.exists()


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
