"""Command-line entry points: source training, adaptation runs, the
batch-size sweep, the entropy-descent check, and feature-density export.

Exit codes: 0 success, 1 property violation, 2 training failure,
3 I/O or argument error. Every command is deterministic under --seed and
writes no timestamps, so reruns produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .adaptation import OPTIMIZERS, STRATEGIES, AdaptationConfig, stream_plan
from .benchmark import (CORRUPTION_KINDS, Corruption, StreamProtocol,
                        adapt_streams, apply_corruption, collect_features,
                        eval_streams, evaluate_accuracy, feature_histograms,
                        generate_dataset, histogram_overlap, stream_eval,
                        train_source)
from .errors import InvalidInput, TrainingDiverged, TTALabError
from .network import BNMode, load_checkpoint, save_checkpoint
from .numeric import simulate_entropy_descent, trajectory_csv

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_TRAINING = 2
EXIT_SPEC = 3

# Byte budget of one stacked lemma-check descent's trajectory: the random
# starts of one K run as one (R, K) stack, split only past this size.
LEMMA_STACK_BYTES = 16 * 2**20


class _SpecError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through our exit-code convention and
    takes no abbreviations, so ``--batch-size`` never means ``--batch-sizes``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _SpecError(message)


def _add_optimizer_flags(p):
    """Flags whose dest is an AdaptationConfig field; defaults come from it."""
    p.add_argument("--lr", type=float, help="adaptation learning rate")
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--tau", type=float)
    p.set_defaults(**AdaptationConfig().to_json())


def _add_config_flags(p):
    p.add_argument("--strategy", choices=STRATEGIES)
    _add_optimizer_flags(p)
    p.add_argument("--q", dest="accumulation_q", type=int,
                   help="gradient accumulation length (default: ~200/N)")
    p.add_argument("--no-rla", dest="rla_enabled", action="store_false")
    p.add_argument("--no-wa", dest="wa_enabled", action="store_false")
    p.add_argument("--no-ga", dest="ga_enabled", action="store_false")
    p.add_argument("--filter-threshold", type=float)


def _add_data_flags(p):
    p.add_argument("--corruption", choices=CORRUPTION_KINDS + ("none",),
                   default="gaussian_noise")
    p.add_argument("--severity", type=int, choices=range(1, 6), default=5)
    p.add_argument("--test-m", type=int, default=3000)
    p.add_argument("--data-seed", type=int, default=777,
                   help="seed of the held-out test set (shared across runs)")


def build_parser():
    parser = _Parser(prog="ttalab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-source", help="train and save a source checkpoint")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=3000)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--hidden", type=int, default=64)

    p = sub.add_parser("adapt", help="run one adaptation stream")
    p.add_argument("--checkpoint", default="out/source.json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--batch-size", type=int, default=100)
    _add_config_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("sweep-batch-size",
                       help="tent/ttc with and without accumulation across batch sizes")
    p.add_argument("--checkpoint", default="out/source.json")
    p.add_argument("--batch-sizes", type=int, nargs="+",
                   default=[2, 10, 50, 100])
    p.add_argument("--seeds", type=int, default=5,
                   help="number of stream seeds to average over")
    p.add_argument("--out", default="out")
    _add_optimizer_flags(p)
    _add_data_flags(p)

    p = sub.add_parser("lemma-check",
                       help="single-sample entropy descent trajectories")
    p.add_argument("--k-list", type=int, nargs="+", default=[2, 10, 100])
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--random-starts", type=int, default=1000)
    p.add_argument("--random-steps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")

    p = sub.add_parser("density",
                       help="per-channel feature histograms for two strategies")
    p.add_argument("--checkpoint", default="out/source.json")
    p.add_argument("--strategy-a", choices=STRATEGIES, default="ttc")
    p.add_argument("--strategy-b", choices=STRATEGIES, default="tent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--batch-size", type=int, default=100)
    _add_optimizer_flags(p)
    _add_data_flags(p)

    return parser


def _config(args, **changes):
    """The stream config the flags set, with ``changes`` applied on top.

    The numeric flags are checked here, so that an error names the flag
    rather than the config field it sets.
    """
    flags = {f.name: vars(args)[f.name] for f in fields(AdaptationConfig)}
    _finite_positive("--lr", flags["lr"])
    if not (math.isfinite(flags["tau"]) and flags["tau"] >= 0):
        raise _SpecError(f"--tau: {flags['tau']} must be finite and"
                         f" non-negative")
    if flags["accumulation_q"] is not None:
        _at_least("--q", flags["accumulation_q"], 1)
    threshold = flags["filter_threshold"]
    if threshold is not None and not threshold > 0:
        raise _SpecError(f"--filter-threshold: {threshold} must be positive")
    return AdaptationConfig(**(flags | changes))


def _corruption_of(args):
    if args.corruption == "none":
        return None
    return Corruption(kind=args.corruption, severity=args.severity)


def _at_least(flag, value, low, reason=None):
    """Reject a flag value below ``low``, naming the flag and the value."""
    if value < low:
        why = f" ({reason})" if reason else ""
        raise _SpecError(f"{flag}: {value} too small, need >= {low}{why}")


def _distinct(flag, values):
    """Reject a list flag that names one value twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise _SpecError(f"{flag}: {value} repeated")


def _finite_positive(flag, value):
    if not (math.isfinite(value) and value > 0):
        raise _SpecError(f"{flag}: {value} must be finite and positive")


def _test_set(args, k):
    """The held-out test stream ``--test-m`` and ``--data-seed`` describe."""
    _at_least("--test-m", args.test_m, k, f"one sample per class, k={k}")
    _at_least("--data-seed", args.data_seed, 0)
    return generate_dataset(k, args.test_m, args.data_seed)


def _protocol(args, k, *configs):
    """The stream protocol ``--batch-size`` and ``--seed`` describe, for
    streams adapted under ``configs`` on a network of k classes."""
    _at_least("--seed", args.seed, 0)
    _at_least("--batch-size", args.batch_size, 1)
    for config in configs:
        if stream_plan(config, k).mode is BNMode.TEST_BATCH_STATS:
            _at_least("--batch-size", args.batch_size, 2,
                      f"strategy {config.strategy} needs batch statistics")
    return StreamProtocol(batch_size=args.batch_size, seed=args.seed)


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train_source(args):
    _at_least("--k", args.k, 2)
    _at_least("--m", args.m, args.k, f"one sample per class, k={args.k}")
    _at_least("--hidden", args.hidden, 1)
    _at_least("--epochs", args.epochs, 0)
    _at_least("--seed", args.seed, 0)
    _finite_positive("--lr", args.lr)
    if args.epochs == 0:
        print("warning: --epochs 0, checkpoint will hold untrained weights",
              file=sys.stderr)
    dataset = generate_dataset(args.k, args.m, args.seed)
    net = train_source(dataset, epochs=args.epochs, seed=args.seed,
                       lr=args.lr, hidden=args.hidden)
    # a last step that diverges shows only here, so no checkpoint is written
    try:
        train_acc = evaluate_accuracy(net, dataset)
    except InvalidInput as e:
        raise TrainingDiverged(f"trained network is unusable: {e}") from None
    out = _outdir(args)
    ckpt = out / "source.json"
    save_checkpoint(net, ckpt)
    log = out / "train_log.txt"
    log.write_text(
        f"k={args.k} m={args.m} seed={args.seed} epochs={args.epochs} "
        f"lr={args.lr!r} hidden={args.hidden}\n"
        f"train_accuracy={train_acc!r}\n",
        encoding="utf-8")
    print(f"checkpoint written to {ckpt} (train accuracy {train_acc:.4f})")
    return EXIT_OK


def _report_stem(strategy, corruption, severity, seed):
    tag = f"{corruption}{severity}" if corruption != "none" else "none"
    return f"report_{strategy}_{tag}_seed{seed}"


def cmd_adapt(args):
    net = load_checkpoint(args.checkpoint)
    config = _config(args)
    dataset = _test_set(args, net.k)
    protocol = _protocol(args, net.k, config)
    out = _outdir(args)
    report = stream_eval(net, dataset, _corruption_of(args), protocol, config)
    stem = _report_stem(config.strategy, report.corruption, report.severity,
                        args.seed)
    (out / f"{stem}.json").write_text(report.json_str(), encoding="utf-8")
    (out / f"{stem}_batches.csv").write_text(report.per_batch_csv(),
                                             encoding="utf-8")
    print(f"{config.strategy} on {report.corruption} severity "
          f"{report.severity}: accuracy {report.accuracy:.4f}")
    return EXIT_OK


def cmd_sweep_batch_size(args):
    for n in args.batch_sizes:
        _at_least("--batch-sizes", n, 2, "per-batch statistics")
    _distinct("--batch-sizes", args.batch_sizes)
    _at_least("--seeds", args.seeds, 1)
    net = load_checkpoint(args.checkpoint)
    corruption = _corruption_of(args)
    dataset = _test_set(args, net.k)
    ttc = _config(args, strategy="ttc")
    out = _outdir(args)
    variants = {
        ("tent", False): replace(ttc, strategy="tent"),
        # tent plus accumulation is ttc with both other components off
        ("tent", True): replace(ttc, rla_enabled=False, wa_enabled=False),
        ("ttc", False): replace(ttc, ga_enabled=False),
        ("ttc", True): ttc,
    }

    cells = [(variant, n) for variant in variants for n in args.batch_sizes]
    reports = iter(eval_streams(net, dataset, [
        (corruption, StreamProtocol(batch_size=n, seed=seed),
         variants[variant])
        for variant, n in cells for seed in range(args.seeds)]))
    lines = ["strategy,batch_size,ga,accuracy_mean,accuracy_std"]
    for (strategy, ga), n in cells:
        accs = [next(reports).accuracy for _ in range(args.seeds)]
        mean = float(np.mean(accs))
        std = float(np.std(accs))
        lines.append(f"{strategy},{n},{str(ga).lower()},{mean!r},{std!r}")
        print(f"{strategy} ga={ga} N={n}: {mean:.4f} +- {std:.4f}")
    path = out / "sweep_batch_size.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"sweep written to {path}")
    return EXIT_OK


def _tilted_start(k):
    p = np.ones(k)
    p[0] = 1.5
    return p / p.sum()


def _random_start_violations(k_list, count, lr, steps, rng):
    """Count the random starts whose largest class ever loses probability.

    Start i is a Dirichlet draw of size K = k_list[i % len(k_list)], drawn
    from rng in index order. Starts run in windows of consecutive indices,
    sized so that each K's stack of a window keeps its trajectory within
    LEMMA_STACK_BYTES; in a window each K (k_list repeats none) descends
    as one stack.
    """
    per_window = max(1, min(LEMMA_STACK_BYTES // ((steps + 1) * k * 8)
                            for k in k_list))
    window = per_window * len(k_list)
    violations = 0
    for lo in range(0, count, window):
        stacks = {}
        for i in range(lo, min(lo + window, count)):
            k = k_list[i % len(k_list)]
            stacks.setdefault(k, []).append(rng.dirichlet(np.ones(k)))
        for p0 in map(np.array, stacks.values()):
            traj = simulate_entropy_descent(p0, lr, steps)
            top = traj[:, np.arange(len(p0)), p0.argmax(axis=1)]
            violations += int(np.count_nonzero(
                ~np.all(np.diff(top, axis=0) >= 0.0, axis=0)))
    return violations


def cmd_lemma_check(args):
    _at_least("--k-list", min(args.k_list), 2)
    _distinct("--k-list", args.k_list)
    for flag, value in (("--steps", args.steps),
                        ("--random-starts", args.random_starts),
                        ("--random-steps", args.random_steps),
                        ("--seed", args.seed)):
        _at_least(flag, value, 0)
    _finite_positive("--lr", args.lr)
    out = _outdir(args)
    failures = []
    summary = ["k,final_max_prob,monotone"]
    for k in args.k_list:
        traj = simulate_entropy_descent(_tilted_start(k), args.lr, args.steps)
        (out / f"lemma_k{k}.csv").write_text(trajectory_csv(traj),
                                             encoding="utf-8")
        top = traj[:, 0]  # class 0 starts largest
        monotone = bool(np.all(np.diff(top) >= 0.0))
        if not monotone:
            failures.append(f"k={k}: max probability decreased")
        summary.append(f"{k},{float(top[-1])!r},{str(monotone).lower()}")
        print(f"k={k}: final max prob {top[-1]:.6f} monotone={monotone}")

    random_failures = _random_start_violations(
        args.k_list, args.random_starts, args.lr, args.random_steps,
        np.random.default_rng(args.seed))
    if random_failures:
        failures.append(f"{random_failures}/{args.random_starts} random starts"
                        " broke monotonicity")
    summary.append(f"random_starts={args.random_starts},"
                   f"violations={random_failures},"
                   f"{'fail' if random_failures else 'pass'}")
    (out / "lemma_summary.csv").write_text("\n".join(summary) + "\n",
                                           encoding="utf-8")
    print(f"random starts: {args.random_starts - random_failures}/"
          f"{args.random_starts} monotone")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return EXIT_PROPERTY
    print("lemma check passed")
    return EXIT_OK


def cmd_density(args):
    net = load_checkpoint(args.checkpoint)
    corruption = _corruption_of(args)
    dataset = _test_set(args, net.k)
    config_a, config_b = (_config(args, strategy=s)
                          for s in (args.strategy_a, args.strategy_b))
    protocol = _protocol(args, net.k, config_a, config_b)
    _at_least("--bins", args.bins, 1)
    out = _outdir(args)
    # corrupted once: both strategies adapt over and are read on this stream
    inputs = dataset.inputs
    if corruption is not None:
        inputs = apply_corruption(inputs, corruption, protocol.seed)

    results = adapt_streams(net, inputs, dataset.labels,
                            [(None, protocol, config_a),
                             (None, protocol, config_b)])
    # clean reference: the source checkpoint on the uncorrupted stream
    reference = collect_features(net, dataset.inputs, args.batch_size,
                                 BNMode.EVAL_STATS)
    # each strategy's features under the affine row it adapted
    feats_a, feats_b = (collect_features(net, inputs, args.batch_size,
                                         stream_plan(config, net.k).mode, row)
                        for config, (_, _, row) in zip((config_a, config_b),
                                                       results))
    edges, hists = feature_histograms(
        {"reference": reference, "a": feats_a, "b": feats_b}, bins=args.bins)

    channels = reference.shape[1]
    hist_lines = ["channel,bin_lo,bin_hi,reference,a,b"]
    for ch in range(channels):
        for b in range(args.bins):
            hist_lines.append(
                f"{ch},{float(edges[ch][b])!r},{float(edges[ch][b + 1])!r},"
                f"{float(hists['reference'][ch][b])!r},"
                f"{float(hists['a'][ch][b])!r},{float(hists['b'][ch][b])!r}")
    (out / "density_hist.csv").write_text("\n".join(hist_lines) + "\n",
                                          encoding="utf-8")

    pairs = (("a", "reference"), ("b", "reference"), ("a", "b"))
    overlaps = [[histogram_overlap(hists[x][ch], hists[y][ch])
                 for x, y in pairs] for ch in range(channels)]
    overlap_lines = ["channel,a_vs_reference,b_vs_reference,a_vs_b"] + [
        f"{ch},{oa!r},{ob!r},{oab!r}"
        for ch, (oa, ob, oab) in enumerate(overlaps)]
    a_ref, b_ref, a_b = (np.mean(column) for column in zip(*overlaps))
    (out / "density_overlap.csv").write_text("\n".join(overlap_lines) + "\n",
                                             encoding="utf-8")
    print(f"a={args.strategy_a} b={args.strategy_b} "
          f"corruption={args.corruption} severity={args.severity}")
    print(f"mean overlap vs reference: a={a_ref:.4f} b={b_ref:.4f};"
          f" a vs b: {a_b:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "train-source": cmd_train_source,
    "adapt": cmd_adapt,
    "sweep-batch-size": cmd_sweep_batch_size,
    "lemma-check": cmd_lemma_check,
    "density": cmd_density,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except TrainingDiverged as e:
        print(f"training failed: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except (_SpecError, TTALabError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
