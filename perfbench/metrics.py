"""Metric definitions and the computation of the per-layer metrics.

``python3 perfbench/metrics.py`` prints the ``BENCHMARK.json`` document built
from the lists below, which are the single source of the metric names.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

from spans import FUNCTIONS, METHODS, P99

WORKLOAD_WHY = {
    "sweep-small": "batch-size sweep at N=2 and 10 through the CLI: the "
                   "small-batch regime, where per-call Python overhead of "
                   "forward, losses and backward dominates",
    "grid-large": "all 5 strategies x 5 corruptions x 5 stream seeds at "
                  "N=100: per-stream fixed costs (params_digest, corruption, "
                  "deepcopy) and the no-gradient strategies",
    "train-source": "source training through the CLI: TRAIN_STATS forward, "
                    "full backward, Adam on all tensors and the JSON "
                    "checkpoint write",
    "lemma-kmeans": "lemma-check (13k single-vector softmax/entropy descent "
                    "steps) plus mini-batch k-means over penultimate "
                    "features of a 30k held-out stream",
}

# name, unit, better, bound
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

CLI_COMMANDS = ("sweep-batch-size", "train-source", "lemma-check")

# stream_eval labels present on sweep-small and grid-large.
STREAM_LABELS = (
    "tent.n2", "ttc-norla-nowa.n2", "ttc-noga.n2", "ttc.n2",
    "tent.n10", "ttc-norla-nowa.n10", "ttc-noga.n10", "ttc.n10",
    "source.n100", "norm.n100", "tent.n100", "tent-filtered.n100", "ttc.n100",
)

COUNTERS = ("network.forward.rows", "network.save_checkpoint.bytes",
            "benchmark.params_digest.bytes")

RATIOS = ("adaptation.softmax_per_batch", "adaptation.forward_rows_per_sample",
          "adaptation.backward_per_batch", "adaptation.step_ratio")

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]))


def per_layer_definitions():
    """(name, unit, better) of every per-layer metric, in output order."""
    defs = []
    for name in SPAN_NAMES:
        defs += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.self_ms", "ms", "lower"),
                 (f"{name}.us_p50", "us", "lower")]
        if name in P99:
            defs.append((f"{name}.us_p99", "us", "lower"))
    defs += [(name, "bytes" if name.endswith(".bytes") else "count", "lower")
             for name in COUNTERS]
    defs += [(name, "ratio", "lower") for name in RATIOS]
    for command in CLI_COMMANDS:
        defs += [(f"cli.main.{command}.calls", "count", "lower"),
                 (f"cli.main.{command}.self_ms", "ms", "lower")]
    defs += [(f"benchmark.stream_eval.samples_per_s.{label}", "1/s", "higher")
             for label in STREAM_LABELS]
    defs.append(("trace_overhead_share", "share", "lower"))
    return defs


def count_signature(summary):
    """The parts of a rep's trace summary that must repeat exactly."""
    return (summary["calls"], summary["counters"], summary["steps_in_stream"],
            {k: v[0] for k, v in summary["streams"].items()})


def layer_values(summaries, trace_overhead_share):
    """Per-layer metric values from the summaries of the traced reps.

    Counts come from one rep (the caller checks that every rep repeats
    them); times are medians over reps, or percentiles over the spans of
    all reps pooled.
    """
    first = summaries[0]
    calls, counters = first["calls"], first["counters"]
    values = {}
    for name in SPAN_NAMES:
        durations = [d for s in summaries for d in s["durations"].get(name, ())]
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_ms"] = statistics.median(
            s["self_ns"].get(name, 0) for s in summaries) / 1e6
        values[f"{name}.us_p50"] = (
            float(np.percentile(durations, 50)) / 1e3 if durations else 0.0)
        if name in P99:
            values[f"{name}.us_p99"] = (
                float(np.percentile(durations, 99)) / 1e3 if durations else 0.0)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)

    batches = calls.get("adaptation.Adapter.adapt_batch", 0)
    samples = counters.get("adaptation.samples", 0)

    def per(numerator, base):
        return numerator / base if base else 0.0
    values["adaptation.softmax_per_batch"] = per(
        calls.get("numeric.softmax", 0), batches)
    values["adaptation.forward_rows_per_sample"] = per(
        counters.get("network.forward.rows", 0), samples)
    values["adaptation.backward_per_batch"] = per(
        calls.get("network.backward_bn_affine", 0), batches)
    values["adaptation.step_ratio"] = per(first["steps_in_stream"], batches)

    for command in CLI_COMMANDS:
        name = f"cli.main.{command}"
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_ms"] = statistics.median(
            s["self_ns"].get(name, 0) for s in summaries) / 1e6
    for label in STREAM_LABELS:
        n_samples = sum(s["streams"].get(label, (0, 0))[0] for s in summaries)
        ns = sum(s["streams"].get(label, (0, 0))[1] for s in summaries)
        values[f"benchmark.stream_eval.samples_per_s.{label}"] = (
            n_samples / (ns / 1e9) if ns else 0.0)
    values["trace_overhead_share"] = trace_overhead_share
    return values


def benchmark_document():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_definitions()],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_document(), indent=2))
