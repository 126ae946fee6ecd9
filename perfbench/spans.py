"""In-memory span tracer that wraps ttalab's public functions from outside.

A span is recorded around every call to a traced function: its name, start,
inclusive duration, self time (duration minus the time covered by its child
spans) and the id of the span that caused it. Spans stay in flat integer
arrays while the workload runs; nothing is written until the run ends.

``from .x import f`` copies the reference to ``f`` into the importing
module, so a function is replaced at every binding that holds it: each
attribute of each ``ttalab`` module (and the package itself) that is the
original object. Methods are replaced on their class. ``Tracer.restore``
puts every original back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

# (metric prefix, module, attribute) for plain functions.
FUNCTIONS = (
    ("numeric.softmax", "ttalab.numeric", "softmax"),
    ("numeric.entropy", "ttalab.numeric", "entropy"),
    ("numeric.entropy_grad_logits", "ttalab.numeric", "entropy_grad_logits"),
    ("numeric.simulate_entropy_descent", "ttalab.numeric",
     "simulate_entropy_descent"),
    ("network.forward", "ttalab.network", "forward"),
    ("network.backward_bn_affine", "ttalab.network", "backward_bn_affine"),
    ("network.backward_all", "ttalab.network", "backward_all"),
    ("network.save_checkpoint", "ttalab.network", "save_checkpoint"),
    ("network.load_checkpoint", "ttalab.network", "load_checkpoint"),
    ("network.penultimate_features", "ttalab.network", "penultimate_features"),
    ("adaptation.rla_forward", "ttalab.adaptation", "rla_forward"),
    ("adaptation.tent_loss", "ttalab.adaptation", "tent_loss"),
    ("adaptation.ttc_loss", "ttalab.adaptation", "ttc_loss"),
    ("adaptation.accumulate_and_maybe_step", "ttalab.adaptation",
     "accumulate_and_maybe_step"),
    ("benchmark.stream_eval", "ttalab.benchmark", "stream_eval"),
    ("benchmark.apply_corruption", "ttalab.benchmark", "apply_corruption"),
    ("benchmark.params_digest", "ttalab.benchmark", "params_digest"),
    ("benchmark.generate_dataset", "ttalab.benchmark", "generate_dataset"),
    ("benchmark.train_source", "ttalab.benchmark", "train_source"),
    ("benchmark.accuracy_score", "ttalab.benchmark", "accuracy_score"),
    ("clustering.assign_step", "ttalab.clustering", "assign_step"),
    ("clustering.update_step", "ttalab.clustering", "update_step"),
    ("clustering.kmeans_objective", "ttalab.clustering", "kmeans_objective"),
    ("clustering.run_minibatch_kmeans", "ttalab.clustering",
     "run_minibatch_kmeans"),
)

# (metric prefix, module, class, method); both optimizers share one name.
METHODS = (
    ("adaptation.Adapter.adapt_batch", "ttalab.adaptation", "Adapter",
     "adapt_batch"),
    ("adaptation.optimizer_step", "ttalab.adaptation", "Adam", "step"),
    ("adaptation.optimizer_step", "ttalab.adaptation", "SGD", "step"),
)

# Function spans whose p99 is reported next to the p50.
P99 = ("adaptation.Adapter.adapt_batch",)

NO_PARENT = -1


def _stream_label(config, protocol):
    """`<strategy>[-norla][-nowa][-noga].n<N>` for a stream_eval call."""
    label = config.strategy
    if config.strategy == "ttc":
        for flag, tag in ((config.rla_enabled, "norla"),
                          (config.wa_enabled, "nowa"),
                          (config.ga_enabled, "noga")):
            if not flag:
                label += "-" + tag
    return f"{label}.n{protocol.batch_size}"


class _HashlibShim:
    """Stands in for ``hashlib`` inside ttalab.benchmark while tracing, so the
    length of the document params_digest hashes is read without serialising
    the network a second time."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def sha256(self, data=b""):
        self._tracer.count("benchmark.params_digest.bytes", len(data))
        return self._real.sha256(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans for calls into ttalab while installed."""

    def __init__(self):
        self._names = {}
        self.names = []
        self._open = []  # [span id, child time] of each open span
        self._restore = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def _intern(self, name):
        nid = self._names.get(name)
        if nid is None:
            nid = self._names[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name, fn, args, kwargs):
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._open[-1][0] if self._open else NO_PARENT)
        self.duration.append(0)
        self.self_time.append(0)
        frame = [sid, 0]
        self._open.append(frame)
        t0 = time.perf_counter_ns()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - t0
            self._open.pop()
            if self._open:
                self._open[-1][1] += dur
            self.duration[sid] = dur
            self.self_time[sid] = dur - frame[1]

    def reset(self):
        """Drop recorded spans and counters, keeping the installed wrappers."""
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.duration = array("q")
        self.self_time = array("q")
        self.counters = {}
        self.streams = {}  # stream label -> [samples, ns]

    # -- installing --------------------------------------------------------

    def _wrapper(self, name, fn):
        span = self._span
        count = self.count

        if name == "network.forward":
            def wrapper(net, batch, *args, **kwargs):
                count("network.forward.rows", len(batch))
                return span(name, fn, (net, batch) + args, kwargs)
        elif name == "adaptation.Adapter.adapt_batch":
            def wrapper(adapter, batch, *args, **kwargs):
                count("adaptation.samples", len(batch))
                return span(name, fn, (adapter, batch) + args, kwargs)
        elif name == "network.save_checkpoint":
            def wrapper(net, path, *args, **kwargs):
                try:
                    return span(name, fn, (net, path) + args, kwargs)
                finally:
                    count("network.save_checkpoint.bytes",
                          os.path.getsize(path))
        elif name == "benchmark.stream_eval":
            def wrapper(net, dataset, corruption, protocol, config):
                sid = len(self.start)
                try:
                    return span(name, fn,
                                (net, dataset, corruption, protocol, config),
                                {})
                finally:
                    cell = self.streams.setdefault(
                        _stream_label(config, protocol), [0, 0])
                    cell[0] += len(dataset)
                    cell[1] += self.duration[sid]
        elif name == "cli.main":
            def wrapper(argv=None):
                return span(f"cli.main.{argv[0]}", fn, (argv,), {})
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self):
        """Replace every traced function at each binding that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ttalab" or n.startswith("ttalab.")]
        targets = FUNCTIONS + (("cli.main", "ttalab.cli", "main"),)
        for name, module, attr in targets:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(name, original))
        bench = sys.modules["ttalab.benchmark"]
        self._restore.append((bench, "hashlib", bench.hashlib))
        bench.hashlib = _HashlibShim(bench.hashlib, self)

    def restore(self):
        """Put back every original binding replaced by install()."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- reading -----------------------------------------------------------

    def summary(self):
        """Per-name call counts, self-time sums and inclusive durations of the
        spans recorded since the last reset, plus counters and ratios."""
        calls, self_ns, durations = {}, {}, {}
        for nid, dur, own in zip(self.name_id, self.duration, self.self_time):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            durations.setdefault(name, []).append(dur)
        steps_in_stream = 0
        acc_id = self._names.get("adaptation.accumulate_and_maybe_step")
        step_id = self._names.get("adaptation.optimizer_step")
        if step_id is not None:
            for nid, parent in zip(self.name_id, self.parent):
                if (nid == step_id and parent != NO_PARENT
                        and self.name_id[parent] == acc_id):
                    steps_in_stream += 1
        return {
            "calls": calls,
            "self_ns": self_ns,
            "durations": durations,
            "counters": dict(self.counters),
            "steps_in_stream": steps_in_stream,
            "streams": {k: tuple(v) for k, v in self.streams.items()},
        }

    def dump(self, path):
        """Write the recorded spans as CSV: id,parent,name,start_ns,dur_ns,self_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,dur_ns,self_ns\n")
            names = self.names
            for sid, (nid, parent, start, dur, own) in enumerate(zip(
                    self.name_id, self.parent, self.start, self.duration,
                    self.self_time)):
                fh.write(f"{sid},{parent},{names[nid]},{start},{dur},{own}\n")
