"""Every ttalab function and method the benchmark's tracer wraps exists,
and every optimizer step an Adapter makes is one the tracer counts.

``perfbench/spans.py`` names its targets as strings; a rename or deletion
in ttalab would crash ``perfbench/run.py --trace 1`` without failing any
other test. The lists are read from the file's source, which is never
imported or executed here.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from ttalab import adaptation
from ttalab.adaptation import AdaptationConfig, Adapter
from ttalab.benchmark import batch_slices
from ttalab.network import make_network

from oracles import q_configs

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def listed(name):
    """The literal value assigned to ``name`` at the top of spans.py."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {name}")


def test_every_traced_function_resolves():
    # the tracer adds cli.main to FUNCTIONS when it installs
    targets = listed("FUNCTIONS") + (("cli.main", "ttalab.cli", "main"),)
    missing = [f"{module}.{attr}" for _, module, attr in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    # the tracer replaces the method in the class's own __dict__
    missing = [f"{module}.{cls}.{attr}" for _, module, cls, attr
               in listed("METHODS")
               if not callable(vars(getattr(importlib.import_module(module),
                                            cls, object)).get(attr))]
    assert missing == []


# Adapters as lists of configs, built with one optimizer and lr
ADAPTERS = {
    **{strategy: lambda common, strategy=strategy: [
        AdaptationConfig(strategy=strategy, **common)]
       for strategy in ("source", "norm", "tent")},
    "ttc": lambda common: [AdaptationConfig(strategy="ttc", accumulation_q=2,
                                            **common)],
    "tent-filtered": lambda common: [AdaptationConfig(
        strategy="tent-filtered", filter_threshold=0.8, **common)],
    "mixed-q": lambda common: [*q_configs([1, 2, 2], **common),
                               AdaptationConfig(strategy="ttc",
                                                accumulation_q=5, **common)],
    # the filter sits batches out in a window of its own, beside tent and
    # a window of Q = 3
    "sit-out-beside-q3": lambda common: [
        AdaptationConfig(strategy="tent-filtered", filter_threshold=0.8,
                         **common),
        AdaptationConfig(strategy="tent", **common),
        AdaptationConfig(strategy="ttc", accumulation_q=3, **common)],
}


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("name", ADAPTERS)
def test_every_adapter_step_is_inside_accumulate_and_maybe_step(
        monkeypatch, name, optimizer):
    """The tracer's ``step_ratio`` counts the optimizer steps whose parent
    span is ``accumulate_and_maybe_step``; a step an Adapter made anywhere
    else would move that ratio without failing any other test."""
    depth = [0]
    steps = []  # whether each step is inside the accumulator
    accumulate = adaptation.accumulate_and_maybe_step

    def accumulating(*args, **kwargs):
        depth[0] += 1
        try:
            return accumulate(*args, **kwargs)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(adaptation, "accumulate_and_maybe_step", accumulating)
    for cls in (adaptation.SGD, adaptation.Adam):
        def stepping(self, params, grad, _step=cls.step):
            steps.append(depth[0] > 0)
            return _step(self, params, grad)
        monkeypatch.setattr(cls, "step", stepping)

    lr = {"sgd": 0.5, "adam": 0.05}[optimizer]
    configs = ADAPTERS[name](dict(optimizer=optimizer, lr=lr))
    net, n, m = make_network(input_dim=8, hidden=6, k=3, seed=0), 4, 36
    data = np.random.default_rng(3).normal(size=(len(configs), m, 8))
    adapter = Adapter(net, configs, n)
    for batch in batch_slices(m, n):
        adapter.adapt_batch(adaptation.with_flips(data[:, batch],
                                                  adapter.flips))
    assert steps == [True] * len(steps)
    assert bool(steps) == (name not in ("source", "norm"))
    if name == "sit-out-beside-q3":
        assert adapter.windows[0][0] == slice(0, 1)


@pytest.mark.parametrize("name", [*ADAPTERS, "ttc-norla"])
def test_rla_forward_is_called_once_per_batch_under_rla(monkeypatch, name):
    """The tracer's ``adaptation.rla_forward`` counts one call per batch of
    an Adapter with a stream that has RLA, and none otherwise; a forward
    that bypassed it would read 0 calls."""
    calls = []
    rla_forward = adaptation.rla_forward

    def counted(*args, **kwargs):
        calls.append(1)
        return rla_forward(*args, **kwargs)
    monkeypatch.setattr(adaptation, "rla_forward", counted)

    common = dict(optimizer="adam", lr=0.05)
    configs = (ADAPTERS[name](common) if name in ADAPTERS else
               [AdaptationConfig(strategy="ttc", rla_enabled=False, **common)])
    net, n, m = make_network(input_dim=8, hidden=6, k=3, seed=0), 4, 36
    data = np.random.default_rng(3).normal(size=(len(configs), m, 8))
    adapter = Adapter(net, configs, n)
    batches = batch_slices(m, n)
    for batch in batches:
        adapter.adapt_batch(adaptation.with_flips(data[:, batch],
                                                  adapter.flips))
    rla = any(c.strategy == "ttc" and c.rla_enabled for c in configs)
    assert len(calls) == rla * len(batches)
