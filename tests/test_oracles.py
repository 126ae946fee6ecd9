"""Every reference in ``tests/oracles.py`` pinned to finite differences or
to a value worked out by hand, so no reference is trusted unchecked; and a
guard that each is pinned here and that no other test module defines a
reference of its own. The guard reads the files, never imports them."""

import ast
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ttalab.adaptation import ADAM_EPS, EPS_ENTROPY, AdaptationConfig
from ttalab.benchmark import SignalDataset, class_templates
from ttalab.errors import InvalidInput
from ttalab.network import (BatchNormLayer, BNMode, DenseLayer, Network,
                            forward, make_network)
from ttalab.numeric import entropy, softmax

from oracles import (ReferenceAccumulator, ReferenceAdam, ReferenceSGD,
                     ReferenceStream, array_shapes, bits, brute_force_assign,
                     document_digest, entropy_descent, finite_diff_check,
                     network_to_dict, per_batch_train_source,
                     per_point_update, per_scalar_csv, q_configs,
                     reference_dataset, reference_forward, sample_weights,
                     two_forward_rla)

TESTS = Path(__file__).resolve().parent


def dense(weight, activation="identity"):
    weight = np.array(weight, dtype=np.float64)
    return DenseLayer(weight=weight, bias=np.zeros(len(weight)),
                      activation=activation)


class TestFiniteDiffCheck:
    def test_linear_function_is_exact(self, rng):
        x = rng.normal(size=7)
        err = finite_diff_check(np.sum, x, np.ones(7))
        assert err < 1e-10

    def test_non_finite_function_rejected(self):
        def bad(v):
            return np.inf

        with pytest.raises(InvalidInput):
            finite_diff_check(bad, np.ones(2), np.ones(2))


def test_bits_tell_apart_what_equality_does_not():
    assert bits(0.0) != bits(-0.0) and bits(np.nan) == bits(np.nan)
    assert bits(np.zeros(2)) != bits(np.zeros((1, 2)))
    assert bits(np.zeros(2)) != bits(np.zeros(2, dtype=np.float32))
    assert bits(None) is None


def test_checkpoint_document_and_its_digest_by_hand():
    net = Network(layers=[DenseLayer(weight=np.array([[1.0], [-2.0]]),
                                     bias=np.array([0.5, 0.0]))],
                  k=2, meta={"seed": 3})
    text = ('{"k": 2, "layers": [{"activation": "identity", "bias": [0.5,'
            ' 0.0], "kind": "dense", "shape": [2, 1], "weight": [1.0, -2.0]}],'
            ' "meta": {"seed": 3}}')
    assert network_to_dict(net) == json.loads(text)
    assert document_digest(net) == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode, logits, running_mean", [
    (BNMode.EVAL_STATS, [[1, 0], [3, 0]], [0, 0]),
    (BNMode.TEST_BATCH_STATS, [[0, 1], [1, 0]], [0, 0]),
    (BNMode.TRAIN_STATS, [[0, 1], [1, 0]], [0.2, -0.2])])
def test_reference_forward_by_hand(mode, logits, running_mean):
    """x -> (x, -x) -> BN with eps 0 -> relu -> identity, on x = 1 and 3:
    batch statistics (2, -2) and (1, 1), running ones (0, 0) and (1, 1)."""
    bn = BatchNormLayer.identity(2)
    bn.eps = 0.0
    net = Network(layers=[dense([[1.0], [-1.0]], "relu"), bn,
                          dense(np.eye(2))], k=2)
    out, records = reference_forward(net, np.array([[1.0], [3.0]]), mode)
    np.testing.assert_array_equal(out, logits)
    assert len(records) == 2
    np.testing.assert_allclose(bn.running_mean, running_mean)
    np.testing.assert_allclose(bn.running_var, 1.0)


def test_sgd_step_is_exact():
    params = np.array([[1.0, 1.0]])
    ReferenceSGD(0.5).step(params, np.array([[2.0, -4.0]]))
    np.testing.assert_array_equal(params, [[0.0, 3.0]])


def test_adam_steps_lr_g_over_abs_g_plus_eps_on_a_constant_gradient():
    """Bias correction makes m and v exactly g and g^2 at every t for a
    constant g, so each step is lr g / (|g| + eps); at t = 1 for any g."""
    g = np.array([[1e-3, -2.0, 0.0], [5.0, 1e-9, -0.5]])
    params, adam = np.zeros_like(g), ReferenceAdam(0.1)
    for t in (1, 2, 3):
        adam.step(params, g)
        assert type(adam.t) is int and adam.t == t
        np.testing.assert_allclose(params, -t * 0.1 * g / (np.abs(g)
                                                           + ADAM_EPS),
                                   rtol=1e-9, atol=0)


class TestSampleWeights:
    def test_tau_zero_recovers_uniform(self, rng):
        w = sample_weights(rng.uniform(0.05, 2.0, size=7), tau=0.0, n=4)
        np.testing.assert_allclose(w, 0.25, atol=1e-15)

    def test_unit_entropy_is_scale_free(self):
        np.testing.assert_allclose(sample_weights([1.0], tau=0.5, n=4), 0.25)

    def test_analytic_value(self):
        # 0.25^(-0.5) = 2 exactly
        np.testing.assert_allclose(sample_weights([0.25], tau=0.5, n=1), 2.0)

    def test_strictly_decreasing_in_entropy(self, rng):
        for tau in (0.1, 0.5, 1.0, 5.0):
            h = np.sort(rng.uniform(1e-4, 2.0, size=20))
            w = sample_weights(h, tau=tau, n=20)
            assert np.all(np.diff(w) < 0)

    def test_entropy_clamp_bounds_weights(self):
        w = sample_weights([0.0], tau=2.0, n=1)
        np.testing.assert_allclose(w, EPS_ENTROPY ** -2.0)


def test_accumulator_copies_the_first_gradient_and_steps_on_the_qth():
    acc, sgd = ReferenceAccumulator(2), ReferenceSGD(1.0)
    params = np.ones((1, 2))
    first = np.array([[-0.0, 1.0]])
    assert acc.add(first, sgd, params) is False
    assert acc.accumulated is not first and np.signbit(acc.accumulated[0, 0])
    np.testing.assert_array_equal(params, 1.0)
    assert acc.add(np.array([[0.0, 2.0]]), sgd, params) is True
    assert acc.seen == 0 and acc.accumulated.tolist() == [[0.0, 3.0]]
    np.testing.assert_array_equal(params, [[1.0, -2.0]])


def test_two_forward_rla_averages_a_batch_and_its_flip():
    # logits are each row's first and last entry
    net = Network(layers=[dense([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])], k=2)
    combined, _, aug = two_forward_rla(net, np.array([[1.0, 2.0, 3.0],
                                                      [4.0, 5.0, 6.0]]))
    np.testing.assert_array_equal(aug, [[3, 1], [6, 4]])
    np.testing.assert_array_equal(combined, [[2, 2], [5, 5]])


@pytest.mark.parametrize("strategy, rla, tau", [
    ("tent", False, 0.0), ("tent-filtered", False, 0.0), ("ttc", False, 0.7),
    ("ttc", True, 0.0), ("ttc", True, 0.7)])
def test_stream_steps_down_the_fd_gradient_of_its_loss(rng, strategy, rla,
                                                       tau):
    """After predicting from the affine it was given, one SGD step of lr 1
    moves it by minus the gradient of sum_i w_i H_i, with the weights
    w = [H < threshold] H^-tau / accepted and, under RLA, the flip's
    logits held constant."""
    net = make_network(input_dim=4, hidden=3, k=3, seed=1)
    x = rng.normal(size=(6, 4))
    flip_logits, _ = forward(net, x[:, ::-1], BNMode.TEST_BATCH_STATS)

    def combined(affine):
        logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
        return 0.5 * (logits + flip_logits) if rla else logits

    probs = softmax(combined(net.affine))
    h = entropy(probs)
    threshold = np.median(h) if strategy == "tent-filtered" else np.inf
    w = (h < threshold) * h ** -tau / np.sum(h < threshold)
    ref = ReferenceStream(net, AdaptationConfig(
        strategy=strategy, optimizer="sgd", lr=1.0, rla_enabled=rla,
        wa_enabled=tau > 0, tau=tau, accumulation_q=1,
        filter_threshold=threshold if threshold < np.inf else None), 6)
    preds, ref_probs = ref.adapt_batch(x)
    assert bits(ref_probs) == bits(probs)
    assert preds.tolist() == np.argmax(probs, axis=1).tolist()
    assert finite_diff_check(lambda a: np.sum(w * entropy(softmax(
        combined(a)))), net.affine, net.affine - ref.net.affine) < 1e-6


def test_stream_steps_on_the_mean_gradient_of_q_batches(rng):
    net = make_network(input_dim=4, hidden=3, k=3, seed=2)
    xs = rng.normal(size=(2, 6, 4))
    ref = ReferenceStream(net, AdaptationConfig(
        strategy="ttc", rla_enabled=False, wa_enabled=False,
        accumulation_q=2, optimizer="sgd", lr=1.0), 6)
    ref.adapt_batch(xs[0])
    assert ref.accumulator.seen == 1
    assert bits(ref.net.affine) == bits(net.affine)
    ref.adapt_batch(xs[1])
    assert ref.accumulator.seen == 0

    def mean_entropy(affine):
        return np.mean([entropy(softmax(forward(
            net, x, BNMode.TEST_BATCH_STATS, affine)[0])) for x in xs])

    assert finite_diff_check(mean_entropy, net.affine,
                             net.affine - ref.net.affine) < 1e-6


def test_q_configs_is_tent_at_q_1_and_tent_with_ga_otherwise(rng):
    """A ttc stream without RLA and WA at Q = 1 steps as tent does, bit for
    bit, so Q = 1 is tent itself."""
    common = dict(optimizer="adam", lr=0.05)
    tent, ga = q_configs([1, 3], **common)
    assert tent == AdaptationConfig(strategy="tent", **common)
    assert (ga.strategy, ga.rla_enabled, ga.wa_enabled, ga.ga_enabled,
            ga.accumulation_q, ga.optimizer, ga.lr) == (
                "ttc", False, False, True, 3, "adam", 0.05)
    net = make_network(input_dim=4, hidden=3, k=3, seed=3)
    streams = [ReferenceStream(net, config, 6)
               for config in (tent, dataclasses.replace(ga, accumulation_q=1))]
    for x in rng.normal(size=(3, 6, 4)):
        (_, a), (_, b) = (stream.adapt_batch(x) for stream in streams)
        assert bits(a) == bits(b)
    assert bits(streams[0].net.affine) == bits(streams[1].net.affine)
    assert bits(streams[0].net.affine) != bits(net.affine)


def test_reference_dataset_by_hand():
    """k = 3, m = 5: classes of 2, 2 and 1 rows in label order. Row i is
    the template of its label plus noise row order[i], where the (5, 32)
    noise of sigma 0.1 is drawn first and order = permutation(5) next."""
    inputs, labels = reference_dataset(3, 5, 4)
    rng = np.random.default_rng(4)
    noise = rng.normal(0.0, 0.1, size=(5, 32))
    order = rng.permutation(5)
    assert labels.tolist() == [[0, 0, 1, 1, 2][i] for i in order]
    np.testing.assert_allclose(inputs - class_templates(3)[labels],
                               noise[order], rtol=0, atol=1e-15)


def test_training_steps_on_the_fd_gradient_of_the_cross_entropy(
        monkeypatch):
    """Flip-symmetric rows, which a flip leaves as they are, in one batch:
    each epoch steps on the gradient of the rows' mean cross-entropy."""
    steps, step = [], ReferenceAdam.step

    def recording(self, params, grad):
        steps.append((params.copy(), grad))
        step(self, params, grad)

    monkeypatch.setattr(ReferenceAdam, "step", recording)
    half = np.random.default_rng(0).normal(size=(8, 2))
    inputs, labels = np.hstack([half, half[:, ::-1]]), np.arange(8) % 2
    trained = per_batch_train_source(SignalDataset(inputs, labels, seed=0),
                                     epochs=2, seed=5, hidden=3)
    assert trained.meta == {"seed": 5, "trained_epochs": 2}
    net = make_network(input_dim=4, hidden=3, k=2, seed=5)

    def cross_entropy(params):
        net.params[:] = params
        logits, _ = forward(net, inputs, BNMode.TEST_BATCH_STATS)
        return -np.mean(np.log(softmax(logits)[np.arange(8), labels]))

    assert len(steps) == 2
    for params, grad in steps:
        assert finite_diff_check(cross_entropy, params, grad) < 1e-6


def test_entropy_descent_by_hand():
    """For K = 2, dH/dz_1 = p (1 - p) log((1 - p) / p) = -dH/dz_2, so a step
    moves the logit gap by -2 lr dH/dz_1; a uniform stack stays put."""
    p, lr = 0.6, 0.05
    traj = entropy_descent([p, 1 - p], lr, 1)
    gap = np.log(p / (1 - p)) - 2 * lr * p * (1 - p) * np.log((1 - p) / p)
    np.testing.assert_array_equal(traj[0], [p, 1 - p])
    np.testing.assert_allclose(traj[1, 0], 1 / (1 + np.exp(-gap)),
                               rtol=1e-12)
    np.testing.assert_allclose(entropy_descent(np.full((2, 4), 0.25), lr, 3),
                               0.25, rtol=1e-12)


def test_per_scalar_csv_by_hand():
    traj = np.array([[0.5, -0.0], [1e-300, np.inf]])
    assert per_scalar_csv(traj) == "step,p_1,p_2\n0,0.5,-0.0\n1,1e-300,inf\n"


def test_array_shapes_by_hand():
    # "[S] n* d" with d=2, sizes up to 1
    assert array_shapes([(True, False, None), (False, True, None),
                         (False, False, 2)], 1) == {
        (0, 2), (1, 2), (1, 0, 2), (1, 1, 2)}
    assert array_shapes([(True, False, None)], 1) == {(), (1,)}


def test_kmeans_references_by_hand():
    centers = np.array([[0.0, 0.0], [2.0, 0.0]])
    points = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    # (1, 0) ties, and a tie goes to the lower index
    assert brute_force_assign(points, centers).tolist() == [0, 0, 1]
    counts = np.array([0, 1])
    centers = per_point_update(np.array([[4.0], [8.0], [6.0], [5.0]]),
                               [0, 0, 0, 1], np.array([[9.0], [3.0]]),
                               counts)
    assert centers.tolist() == [[6.0], [4.0]] and counts.tolist() == [3, 2]


def definitions(path):
    """The name and node of each top-level def, class and assignment."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name))


def test_each_reference_is_pinned_here_and_defined_nowhere_else():
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    pinned = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
              | {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)})
    unpinned = [name for name, node in definitions(TESTS / "oracles.py")
                if not isinstance(node, ast.Assign) and name not in pinned]
    assert unpinned == []
    strays = [f"{path.name}:{name}" for path in sorted(TESTS.glob("*.py"))
              if path.name != "oracles.py"
              for name, node in definitions(path)
              if name.lower().startswith("reference")
              or isinstance(node, ast.ClassDef) and any(
                  getattr(f, "name", None) == "step" for f in node.body)]
    assert strays == []
