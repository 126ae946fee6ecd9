import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttalab.adaptation import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, EPS_ENTROPY,
                               STRATEGIES, SGD, AdaptationConfig, Adam,
                               Adapter, GradientAccumulator,
                               accumulate_and_maybe_step, default_q,
                               default_filter_threshold, entropy_filter,
                               make_optimizer, rla_forward, sample_weights,
                               tent_loss, ttc_loss)
from ttalab.errors import InvalidInput
from ttalab.network import (BNMode, backward_bn_affine, forward, make_network,
                            network_to_dict)
from ttalab.numeric import entropy, finite_diff_check, softmax


def small_net(seed=0):
    return make_network(input_dim=8, hidden=6, k=3, seed=seed)


def small_batch(rng, n=10, d=8):
    return rng.normal(size=(n, d))


class TestTentLoss:
    def test_uniform_rows_are_stationary(self):
        logits = np.zeros((4, 10))
        loss, grad = tent_loss(logits)
        np.testing.assert_allclose(loss, np.log(10), atol=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_single_binary_row_matches_chain_rule_and_fd(self, rng):
        z = rng.normal(scale=2.0, size=(1, 2))
        _, grad = tent_loss(z)
        # dH/dz_1 = p(1-p) * log((1-p)/p) with p the first-class probability
        p = softmax(z[0])[0]
        expected = p * (1 - p) * np.log((1 - p) / p)
        np.testing.assert_allclose(grad[0, 0], expected, rtol=1e-10)
        err = finite_diff_check(lambda v: tent_loss(v[None, :])[0], z[0],
                                grad[0])
        assert err < 1e-5

    def test_duplicating_batch_keeps_loss(self, rng):
        z = rng.normal(size=(5, 4))
        loss_one, _ = tent_loss(z)
        loss_two, _ = tent_loss(np.vstack([z, z]))
        np.testing.assert_allclose(loss_one, loss_two, rtol=1e-12)

    def test_gradient_matches_finite_differences_batched(self, rng):
        z = rng.normal(size=(3, 5))
        _, grad = tent_loss(z)
        err = finite_diff_check(lambda v: tent_loss(v.reshape(3, 5))[0],
                                z.ravel(), grad.ravel())
        assert err < 1e-5


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


class TestTtcLoss:
    def test_tau_zero_degenerates_to_tent(self, rng):
        z = rng.normal(size=(6, 4))
        loss_t, grad_t = tent_loss(z)
        loss_c, grad_c = ttc_loss(z, tau=0.0, n=6)
        assert abs(loss_t - loss_c) < 1e-12
        np.testing.assert_allclose(grad_c, grad_t, atol=1e-12)

    def test_low_entropy_row_upweighted_ten_times(self):
        # construct 3-class rows whose entropies hit 0.1 and 1.0 by bisection
        def logits_with_entropy(target):
            lo, hi = 0.0, 30.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                h = entropy(softmax(np.array([mid, 0.0, 0.0])))
                if h > target:
                    lo = mid
                else:
                    hi = mid
            return np.array([0.5 * (lo + hi), 0.0, 0.0])

        rows = np.vstack([logits_with_entropy(0.1), logits_with_entropy(1.0)])
        h = entropy(softmax(rows))
        np.testing.assert_allclose(h, [0.1, 1.0], atol=1e-9)
        _, grad_equal = tent_loss(rows)
        _, grad_w = ttc_loss(rows, tau=1.0, n=2)
        ratio = np.linalg.norm(grad_w[0]) / np.linalg.norm(grad_equal[0])
        np.testing.assert_allclose(ratio, 10.0, rtol=1e-6)

    def test_gradient_matches_fd_with_frozen_weights(self, rng):
        z = rng.normal(size=(4, 3))
        tau = 0.7
        h0 = entropy(softmax(z))
        w0 = sample_weights(h0, tau, 4)
        _, grad = ttc_loss(z, tau=tau, n=4)

        def frozen_loss(flat):
            zz = flat.reshape(4, 3)
            return float(np.sum(w0 * entropy(softmax(zz))))

        err = finite_diff_check(frozen_loss, z.ravel(), grad.ravel())
        assert err < 1e-5


class TestEntropyFilter:
    def test_threshold_above_log_k_accepts_all(self, rng):
        k = 6
        h = entropy(softmax(rng.normal(size=(20, k))))
        assert entropy_filter(h, np.log(k) + 1.0).all()

    def test_vanishing_threshold_accepts_none(self, rng):
        h = entropy(softmax(rng.normal(size=(20, 4))))
        assert not entropy_filter(h, 1e-12).any()

    def test_no_update_when_nothing_accepted(self, rng):
        net = small_net()
        config = AdaptationConfig(strategy="tent-filtered",
                                  filter_threshold=1e-9, optimizer="sgd")
        adapter = Adapter(net, [config], 10)
        adapter.adapt_batch(small_batch(rng)[None])
        assert adapter.affine.tobytes() == net.affine.tobytes()
        assert adapter.accumulator.batches_seen == [0]

    def test_only_low_entropy_sample_contributes(self):
        confident = np.array([8.0, 0.0, 0.0])
        uncertain = np.array([0.1, 0.0, 0.0])
        rows = np.vstack([confident, uncertain])
        h = entropy(softmax(rows))
        threshold = float(np.mean(h))
        mask = entropy_filter(h, threshold)
        assert mask.tolist() == [True, False]
        _, g_single = tent_loss(rows[:1])
        grad = np.zeros_like(rows)
        grad[mask] = tent_loss(rows[mask])[1]
        np.testing.assert_array_equal(grad[0], g_single[0])
        np.testing.assert_array_equal(grad[1], 0.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(InvalidInput):
            entropy_filter(np.array([0.5]), 0.0)


class TestRlaForward:
    def test_flip_symmetric_input_is_fixed_point(self, rng):
        net = small_net()
        half = rng.normal(size=(6, 4))
        x = np.hstack([half, half[:, ::-1]])  # rows equal their reversal
        combined, _, _ = rla_forward(net, x)
        plain, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
        np.testing.assert_allclose(combined, plain, atol=1e-12)

    def test_gradient_matches_fd_with_frozen_augmented_branch(self, rng):
        net = small_net(seed=3)
        x = small_batch(rng, n=12)
        combined, cache, aug_logits = rla_forward(net, x)
        _, g_combined = ttc_loss(combined, tau=0.5, n=12)
        grads = backward_bn_affine(net, cache, 0.5 * g_combined)

        h0 = entropy(softmax(combined))
        w0 = sample_weights(h0, 0.5, 12)

        def composite_loss():
            live, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
            comb = 0.5 * (live + aug_logits)
            return float(np.sum(w0 * entropy(softmax(comb))))

        h = 1e-5
        arr = net.affine
        for j in range(arr.size):
            orig = arr[j]
            arr[j] = orig + h
            hi = composite_loss()
            arr[j] = orig - h
            lo = composite_loss()
            arr[j] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(grads[j] - fd) / max(1.0, abs(grads[j])) < 1e-4

    def test_no_aug_ttc_step_equals_tent_step_bitwise(self, rng):
        x = small_batch(rng)
        net_a = small_net(seed=7)
        net_b = small_net(seed=7)
        cfg_a = AdaptationConfig(strategy="ttc", rla_enabled=False, tau=0.0,
                                 accumulation_q=1, optimizer="sgd", lr=0.05)
        cfg_b = AdaptationConfig(strategy="tent", optimizer="sgd", lr=0.05)
        adapter_a = Adapter(net_a, [cfg_a], 10)
        adapter_b = Adapter(net_b, [cfg_b], 10)
        adapter_a.adapt_batch(x[None])
        adapter_b.adapt_batch(x[None])
        assert adapter_a.affine.tobytes() == adapter_b.affine.tobytes()


class TestGradientAccumulation:
    def test_q_one_steps_every_call(self):
        acc = GradientAccumulator([1])
        params = np.zeros((1, 2))
        opt = SGD(lr=1.0)
        for _ in range(3):
            assert accumulate_and_maybe_step(acc, np.ones((1, 2)), opt,
                                             params) == [True]
        np.testing.assert_array_equal(params, -3.0)

    def test_q_two_identical_gradients_apply_once(self):
        # gradients arrive already scaled by 1/Q, so the applied update is
        # exactly -lr * g
        g = np.array([[2.0, -1.0]])
        acc = GradientAccumulator([2])
        params = np.zeros((1, 2))
        opt = SGD(lr=0.5)
        assert accumulate_and_maybe_step(acc, g / 2, opt, params) == [False]
        np.testing.assert_array_equal(params, 0.0)
        assert accumulate_and_maybe_step(acc, g / 2, opt, params) == [True]
        np.testing.assert_array_equal(params, -0.5 * g)
        # the next window starts afresh from its first gradient
        assert acc.batches_seen == [0]
        assert accumulate_and_maybe_step(acc, g, opt, params) == [False]
        np.testing.assert_array_equal(acc.accumulated, g)

    def test_union_batch_equivalence_with_frozen_stats(self):
        # Q batches with frozen BN statistics and plain SGD must equal a
        # single SGD step on the union batch
        rng = np.random.default_rng(42)
        q, n = 4, 8
        net_acc = small_net(seed=1)
        net_union = small_net(seed=1)
        batches = [small_batch(rng, n=n) for _ in range(q)]
        acc = GradientAccumulator([q])
        opt = SGD(lr=0.1)
        for b in batches:
            logits, cache = forward(net_acc, b, BNMode.EVAL_STATS)
            _, gl = tent_loss(logits)
            grads = backward_bn_affine(net_acc, cache, gl / q)
            accumulate_and_maybe_step(acc, grads[None], opt,
                                      net_acc.affine[None])
        union = np.vstack(batches)
        logits, cache = forward(net_union, union, BNMode.EVAL_STATS)
        _, gl = tent_loss(logits)
        grads = backward_bn_affine(net_union, cache, gl)
        SGD(lr=0.1).step(net_union.affine, grads)
        np.testing.assert_allclose(net_acc.affine, net_union.affine,
                                   atol=1e-8)

    def test_batch_stats_mode_accumulates_gradients_as_computed(self, rng):
        # with per-batch statistics the defined semantics is the average of
        # the per-batch gradients, matched exactly
        q = 3
        net = small_net(seed=2)
        batches = [small_batch(rng) for _ in range(q)]
        expected = 0.0
        acc = GradientAccumulator([q])
        opt = SGD(lr=0.0)  # no-op step, we only inspect the sum
        for b in batches:
            logits, cache = forward(net, b, BNMode.TEST_BATCH_STATS)
            _, gl = tent_loss(logits)
            grads = backward_bn_affine(net, cache, gl / q)
            expected = expected + grads
            if acc.batches_seen == [q - 1]:
                snapshot = acc.accumulated[0] + grads
            accumulate_and_maybe_step(acc, grads[None], opt, net.affine[None])
        np.testing.assert_array_equal(snapshot, expected)
        np.testing.assert_array_equal(acc.accumulated, expected[None])

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 3, 1)],
                             ids=["vector", "two-rows-for-one", "3-d"])
    def test_only_a_stack_of_one_row_per_stream_is_taken(self, shape):
        acc = GradientAccumulator([2])
        with pytest.raises(InvalidInput, match=re.escape(str(shape))):
            accumulate_and_maybe_step(acc, np.ones(shape), SGD(lr=1.0),
                                      np.zeros(shape), live=[False])
        assert acc.accumulated is None and acc.batches_seen == [0]

    @settings(max_examples=100, deadline=None)
    @given(qs=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           length=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           optimizer=st.sampled_from(["sgd", "adam"]))
    def test_a_stream_sitting_a_batch_out_keeps_every_bit(self, qs, length,
                                                          seed, optimizer):
        rng = np.random.default_rng(seed)
        acc = GradientAccumulator(qs)
        opt = make_optimizer(optimizer, 0.1)
        params = signed_zeros(rng, (len(qs), 5))
        for _ in range(length):
            live = (rng.random(len(qs)) < 0.6).tolist()
            before = (None if acc.accumulated is None
                      else acc.accumulated.copy(), list(acc.batches_seen),
                      params.copy())
            stepped = accumulate_and_maybe_step(
                acc, signed_zeros(rng, params.shape), opt, params, live)
            for s in np.flatnonzero(np.logical_not(live)):
                assert not stepped[s]
                assert acc.batches_seen[s] == before[1][s]
                assert params[s].tobytes() == before[2][s].tobytes()
                if before[0] is not None:
                    assert (acc.accumulated[s].tobytes()
                            == before[0][s].tobytes())


class DictSGD:
    """The per-array SGD the vector SGD replaced, kept as the oracle."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for key, g in grads.items():
            params[key] -= self.lr * g


class DictAdam:
    """The per-array Adam the vector Adam replaced, kept as the oracle."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.t += 1
        for key, g in grads.items():
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(g)
                self.m[key] = m
                self.v[key] = np.zeros_like(g)
            v = self.v[key]
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            mhat = m / (1.0 - ADAM_BETA1 ** self.t)
            vhat = v / (1.0 - ADAM_BETA2 ** self.t)
            params[key] -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def dict_accumulate_and_maybe_step(acc, grads, optimizer, params):
    """The per-array accumulator the vector one replaced; ``acc`` is a dict
    with ``q``, ``accumulated`` (a dict) and ``batches_seen``."""
    for key, g in grads.items():
        if key in acc["accumulated"]:
            acc["accumulated"][key] += g
        else:
            acc["accumulated"][key] = g.copy()
    acc["batches_seen"] += 1
    if acc["batches_seen"] >= acc["q"]:
        optimizer.step(params, acc["accumulated"])
        acc["accumulated"] = {}
        acc["batches_seen"] = 0
        return True
    return False


def recording(cls):
    """An optimizer class that also keeps a copy of every gradient it
    applies."""
    class Recording(cls):
        def __init__(self, lr):
            super().__init__(lr)
            self.applied = []

        def step(self, params, grads, *rows):
            self.applied.append(copy.deepcopy(grads))
            super().step(params, grads, *rows)
    return Recording


def signed_zeros(rng, shape):
    """Normal values with about a quarter of the entries 0.0 or -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.125] = 0.0
    a[rng.random(shape) < 0.125] = -0.0
    return a


def flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays.values()])


class TestVectorMatchesPerArrayPath:
    @settings(max_examples=150, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(1, 5), min_size=1,
                                    max_size=2).map(tuple),
                           min_size=1, max_size=4),
           q=st.integers(1, 5), length=st.integers(1, 16),
           optimizer=st.sampled_from(["sgd", "adam"]),
           lr=st.sampled_from([1e-3, 0.05, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_steps_are_bit_identical(self, shapes, q, length, optimizer, lr,
                                     seed):
        rng = np.random.default_rng(seed)
        cls, ref_cls = {"sgd": (SGD, DictSGD),
                        "adam": (Adam, DictAdam)}[optimizer]
        ref_params = {f"{i}.p": signed_zeros(rng, shape)
                      for i, shape in enumerate(shapes)}
        params = flat(ref_params)[None]
        opt, ref_opt = recording(cls)(lr), recording(ref_cls)(lr)
        acc = GradientAccumulator([q])
        ref_acc = {"q": q, "accumulated": {}, "batches_seen": 0}
        for _ in range(length):  # stream lengths cross window boundaries
            ref_grads = {key: signed_zeros(rng, a.shape)
                         for key, a in ref_params.items()}
            stepped = accumulate_and_maybe_step(acc, flat(ref_grads)[None],
                                                opt, params)
            assert stepped == [dict_accumulate_and_maybe_step(
                ref_acc, ref_grads, ref_opt, ref_params)]
            assert acc.batches_seen == [ref_acc["batches_seen"]]
            if acc.batches_seen[0]:
                assert (acc.accumulated.tobytes()
                        == flat(ref_acc["accumulated"]).tobytes())
            assert params.tobytes() == flat(ref_params).tobytes()
        assert len(opt.applied) == len(ref_opt.applied) == length // q
        for applied, ref_applied in zip(opt.applied, ref_opt.applied):
            assert applied.tobytes() == flat(ref_applied).tobytes()
        if optimizer == "adam" and opt.applied:
            assert opt.t.tolist() == [ref_opt.t]
            assert opt.m.tobytes() == flat(ref_opt.m).tobytes()
            assert opt.v.tobytes() == flat(ref_opt.v).tobytes()

    def test_first_gradient_of_a_window_keeps_negative_zero(self):
        opt = recording(SGD)(1.0)
        acc = GradientAccumulator([1])
        accumulate_and_maybe_step(acc, np.array([[-0.0, 1.0]]), opt,
                                  np.zeros((1, 2)))
        assert np.signbit(opt.applied[0][0, 0])


def one_stream(net, config, batch_size=10):
    """An Adapter of one stream and a function adapting it on an (N, d)
    batch, returning the stream's predictions."""
    adapter = Adapter(net, [config], batch_size)
    return adapter, lambda x: adapter.adapt_batch(x[None])[0][0]


class TestAdaptBatch:
    def test_source_strategy_is_idempotent(self, rng):
        net = small_net()
        adapter, adapt = one_stream(net, AdaptationConfig(strategy="source"))
        x = small_batch(rng)
        before = network_to_dict(net)
        p1 = adapt(x)
        p2 = adapt(x)
        np.testing.assert_array_equal(p1, p2)
        assert network_to_dict(net) == before
        assert adapter.affine.tobytes() == net.affine.tobytes()

    def test_norm_strategy_never_steps(self, rng):
        net = small_net()
        adapter, adapt = one_stream(net, AdaptationConfig(strategy="norm"))
        for _ in range(3):
            adapt(small_batch(rng))
        assert adapter.affine.tobytes() == net.affine.tobytes()

    def test_tent_single_sgd_step_closed_form(self, rng):
        x = small_batch(rng)
        lr = 0.07
        net = small_net(seed=4)
        reference = copy.deepcopy(net)
        logits, cache = forward(reference, x, BNMode.TEST_BATCH_STATS)
        _, gl = tent_loss(logits)
        manual = backward_bn_affine(reference, cache, gl)
        expected = reference.affine - lr * manual
        adapter, adapt = one_stream(net, AdaptationConfig(
            strategy="tent", lr=lr, optimizer="sgd"))
        adapt(x)
        np.testing.assert_array_equal(adapter.affine[0], expected)

    def test_degeneration_chain_matches_tent(self, rng):
        x_batches = [small_batch(rng) for _ in range(10)]
        tent, adapt_tent = one_stream(small_net(seed=6),
                                      AdaptationConfig(strategy="tent"))
        ttc, adapt_ttc = one_stream(small_net(seed=6), AdaptationConfig(
            strategy="ttc", rla_enabled=False, wa_enabled=False,
            ga_enabled=True, accumulation_q=1))
        for x in x_batches:
            np.testing.assert_array_equal(adapt_tent(x), adapt_ttc(x))
            np.testing.assert_allclose(tent.affine, ttc.affine, atol=1e-12)

    def test_predictions_precede_the_update(self, rng):
        x = small_batch(rng)
        net = small_net(seed=8)
        # one stream steps on this batch, the other waits: Q = 1 and 100
        adapter = Adapter(net, [AdaptationConfig(
            strategy="ttc", rla_enabled=False, wa_enabled=False,
            accumulation_q=q, lr=5.0, optimizer="sgd") for q in (1, 100)],
            10)
        pre_logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
        expected = np.argmax(softmax(pre_logits), axis=1)
        preds, _ = adapter.adapt_batch(np.stack([x, x]))
        np.testing.assert_array_equal(preds, [expected, expected])
        assert adapter.affine[1].tobytes() == net.affine.tobytes()
        assert adapter.affine[0].tobytes() != net.affine.tobytes()

    def test_empty_batch_rejected(self):
        adapter, _ = one_stream(small_net(), AdaptationConfig(strategy="tent"))
        with pytest.raises(InvalidInput):
            adapter.adapt_batch(np.empty((1, 0, 8)))
        with pytest.raises(InvalidInput):
            adapter.adapt_batch(np.empty((2, 4, 8)))  # two streams, not one

    def test_bare_batch_rejected_naming_its_shape(self, rng):
        adapter, _ = one_stream(small_net(), AdaptationConfig(strategy="tent"))
        with pytest.raises(InvalidInput, match=r"\(10, 8\)"):
            adapter.adapt_batch(small_batch(rng))  # (N, d), not (1, N, d)

    @pytest.mark.parametrize("ga", [True, False])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_q_resolved_at_construction(self, strategy, ga):
        config = AdaptationConfig(strategy=strategy, ga_enabled=ga)
        q = Adapter(small_net(), [config], 10).accumulator.q
        assert q == [default_q(10) if strategy == "ttc" and ga else 1]

    def test_nonpositive_batch_size_rejected(self):
        with pytest.raises(InvalidInput):
            Adapter(small_net(), [AdaptationConfig()], 0)

    def test_streams_of_different_plans_rejected(self):
        with pytest.raises(InvalidInput, match="share one plan"):
            Adapter(small_net(), [AdaptationConfig(strategy="tent"),
                                  AdaptationConfig(strategy="norm")], 10)

    def test_adam_moments_persist_across_batches(self, rng):
        adapter, adapt = one_stream(small_net(seed=9), AdaptationConfig(
            strategy="tent", optimizer="adam"))
        adapt(small_batch(rng))
        assert adapter.optimizer.t == 1
        adapt(small_batch(rng))
        assert adapter.optimizer.t == 2


class TestConfig:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidInput):
            AdaptationConfig(strategy="sgd")
        with pytest.raises(InvalidInput):
            AdaptationConfig(lr=0.0)
        with pytest.raises(InvalidInput):
            AdaptationConfig(tau=-0.5)
        with pytest.raises(InvalidInput):
            AdaptationConfig(accumulation_q=0)

    def test_default_q_rule(self):
        assert default_q(100) == 2
        assert default_q(200) == 1
        assert default_q(1000) == 1
        assert default_q(10) == 20


# ---------------------------------------------------------------------------
# the stacked engine against a one-stream-at-a-time reference
# ---------------------------------------------------------------------------

class ReferenceSGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grad):
        params -= self.lr * grad


class ReferenceAdam:
    """Adam on one stream's vector, with one Python-int step count."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = self.v = None

    def step(self, params, grad):
        self.t += 1
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
        self.m += (1.0 - ADAM_BETA1) * (grad - self.m)
        self.v += (1.0 - ADAM_BETA2) * (grad * grad - self.v)
        mhat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        vhat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


class ReferenceStream:
    """One stream adapted on its own, one (N, d) batch per call, on a copy
    of the network: the oracle every stream of a stacked Adapter matches
    bit for bit."""

    def __init__(self, net, config, batch_size):
        self.net = copy.deepcopy(net)
        strategy = config.strategy
        ttc = strategy == "ttc"
        self.optimizer = {"sgd": ReferenceSGD,
                          "adam": ReferenceAdam}[config.optimizer](config.lr)
        self.mode = (BNMode.EVAL_STATS if strategy == "source"
                     else BNMode.TEST_BATCH_STATS)
        self.learns = strategy not in ("source", "norm")
        self.rla = ttc and config.rla_enabled
        self.tau = config.tau if ttc and config.wa_enabled else None
        self.threshold = None
        if strategy == "tent-filtered":
            self.threshold = (config.filter_threshold
                              or default_filter_threshold(net.k))
        self.q = 1
        if ttc and config.ga_enabled:
            self.q = config.accumulation_q or default_q(batch_size)
        self.grad_scale = (0.5 if self.rla else 1.0) / self.q
        self.accumulated = None
        self.seen = 0

    def adapt_batch(self, x):
        if self.rla:
            logits, cache, _ = rla_forward(self.net, x)
        else:
            logits, cache = forward(self.net, x, self.mode)
        probs = softmax(logits)
        preds = np.argmax(probs, axis=1)
        if not self.learns:
            return preds
        if self.threshold is not None:
            mask = entropy_filter(entropy(probs), self.threshold)
            if not mask.any():
                return preds
            grad = np.zeros_like(logits)
            grad[mask] = tent_loss(logits[mask])[1]
        elif self.tau is not None:
            _, grad = ttc_loss(logits, self.tau, x.shape[0])
        else:
            _, grad = tent_loss(logits)
        g = backward_bn_affine(self.net, cache, self.grad_scale * grad)
        if self.seen:
            self.accumulated += g
        else:
            self.accumulated = g.copy()
        self.seen += 1
        if self.seen >= self.q:
            self.optimizer.step(self.net.affine, self.accumulated)
            self.seen = 0
        return preds


def group_configs(draw, strategy, s):
    """S configs of one plan for a strategy; Q is drawn per stream."""
    optimizer = draw(st.sampled_from(["sgd", "adam"]))
    lr = {"sgd": 0.5, "adam": 0.05}[optimizer]
    common = dict(optimizer=optimizer, lr=lr)
    if strategy in ("source", "norm"):
        return [AdaptationConfig(strategy=strategy, **common)] * s
    if strategy == "tent-filtered":
        # thresholds at which some batches accept no sample
        threshold = draw(st.sampled_from([1e-9, 0.7, 0.9, 1.0]))
        return [AdaptationConfig(strategy=strategy, filter_threshold=threshold,
                                 **common)] * s
    if strategy == "tent":  # tent, and tent with accumulation
        qs = draw(st.lists(st.integers(1, 5), min_size=s, max_size=s))
        return [AdaptationConfig(strategy="tent", **common) if q == 1 else
                AdaptationConfig(strategy="ttc", rla_enabled=False,
                                 wa_enabled=False, accumulation_q=q, **common)
                for q in qs]
    rla, wa = draw(st.booleans()), draw(st.booleans())
    qs = draw(st.lists(st.integers(1, 5), min_size=s, max_size=s))
    return [AdaptationConfig(strategy="ttc", rla_enabled=rla, wa_enabled=wa,
                             accumulation_q=q, tau=0.7, **common)
            for q in qs]


@st.composite
def stacked_runs(draw):
    s = draw(st.integers(1, 6))
    n = draw(st.integers(2, 12))
    # stream lengths with every tail, m = 1 (mod N) folds included
    m = draw(st.integers(1, 4)) * n + draw(st.sampled_from([0, 1, 1, n - 1]))
    strategy = draw(st.sampled_from(STRATEGIES))
    return dict(configs=group_configs(draw, strategy, s), n=n, m=m,
                seed=draw(st.integers(0, 2**32 - 1)))


def final_adam_state(optimizer, s):
    """Per-stream (t, m, v) of the Adapter's Adam; zeros before a step."""
    if optimizer.t is None:
        return np.zeros(s), None, None
    return (np.reshape(optimizer.t, s), np.reshape(optimizer.m, (s, -1)),
            np.reshape(optimizer.v, (s, -1)))


class TestStackMatchesSequentialReference:
    @settings(max_examples=250, deadline=None)
    @given(run=stacked_runs())
    def test_every_stream_matches_its_run_alone(self, run):
        from ttalab.benchmark import batch_slices

        configs, n, m = run["configs"], run["n"], run["m"]
        rng = np.random.default_rng(run["seed"])
        net = make_network(input_dim=8, hidden=6, k=3, seed=run["seed"] % 97)
        data = rng.normal(size=(len(configs), m, 8))
        adapter = Adapter(net, configs, n)
        references = [ReferenceStream(net, c, n) for c in configs]
        for batch in batch_slices(m, n):
            preds, _ = adapter.adapt_batch(data[:, batch])
            for s, ref in enumerate(references):
                assert preds[s].tolist() == ref.adapt_batch(
                    data[s, batch]).tolist()
        for s, ref in enumerate(references):
            assert adapter.affine[s].tobytes() == ref.net.affine.tobytes()
            if isinstance(ref.optimizer, ReferenceAdam):
                t, adam_m, adam_v = final_adam_state(adapter.optimizer,
                                                     len(configs))
                assert t[s] == ref.optimizer.t
                if ref.optimizer.m is not None:
                    assert adam_m[s].tobytes() == ref.optimizer.m.tobytes()
                    assert adam_v[s].tobytes() == ref.optimizer.v.tobytes()
                elif adam_m is not None:
                    assert not adam_m[s].any() and not adam_v[s].any()

    @settings(max_examples=80, deadline=None)
    @given(run=stacked_runs(), cap=st.sampled_from([1, 12, 200]),
           mixed=st.booleans())
    def test_grouped_streams_report_what_they_get_alone(self, run, cap,
                                                        mixed):
        """adapt_streams over streams of one or several plans, under any
        row cap, against each stream's reference run in its own order."""
        from unittest import mock

        from ttalab import benchmark
        from ttalab.benchmark import StreamProtocol, adapt_streams

        configs, n, m = run["configs"], run["n"], run["m"]
        rng = np.random.default_rng(run["seed"])
        if mixed:  # streams of other plans interleaved with the group
            configs = [c if i % 2 else AdaptationConfig(strategy=strategy)
                       for i, (c, strategy) in enumerate(zip(
                           configs, rng.choice(STRATEGIES, len(configs))))]
        net = make_network(input_dim=8, hidden=6, k=3, seed=run["seed"] % 97)
        inputs = rng.normal(size=(m, 8))
        labels = rng.integers(0, 3, size=m)
        streams = [(None, StreamProtocol(batch_size=n, seed=s), c)
                   for s, c in enumerate(configs)]
        with mock.patch.object(benchmark, "MAX_TRIP_ROWS", cap):
            results = adapt_streams(net, inputs, labels, streams)
        for (_, protocol, config), (accuracy, per_batch, row) in zip(
                streams, results):
            order = np.random.default_rng(protocol.seed).permutation(m)
            ref = ReferenceStream(net, config, n)
            predictions = np.empty(m, dtype=np.int64)
            expected = []
            for batch in benchmark.batch_slices(m, n):
                idx = order[batch]
                predictions[idx] = ref.adapt_batch(inputs[idx])
                expected.append(float(np.mean(predictions[idx]
                                              == labels[idx])))
            assert per_batch == expected
            assert accuracy == float(np.mean(predictions == labels))
            assert row.tobytes() == ref.net.affine.tobytes()

    @pytest.mark.parametrize("strategy", ["norm", "tent", "ttc"])
    def test_non_finite_batch_raises_as_it_does_alone(self, rng, strategy):
        from ttalab.benchmark import batch_slices

        net = small_net()
        configs = [AdaptationConfig(strategy=strategy)] * 3
        data = rng.normal(size=(3, 40, 8))
        data[1, 23, 4] = np.nan  # stream 1, batch 2
        with pytest.raises(InvalidInput) as alone:
            ref = ReferenceStream(net, configs[1], 10)
            for batch in batch_slices(40, 10):
                ref.adapt_batch(data[1, batch])
        adapter = Adapter(net, configs, 10)
        with pytest.raises(InvalidInput) as stacked:
            for batch in batch_slices(40, 10):
                adapter.adapt_batch(data[:, batch])
        assert str(stacked.value) == str(alone.value)
