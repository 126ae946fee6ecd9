import copy

import numpy as np
import pytest

from ttalab.adaptation import (EPS_ENTROPY, STRATEGIES, AdaptationConfig,
                               Adapter, GradientAccumulator, SGD,
                               accumulate_and_maybe_step, default_q,
                               entropy_filter, rla_forward,
                               sample_weights, tent_loss, ttc_loss)
from ttalab.errors import InvalidInput
from ttalab.network import (BNMode, backward_bn_affine, bn_affine_params,
                            forward, make_network, network_to_dict)
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
        adapter = Adapter(net, config, 10)
        before = network_to_dict(net)
        adapter.adapt_batch(small_batch(rng))
        assert network_to_dict(net) == before

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
        for key in sorted(grads):
            idx, name = key.split(".")
            arr = getattr(net.layers[int(idx)], name)
            for j in range(0, arr.size, 2):
                orig = arr[j]
                arr[j] = orig + h
                hi = composite_loss()
                arr[j] = orig - h
                lo = composite_loss()
                arr[j] = orig
                fd = (hi - lo) / (2 * h)
                assert abs(grads[key][j] - fd) / max(1.0, abs(grads[key][j])) < 1e-4

    def test_no_aug_ttc_step_equals_tent_step_bitwise(self, rng):
        x = small_batch(rng)
        net_a = small_net(seed=7)
        net_b = small_net(seed=7)
        cfg_a = AdaptationConfig(strategy="ttc", rla_enabled=False, tau=0.0,
                                 accumulation_q=1, optimizer="sgd", lr=0.05)
        cfg_b = AdaptationConfig(strategy="tent", optimizer="sgd", lr=0.05)
        Adapter(net_a, cfg_a, 10).adapt_batch(x)
        Adapter(net_b, cfg_b, 10).adapt_batch(x)
        assert network_to_dict(net_a) == network_to_dict(net_b)


class TestGradientAccumulation:
    def test_q_one_steps_every_call(self):
        acc = GradientAccumulator(q=1)
        params = {"p": np.zeros(2)}
        opt = SGD(lr=1.0)
        for _ in range(3):
            assert accumulate_and_maybe_step(acc, {"p": np.ones(2)}, opt,
                                             params)
        np.testing.assert_array_equal(params["p"], -3.0)

    def test_q_two_identical_gradients_apply_once(self):
        # gradients arrive already scaled by 1/Q, so the applied update is
        # exactly -lr * g
        g = np.array([2.0, -1.0])
        acc = GradientAccumulator(q=2)
        params = {"p": np.zeros(2)}
        opt = SGD(lr=0.5)
        assert not accumulate_and_maybe_step(acc, {"p": g / 2}, opt, params)
        np.testing.assert_array_equal(params["p"], 0.0)
        assert accumulate_and_maybe_step(acc, {"p": g / 2}, opt, params)
        np.testing.assert_array_equal(params["p"], -0.5 * g)
        assert acc.batches_seen == 0 and acc.accumulated == {}

    def test_union_batch_equivalence_with_frozen_stats(self):
        # Q batches with frozen BN statistics and plain SGD must equal a
        # single SGD step on the union batch
        rng = np.random.default_rng(42)
        q, n = 4, 8
        net_acc = small_net(seed=1)
        net_union = small_net(seed=1)
        batches = [small_batch(rng, n=n) for _ in range(q)]
        params = bn_affine_params(net_acc)
        acc = GradientAccumulator(q=q)
        opt = SGD(lr=0.1)
        for b in batches:
            logits, cache = forward(net_acc, b, BNMode.EVAL_STATS)
            _, gl = tent_loss(logits)
            grads = backward_bn_affine(net_acc, cache, gl / q)
            accumulate_and_maybe_step(acc, grads, opt, params)
        union = np.vstack(batches)
        logits, cache = forward(net_union, union, BNMode.EVAL_STATS)
        _, gl = tent_loss(logits)
        grads = backward_bn_affine(net_union, cache, gl)
        SGD(lr=0.1).step(bn_affine_params(net_union), grads)
        for key, arr in bn_affine_params(net_acc).items():
            np.testing.assert_allclose(arr, bn_affine_params(net_union)[key],
                                       atol=1e-8)

    def test_batch_stats_mode_accumulates_gradients_as_computed(self, rng):
        # with per-batch statistics the defined semantics is the average of
        # the per-batch gradients, matched exactly
        q = 3
        net = small_net(seed=2)
        batches = [small_batch(rng) for _ in range(q)]
        expected = {}
        acc = GradientAccumulator(q=q)
        opt = SGD(lr=0.0)  # no-op step, we only inspect the sum
        for b in batches:
            logits, cache = forward(net, b, BNMode.TEST_BATCH_STATS)
            _, gl = tent_loss(logits)
            grads = backward_bn_affine(net, cache, gl / q)
            for key, g in grads.items():
                expected[key] = expected.get(key, 0.0) + g
            if acc.batches_seen == q - 1:
                snapshot = {k: acc.accumulated[k] + grads[k]
                            for k in grads}
            accumulate_and_maybe_step(acc, grads, opt, bn_affine_params(net))
        for key in expected:
            np.testing.assert_array_equal(snapshot[key], expected[key])


class TestAdaptBatch:
    def test_source_strategy_is_idempotent(self, rng):
        net = small_net()
        adapter = Adapter(net, AdaptationConfig(strategy="source"), 10)
        x = small_batch(rng)
        before = network_to_dict(net)
        p1, _ = adapter.adapt_batch(x)
        p2, _ = adapter.adapt_batch(x)
        np.testing.assert_array_equal(p1, p2)
        assert network_to_dict(net) == before

    def test_norm_strategy_never_steps(self, rng):
        net = small_net()
        adapter = Adapter(net, AdaptationConfig(strategy="norm"), 10)
        before = network_to_dict(net)
        for _ in range(3):
            adapter.adapt_batch(small_batch(rng))
        assert network_to_dict(net) == before

    def test_tent_single_sgd_step_closed_form(self, rng):
        x = small_batch(rng)
        lr = 0.07
        net = small_net(seed=4)
        reference = copy.deepcopy(net)
        logits, cache = forward(reference, x, BNMode.TEST_BATCH_STATS)
        _, gl = tent_loss(logits)
        manual = backward_bn_affine(reference, cache, gl)
        expected = {key: arr - lr * manual[key]
                    for key, arr in bn_affine_params(reference).items()}
        adapter = Adapter(net, AdaptationConfig(strategy="tent", lr=lr,
                                                optimizer="sgd"), 10)
        adapter.adapt_batch(x)
        for key, arr in bn_affine_params(net).items():
            np.testing.assert_array_equal(arr, expected[key])

    def test_degeneration_chain_matches_tent(self, rng):
        x_batches = [small_batch(rng) for _ in range(10)]
        net_tent = small_net(seed=6)
        net_ttc = small_net(seed=6)
        tent = Adapter(net_tent, AdaptationConfig(strategy="tent"), 10)
        ttc = Adapter(net_ttc, AdaptationConfig(
            strategy="ttc", rla_enabled=False, wa_enabled=False,
            ga_enabled=True, accumulation_q=1), 10)
        for x in x_batches:
            p_a, _ = tent.adapt_batch(x)
            p_b, _ = ttc.adapt_batch(x)
            np.testing.assert_array_equal(p_a, p_b)
            for key, arr in bn_affine_params(net_tent).items():
                np.testing.assert_allclose(
                    arr, bn_affine_params(net_ttc)[key], atol=1e-12)

    def test_predictions_precede_the_update(self, rng):
        x = small_batch(rng)
        net_step = small_net(seed=8)
        net_wait = small_net(seed=8)
        stepping = Adapter(net_step, AdaptationConfig(
            strategy="ttc", rla_enabled=False, wa_enabled=False,
            accumulation_q=1, lr=5.0, optimizer="sgd"), 10)
        waiting = Adapter(net_wait, AdaptationConfig(
            strategy="ttc", rla_enabled=False, wa_enabled=False,
            accumulation_q=100, lr=5.0, optimizer="sgd"), 10)
        frozen = copy.deepcopy(net_step)
        pre_logits, _ = forward(frozen, x, BNMode.TEST_BATCH_STATS)
        expected = np.argmax(softmax(pre_logits), axis=1)
        p_step, _ = stepping.adapt_batch(x)
        p_wait, _ = waiting.adapt_batch(x)
        np.testing.assert_array_equal(p_step, expected)
        np.testing.assert_array_equal(p_wait, expected)

    def test_empty_batch_rejected(self):
        adapter = Adapter(small_net(), AdaptationConfig(strategy="tent"), 10)
        with pytest.raises(InvalidInput):
            adapter.adapt_batch(np.empty((0, 8)))

    @pytest.mark.parametrize("ga", [True, False])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_q_resolved_at_construction(self, strategy, ga):
        config = AdaptationConfig(strategy=strategy, ga_enabled=ga)
        q = Adapter(small_net(), config, 10).accumulator.q
        assert q == (default_q(10) if strategy == "ttc" and ga else 1)

    def test_nonpositive_batch_size_rejected(self):
        with pytest.raises(InvalidInput):
            Adapter(small_net(), AdaptationConfig(), 0)

    def test_adam_moments_persist_across_batches(self, rng):
        net = small_net(seed=9)
        adapter = Adapter(net, AdaptationConfig(strategy="tent",
                                                optimizer="adam"), 10)
        adapter.adapt_batch(small_batch(rng))
        assert adapter.optimizer.t == 1
        adapter.adapt_batch(small_batch(rng))
        assert adapter.optimizer.t == 2


class TestConfig:
    def test_json_roundtrip(self):
        config = AdaptationConfig(strategy="ttc", tau=0.25, accumulation_q=4)
        doc = config.to_json()
        assert AdaptationConfig.from_json(doc) == config

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidInput):
            AdaptationConfig.from_json({"strategy": "tent", "momentum": 0.9})

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
