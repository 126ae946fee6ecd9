import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ttalab.adaptation import (STRATEGIES, SGD, AdaptationConfig, Adam,
                               Adapter, Window, accumulate_and_maybe_step,
                               default_q, flip_signal, rla_forward,
                               tent_loss, ttc_loss, with_flips)
from ttalab.errors import InvalidInput
from ttalab.network import BNMode, backward_bn_affine, forward, make_network
from ttalab.numeric import entropy, entropy_grad_logits, softmax

from oracles import (ReferenceAccumulator, ReferenceAdam, ReferenceSGD,
                     ReferenceStream, bits, finite_diff_check,
                     network_to_dict, q_configs, sample_weights,
                     two_forward_rla)


def small_net(seed=0):
    return make_network(input_dim=8, hidden=6, k=3, seed=seed)


def small_batch(rng, n=10, d=8):
    return rng.normal(size=(n, d))


def rla_of(net, x, affine, flips):
    """``rla_forward`` on an (S, N, d) stack and its (S, A) affine rows,
    flipping the streams ``flips`` indexes."""
    flips = np.asarray(flips, dtype=np.intp)
    rows = np.concatenate([np.arange(len(x)), flips])
    return rla_forward(net, with_flips(x, flips), affine[rows], flips)


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


class TestTtcLoss:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 3.0])
    def test_weights_are_the_oracle_bit_for_bit(self, rng, tau):
        z = rng.normal(scale=3.0, size=(2, 6, 4))
        z[0, 0] = [60.0, 0.0, 0.0, 0.0]  # an entropy below EPS_ENTROPY
        h = entropy(softmax(z))
        w = sample_weights(h, tau, 6)
        loss, grad = ttc_loss(z, tau, 6)
        assert bits(loss) == bits(np.sum(w * h, axis=-1))
        assert bits(grad) == bits(w[..., None] * entropy_grad_logits(z))

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
    def test_no_update_when_nothing_accepted(self, rng):
        net = small_net()
        config = AdaptationConfig(strategy="tent-filtered",
                                  filter_threshold=1e-9, optimizer="sgd")
        adapter = Adapter(net, [config], 10)
        adapter.adapt_batch(small_batch(rng)[None])
        assert adapter.affine.tobytes() == net.affine.tobytes()
        assert window_of(adapter, 0)[1].batches_seen == 0


class TestRlaForward:
    def test_flip_symmetric_input_is_fixed_point(self, rng):
        net = small_net()
        half = rng.normal(size=(6, 4))
        x = np.hstack([half, half[:, ::-1]])  # rows equal their reversal
        combined, _, _ = rla_of(net, x[None], net.affine[None], [0])
        plain, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
        np.testing.assert_allclose(combined[0], plain, atol=1e-12)

    def test_gradient_matches_fd_with_frozen_augmented_branch(self, rng):
        net = small_net(seed=3)
        x = small_batch(rng, n=12)
        combined, cache, aug_logits = rla_of(net, x[None], net.affine[None],
                                             [0])
        combined, aug_logits = combined[0], aug_logits[0]
        _, g_combined = ttc_loss(combined, tau=0.5, n=12)
        grads = backward_bn_affine(net, cache, 0.5 * g_combined[None])[0]

        h0 = entropy(softmax(combined))
        w0 = sample_weights(h0, 0.5, 12)

        def composite_loss(affine):
            live, _ = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
            comb = 0.5 * (live + aug_logits)
            return float(np.sum(w0 * entropy(softmax(comb))))

        assert finite_diff_check(composite_loss, net.affine, grads) < 1e-4

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

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_filter_accepting_every_sample_is_tent_bitwise(self, rng,
                                                            optimizer):
        """Above log K the filter accepts every row, and its weight
        1/accepted is tent's 1/N."""
        net = small_net(seed=5)
        lr = {"sgd": 0.5, "adam": 0.05}[optimizer]
        filtered = Adapter(net, [AdaptationConfig(
            strategy="tent-filtered", filter_threshold=np.log(net.k) + 0.1,
            optimizer=optimizer, lr=lr)] * 3, 10)
        tent = Adapter(net, [AdaptationConfig(
            strategy="tent", optimizer=optimizer, lr=lr)] * 3, 10)
        for _ in range(20):
            x = rng.normal(size=(3, 10, 8))
            preds, probs = filtered.adapt_batch(x)
            tent_preds, tent_probs = tent.adapt_batch(x)
            assert preds.tobytes() == tent_preds.tobytes()
            assert probs.tobytes() == tent_probs.tobytes()
        assert filtered.affine.tobytes() == tent.affine.tobytes()
        assert (filtered.affine != net.affine).any()  # the streams moved


@st.composite
def rla_inputs(draw):
    """A network, an (S, N, d) stack holding signed zeros, and affine rows
    moved off the network's own: entries set to 0.0 or -0.0, or one ulp up
    or down."""
    s = draw(st.integers(1, 6))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = make_network(input_dim=8, hidden=6, k=3,
                       seed=int(rng.integers(97)))
    x = signed_zeros(rng, (s, n, 8))
    affine = np.tile(net.affine, (s, 1))
    move = rng.choice(5, size=affine.shape, p=[0.6, 0.1, 0.1, 0.1, 0.1])
    affine[move == 1] = 0.0
    affine[move == 2] = -0.0
    affine = np.where(move == 3, np.nextafter(affine, np.inf), affine)
    affine = np.where(move == 4, np.nextafter(affine, -np.inf), affine)
    return net, x, affine, signed_zeros(rng, x.shape[:-1] + (3,))


class TestRlaIsOneStackedForward:
    @settings(max_examples=200)
    @given(case=rla_inputs())
    def test_matches_two_forwards_bit_for_bit(self, case):
        net, x, affine, g = case
        combined, cache, aug = rla_of(net, x, affine, np.arange(len(x)))
        ref_combined, ref_cache, ref_aug = two_forward_rla(net, x, affine)
        assert bits(combined) == bits(ref_combined)
        assert bits(aug) == bits(ref_aug)
        assert len(cache.records) == len(ref_cache.records)
        for (x_in, bn_rec, mask), (ref_x_in, ref_bn_rec, ref_mask) in zip(
                cache.records, ref_cache.records):
            assert bits(x_in) == bits(ref_x_in)
            assert bits(mask) == bits(ref_mask)
            assert (bn_rec is None) == (ref_bn_rec is None)
            if bn_rec is not None:
                assert [bits(a) for a in bn_rec[:2]] == [
                    bits(a) for a in ref_bn_rec[:2]]
                assert bn_rec[2] == ref_bn_rec[2]
        assert bits(cache.affine) == bits(ref_cache.affine)
        assert (bits(backward_bn_affine(net, cache, g))
                == bits(backward_bn_affine(net, ref_cache, g)))

    @settings(max_examples=100)
    @given(case=rla_inputs(), flips=st.lists(st.booleans(), min_size=6,
                                             max_size=6))
    def test_masked_streams_keep_their_own_logits(self, case, flips):
        """Only the streams the mask names flip; the others get the logits
        and cache of a plain forward, bit for bit."""
        net, x, affine, g = case
        rla = np.array(flips[:len(x)])
        combined, cache, aug = rla_of(net, x, affine, np.flatnonzero(rla))
        flipped, flipped_cache, flipped_aug = two_forward_rla(net, x, affine)
        plain, plain_cache = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
        assert bits(aug) == bits(flipped_aug[rla])
        for s, on in enumerate(rla):
            want = flipped if on else plain
            assert bits(combined[s]) == bits(want[s])
        assert (bits(backward_bn_affine(net, cache, g))
                == bits(backward_bn_affine(net, plain_cache, g)))

    @pytest.mark.parametrize("spoil", ["nan", "inf", "columns", "one row",
                                       "no rows"])
    def test_bad_input_to_an_rla_adapter_raises(self, rng, spoil):
        """An Adapter whose second stream has RLA raises on a bad stack with
        its flip, and names the shape the caller passed."""
        net = small_net()
        adapter = Adapter(net, [
            AdaptationConfig(strategy="ttc", rla_enabled=False),
            AdaptationConfig(strategy="ttc")], 10)
        x = rng.normal(size=(2, 10, 8))
        if spoil == "nan":
            x[1, 7, 4] = np.nan
        elif spoil == "inf":
            x[0, 0, 0] = -np.inf
        elif spoil == "columns":
            x = x[..., :7]
        elif spoil == "one row":
            x = x[:, :1]
        else:
            x = x[:, :0]
        x = with_flips(x, adapter.flips)
        if spoil in ("nan", "inf"):
            match = "non-finite"
        elif spoil == "one row":
            match = "at least 2"
        else:
            match = re.escape(f"got shape {x.shape}")
        with pytest.raises(InvalidInput, match=match):
            adapter.adapt_batch(x)
        assert (adapter.affine == net.affine).all()  # nothing stepped


def counting(monkeypatch, module, name, counts):
    """Replace ``module.name`` by a wrapper that counts its calls; a name
    the module does not hold is counted at 0 unless code binds it."""
    fn = getattr(module, name, None)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    counts[name] = 0
    monkeypatch.setattr(module, name, wrapper, raising=False)


class TestOneForwardOneSoftmaxPerBatch:
    @pytest.mark.parametrize("config", [
        AdaptationConfig(strategy="source"),
        AdaptationConfig(strategy="norm"),
        AdaptationConfig(strategy="tent"),
        AdaptationConfig(strategy="tent-filtered", filter_threshold=1.1),
        AdaptationConfig(strategy="ttc", accumulation_q=2),
        AdaptationConfig(strategy="ttc", rla_enabled=False, accumulation_q=2),
    ], ids=["source", "norm", "tent", "tent-filtered", "ttc", "ttc-norla"])
    def test_counts_per_adapted_batch(self, monkeypatch, rng, config):
        from ttalab import adaptation, numeric

        net = small_net()
        adapter = Adapter(net, [config] * 2, 10)
        counts = {}
        for name in ("forward", "rla_forward", "softmax", "ttc_loss",
                     "tent_loss"):
            counting(monkeypatch, adaptation, name, counts)
        for module in (adaptation, numeric):  # the adapter binds neither
            for name in ("entropy", "entropy_grad_logits"):
                counting(monkeypatch, module, name, counts)
        batches = 4
        for _ in range(batches):
            adapter.adapt_batch(with_flips(rng.normal(size=(2, 10, 8)),
                                           adapter.flips))
        rla = config.strategy == "ttc" and config.rla_enabled
        assert counts == {"forward": batches, "rla_forward": rla * batches,
                          "softmax": batches, "ttc_loss": 0, "tent_loss": 0,
                          "entropy": 0, "entropy_grad_logits": 0}
        learns = config.strategy not in ("source", "norm")
        assert (adapter.affine != net.affine).any() == learns


@pytest.mark.parametrize("strategy", ["source", "norm", "tent",
                                      "tent-filtered"])
def test_only_a_learning_plan_keeps_a_backward_cache(monkeypatch, rng,
                                                     strategy):
    """Without RLA the adapter runs ``forward`` with a cache exactly when
    its plan learns: source and norm predict from an uncached forward."""
    from ttalab import adaptation

    caches = []

    def recording(*args, **kwargs):
        logits, cache = forward(*args, **kwargs)
        caches.append(cache is not None)
        return logits, cache
    monkeypatch.setattr(adaptation, "forward", recording)
    adapter = Adapter(small_net(), [AdaptationConfig(strategy=strategy)] * 2,
                      10)
    for _ in range(3):
        adapter.adapt_batch(rng.normal(size=(2, 10, 8)))
    assert caches == [adapter.plan.learns] * 3


def sweep_configs(q):
    """The four streams of a sweep-batch-size cell at two seeds, sorted by
    Q as adapt_streams sorts them: tent and ttc without GA in a window of
    Q = 1, then tent with GA and ttc in a window of Q = q."""
    def ttc(**switches):
        return AdaptationConfig(strategy="ttc", accumulation_q=q, **switches)
    return [AdaptationConfig(strategy="tent")] * 2 + [
        ttc(ga_enabled=False)] * 2 + [
        ttc(rla_enabled=False, wa_enabled=False)] * 2 + [ttc()] * 2


# the filter sits out every batch: a network of this size never gets
# an entropy below it
SITTING_OUT = AdaptationConfig(strategy="tent-filtered", filter_threshold=1e-3)


@pytest.mark.parametrize(("configs", "windows"), [
    ([AdaptationConfig(strategy="source")] * 2, 0),
    ([AdaptationConfig(strategy="norm")] * 2, 0),
    ([AdaptationConfig(strategy="tent")] * 2, 1),
    ([AdaptationConfig(strategy="ttc", accumulation_q=2)] * 2, 1),
    (sweep_configs(3), 2),
    ([SITTING_OUT], 0),
    ([SITTING_OUT, AdaptationConfig(strategy="tent")], 1),
], ids=["source", "norm", "tent", "ttc", "sweep-mixed-q", "filter-sits-out",
        "filter-sits-out-beside-tent"])
def test_array_rule_passes_per_adapted_batch(monkeypatch, rng, configs,
                                             windows):
    """Each adapted batch passes the array rule once per argument that
    ``forward``, ``softmax``, the backward pass and each window that steps
    or accumulates on it take: forward's affine and batch, softmax's
    logits, then, if some stream learns on the batch, the backward pass's
    loss gradient and the grad of ``accumulate_and_maybe_step`` per window.
    A check added to the per-batch path fails this count, not only a
    timing."""
    from ttalab import adaptation, errors, network, numeric

    passes = []

    def counted(name, *args, **kwargs):
        passes.append(name)
        return errors._array(name, *args, **kwargs)
    for module in (adaptation, network, numeric):
        monkeypatch.setattr(module, "_array", counted)
    net = small_net()
    adapter = Adapter(net, configs, 10)
    for _ in range(3):
        x = with_flips(rng.normal(size=(len(configs), 10, 8)), adapter.flips)
        passes.clear()
        adapter.adapt_batch(x)
        learned = ["loss_grad_logits"] + ["grad"] * windows if windows else []
        assert passes == ["affine", "batch", "logits"] + learned
    for config, row in zip(configs, adapter.affine):
        if config is SITTING_OUT:
            assert row.tobytes() == net.affine.tobytes()


def read_only(array):
    array.flags.writeable = False
    return array


class TestGradientAccumulation:
    def test_q_one_steps_every_call(self):
        params = np.zeros((1, 2))
        window = Window(params, 1, SGD(lr=1.0))
        for _ in range(3):
            assert accumulate_and_maybe_step(window, np.ones((1, 2))) is True
        np.testing.assert_array_equal(params, -3.0)

    def test_q_two_identical_gradients_apply_once(self):
        # gradients arrive already scaled by 1/Q, so the applied update is
        # exactly -lr * g
        g = np.array([[2.0, -1.0]])
        params = np.zeros((1, 2))
        window = Window(params, 2, SGD(lr=0.5))
        assert accumulate_and_maybe_step(window, g / 2) is False
        np.testing.assert_array_equal(params, 0.0)
        assert accumulate_and_maybe_step(window, g / 2) is True
        np.testing.assert_array_equal(params, -0.5 * g)
        # the next window starts afresh from its first gradient
        assert window.batches_seen == 0
        assert accumulate_and_maybe_step(window, g) is False
        np.testing.assert_array_equal(window.accumulated, g)

    def test_a_float32_params_is_stepped_in_place(self):
        params = np.zeros((1, 2), dtype=np.float32)
        window = Window(params, 1, SGD(lr=1.0))
        assert window.params is params
        accumulate_and_maybe_step(window, np.ones((1, 2)))
        assert params.dtype == np.float32 and params.tolist() == [[-1, -1]]

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 3, 1)],
                             ids=["vector", "two-rows-for-one", "3-d"])
    def test_only_a_stack_of_one_row_per_stream_is_taken(self, shape):
        window = Window(np.zeros((1, 3)), 2, SGD(lr=1.0))
        for _ in range(2):  # refused at the first batch and at a later one
            state = window.batches_seen, bits(window.accumulated)
            with pytest.raises(InvalidInput, match="^" + re.escape(
                    f"grad must be a (S, P) array with S=1, P=3, got shape"
                    f" {shape}") + "$"):
                accumulate_and_maybe_step(window, np.ones(shape))
            assert (window.batches_seen, bits(window.accumulated)) == state
            assert window.params.tolist() == [[0.0] * 3]
            accumulate_and_maybe_step(window, np.full((1, 3), -0.0))

    @pytest.mark.parametrize("params, got", [
        (np.zeros(3), "shape (3,) of dtype float64"),
        (np.zeros((1, 3, 1)), "shape (1, 3, 1) of dtype float64"),
        (np.zeros((1, 3), dtype=np.int64), "shape (1, 3) of dtype int64"),
        ([[0.0, 0.0]], "a list of shape (1, 2)"),
        (read_only(np.zeros((1, 2))),
         "a read-only array of shape (1, 2) of dtype float64"),
    ], ids=["vector", "3-d", "integer", "list", "read-only"])
    def test_params_the_window_cannot_step_in_place_are_refused(self, params,
                                                                got):
        with pytest.raises(InvalidInput, match="^" + re.escape(
                f"params must be a (S, P) writeable float array, got {got}")
                + "$"):
            Window(params, 1, SGD(lr=1.0))

    @pytest.mark.parametrize("q", [0, 1.5, True])
    def test_a_q_below_one_or_not_an_integer_is_refused(self, q):
        with pytest.raises(InvalidInput, match=rf"^q .*{re.escape(repr(q))}$"):
            Window(np.zeros((1, 3)), q, SGD(lr=1.0))


def signed_zeros(rng, shape):
    """Normal values with about a quarter of the entries 0.0 or -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.125] = 0.0
    a[rng.random(shape) < 0.125] = -0.0
    return a


class TestAccumulateAndStepMatchReference:
    @settings(max_examples=150)
    @given(s=st.integers(1, 3), p=st.integers(1, 40), q=st.integers(1, 5),
           length=st.integers(1, 16),
           optimizer=st.sampled_from(["sgd", "adam"]),
           lr=st.sampled_from([1e-3, 0.05, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_steps_are_bit_identical(self, s, p, q, length, optimizer, lr,
                                     seed):
        rng = np.random.default_rng(seed)
        cls, ref_cls = {"sgd": (SGD, ReferenceSGD),
                        "adam": (Adam, ReferenceAdam)}[optimizer]
        params = signed_zeros(rng, (s, p))
        ref_params = params.copy()
        opt, ref_opt = cls(lr), ref_cls(lr)
        window, ref_acc = Window(params, q, opt), ReferenceAccumulator(q)
        for _ in range(length):  # stream lengths cross window boundaries
            grad = signed_zeros(rng, (s, p))
            assert (accumulate_and_maybe_step(window, grad)
                    is ref_acc.add(grad, ref_opt, ref_params))
            assert window.batches_seen == ref_acc.seen
            # after a step, the sum holds the gradient the step applied
            assert bits(window.accumulated) == bits(ref_acc.accumulated)
            assert bits(params) == bits(ref_params)
        if optimizer == "adam":
            assert opt.t == ref_opt.t == length // q
            assert [bits(opt.m), bits(opt.v)] == [bits(ref_opt.m),
                                                  bits(ref_opt.v)]

    def test_first_gradient_of_a_window_keeps_negative_zero(self):
        window = Window(np.zeros((1, 2)), 1, SGD(1.0))
        accumulate_and_maybe_step(window, np.array([[-0.0, 1.0]]))
        assert np.signbit(window.accumulated[0, 0])  # the gradient applied


@st.composite
def adam_runs(draw):
    """A shape, (P,) or (S, P), and 1-5 gradients of that shape."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = draw(st.integers(1, 6))
    s = draw(st.sampled_from([None, 1, 2, 4]))
    shape = (p,) if s is None else (s, p)
    grads = [signed_zeros(rng, shape) * 10.0 ** draw(st.integers(-3, 3))
             for _ in range(draw(st.integers(1, 5)))]
    return signed_zeros(rng, shape), grads


class TestAdamInPlace:
    @settings(max_examples=150)
    @given(run=adam_runs(), lr=st.sampled_from([1e-3, 0.05, 1.0]))
    def test_moments_steps_and_params_bit_identical(self, run, lr):
        start, grads = run
        ours, oracle = Adam(lr), ReferenceAdam(lr)
        params, ref_params = start.copy(), start.copy()
        for grad in grads:
            ours.step(params, grad)
            oracle.step(ref_params, grad)
            assert params.tobytes() == ref_params.tobytes()
            assert ours.t == oracle.t
            assert ours.m.tobytes() == oracle.m.tobytes()
            assert ours.v.tobytes() == oracle.v.tobytes()

    def test_two_optimizers_share_no_buffer(self, rng):
        a, b = Adam(0.1), Adam(0.1)
        for opt in (a, b):
            opt.step(np.zeros((2, 3)), rng.normal(size=(2, 3)))
        for x in (a.m, a.v, *a._scratch):
            for y in (b.m, b.v, *b._scratch):
                assert not np.shares_memory(x, y)


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
        ((_, window),) = Adapter(small_net(), [config], 10).windows
        assert window.q == (default_q(10) if strategy == "ttc" and ga else 1)

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True,
                                            np.float64(4)], ids=repr)
    def test_bad_batch_size_rejected_naming_it(self, batch_size):
        with pytest.raises(InvalidInput, match=(
                rf"^batch_size .*{re.escape(repr(batch_size))}$")):
            Adapter(small_net(), [AdaptationConfig()], batch_size)

    def test_streams_of_different_plans_rejected(self):
        with pytest.raises(InvalidInput, match="share one plan"):
            Adapter(small_net(), [AdaptationConfig(strategy="tent"),
                                  AdaptationConfig(strategy="norm")], 10)

    @pytest.mark.parametrize("first, other", [
        (AdaptationConfig(strategy="norm"),
         AdaptationConfig(strategy="source")),
        (AdaptationConfig(strategy="tent"),
         AdaptationConfig(strategy="tent", optimizer="sgd")),
        (AdaptationConfig(strategy="tent"),
         AdaptationConfig(strategy="tent", lr=0.02)),
    ], ids=["bn-mode", "optimizer", "lr"])
    def test_streams_differing_in_what_they_share_rejected(self, first,
                                                           other):
        with pytest.raises(InvalidInput, match="share one plan"):
            Adapter(small_net(), [first, other], 10)

    def test_adam_moments_persist_across_batches(self, rng):
        adapter, adapt = one_stream(small_net(seed=9), AdaptationConfig(
            strategy="tent", optimizer="adam"))
        optimizer = window_of(adapter, 0)[1].optimizer
        adapt(small_batch(rng))
        assert optimizer.t == 1
        adapt(small_batch(rng))
        assert optimizer.t == 2


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

    @pytest.mark.parametrize("q", [2.5, 3.0, True, False, np.float64(2.0),
                                   np.bool_(True), "3"],
                             ids=repr)
    def test_non_integer_q_rejected_naming_it(self, q):
        with pytest.raises(InvalidInput, match=re.escape(repr(q))):
            AdaptationConfig(accumulation_q=q)

    @pytest.mark.parametrize("field, value", [
        ("lr", True), ("lr", "0.1"), ("lr", None), ("tau", False),
        ("tau", "1"), ("tau", np.bool_(True)), ("filter_threshold", True),
        ("filter_threshold", "0.5")], ids=repr)
    def test_non_number_rejected_naming_field_and_value(self, field, value):
        with pytest.raises(InvalidInput,
                           match=f"^{field} .*{re.escape(repr(value))}$"):
            AdaptationConfig(strategy="tent-filtered", **{field: value})

    @pytest.mark.parametrize("field, value, rule", [
        ("lr", 10**400, "finite and positive"),
        ("lr", -10**400, "finite and positive"),
        ("tau", 10**400, "finite and non-negative"),
        ("tau", -10**400, "finite and non-negative"),
        ("filter_threshold", -10**400, "positive")], ids=repr)
    def test_int_beyond_the_float_range_is_infinite(self, field, value, rule):
        shown = "inf" if value > 0 else "-inf"
        with pytest.raises(InvalidInput,
                           match=f"^{field} must be {rule}, got {shown}$"):
            AdaptationConfig(strategy="tent-filtered", **{field: value})

    def test_threshold_beyond_the_float_range_is_accepted_as_inf(self):
        config = AdaptationConfig(strategy="tent-filtered",
                                  filter_threshold=10**400)
        assert config.filter_threshold == float("inf")

    def test_reals_are_stored_as_floats(self):
        config = AdaptationConfig(lr=np.float64(0.1), tau=np.float32(1.0),
                                  filter_threshold=Fraction(1, 2))
        assert config.to_json() == AdaptationConfig(
            lr=0.1, tau=1.0, filter_threshold=0.5).to_json()
        assert {type(config.lr), type(config.tau),
                type(config.filter_threshold)} == {float}

    @pytest.mark.parametrize("value", ["no", 1, None], ids=repr)
    @pytest.mark.parametrize("field", ["rla_enabled", "wa_enabled",
                                       "ga_enabled"])
    def test_non_bool_switch_rejected_naming_it(self, field, value):
        pattern = rf"^{field} must be a bool, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInput, match=pattern):
            AdaptationConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.bool_(False), np.bool_(True)],
                             ids=repr)
    @pytest.mark.parametrize("field", ["rla_enabled", "wa_enabled",
                                       "ga_enabled"])
    def test_numpy_bool_switch_is_stored_as_a_bool(self, field, value):
        config = AdaptationConfig(**{field: value})
        assert type(getattr(config, field)) is bool
        assert config == AdaptationConfig(**{field: bool(value)})
        assert json.dumps(config.to_json()) == json.dumps(
            AdaptationConfig(**{field: bool(value)}).to_json())

    def test_numpy_integer_q_is_stored_as_an_int(self):
        config = AdaptationConfig(strategy="ttc", accumulation_q=np.int64(3))
        assert type(config.accumulation_q) is int
        assert config == AdaptationConfig(strategy="ttc", accumulation_q=3)

    def test_default_q_rule(self):
        assert default_q(100) == 2
        assert default_q(200) == 1
        assert default_q(1000) == 1
        assert default_q(10) == 20


# ---------------------------------------------------------------------------
# the stacked engine against a one-stream-at-a-time reference
# ---------------------------------------------------------------------------

LEARNING = ("tent", "tent-filtered", "ttc")


def stream_config(draw, strategy, common):
    """One stream's config of a learning strategy: tent with Q in 1-5 (ttc
    without RLA and WA for Q > 1), tent-filtered at a threshold where some
    batches may accept no sample, or ttc with any ablation, tau and Q."""
    if strategy == "tent":
        return q_configs([draw(st.integers(1, 5))], **common)[0]
    if strategy == "tent-filtered":
        threshold = draw(st.sampled_from([1e-9, 0.7, 0.9, 1.0])
                         | st.floats(0.05, 1.2))
        return AdaptationConfig(strategy=strategy, filter_threshold=threshold,
                                **common)
    # tau = 1 is numpy's reciprocal, which an array exponent rounds apart
    return AdaptationConfig(
        strategy="ttc", rla_enabled=draw(st.booleans()),
        wa_enabled=draw(st.booleans()), ga_enabled=draw(st.booleans()),
        accumulation_q=draw(st.sampled_from([None, 1, 2, 3, 5])),
        tau=draw(st.sampled_from([0.0, 0.5, 0.7, 1.0, 2.0])), **common)


@st.composite
def stacked_runs(draw):
    """S streams of one plan, so one Adapter: all of one strategy, or each
    of tent, tent-filtered or ttc, sharing one optimizer and lr."""
    s = draw(st.integers(1, 6))
    n = draw(st.integers(2, 12))
    # stream lengths with every tail, m = 1 (mod N) folds included
    m = draw(st.integers(1, 4)) * n + draw(st.sampled_from([0, 1, 1, n - 1]))
    optimizer = draw(st.sampled_from(["sgd", "adam"]))
    common = dict(optimizer=optimizer,
                  lr={"sgd": 0.5, "adam": 0.05}[optimizer])
    group = draw(st.sampled_from(STRATEGIES + ("mixed",)))
    if group in ("source", "norm"):
        configs = [AdaptationConfig(strategy=group, **common)] * s
    else:
        configs = [stream_config(draw, draw(st.sampled_from(LEARNING))
                                 if group == "mixed" else group, common)
                   for _ in range(s)]
    return dict(configs=configs, n=n, m=m,
                seed=draw(st.integers(0, 2**32 - 1)))


def window_of(adapter, s):
    """The (rows, Window) pair of an Adapter that holds stream s."""
    (pair,) = [(rows, window) for rows, window in adapter.windows
               if rows.start <= s < rows.stop]
    return pair


def assert_matches_reference(adapter, s, ref):
    """Stream s of ``adapter`` holds the affine row, window count and sum,
    and Adam t, m and v, of ``ref``, a ReferenceStream fed its batches."""
    rows, window = window_of(adapter, s)
    row, opt = s - rows.start, window.optimizer
    assert bits(adapter.affine[s]) == bits(ref.net.affine)
    assert window.batches_seen == ref.accumulator.seen
    pairs = [(window.accumulated, ref.accumulator.accumulated)]
    if isinstance(opt, Adam):
        assert opt.t == ref.optimizer.t
        pairs += [(opt.m, ref.optimizer.m), (opt.v, ref.optimizer.v)]
    for ours, theirs in pairs:
        assert bits(None if ours is None else ours[row]) == bits(theirs)


class TestPreFlippedStack:
    """A trip hands ``adapt_batch`` its (S + R, N, d) stack with the flips
    already in it, which gives every stream what its ReferenceStream gives
    it."""

    @settings(max_examples=100)
    @given(run=stacked_runs(), batches=st.integers(3, 6))
    def test_pre_flipped_and_alone_agree(self, run, batches):
        from unittest import mock

        from ttalab import adaptation

        configs, n = run["configs"], run["n"]
        assume(configs[0].strategy != "source")  # rla_of runs batch stats
        s = len(configs)
        rla = np.array([c.strategy == "ttc" and c.rla_enabled
                        for c in configs])
        rng = np.random.default_rng(run["seed"])
        net = make_network(input_dim=8, hidden=6, k=3, seed=run["seed"] % 97)
        data = rng.normal(size=(batches, s, n, 8))
        flipped = Adapter(net, configs, n)
        references = [ReferenceStream(net, c, n) for c in configs]
        for x in data:
            want, _, _ = rla_of(net, x, flipped.affine.copy(),
                                np.flatnonzero(rla))
            with mock.patch.object(adaptation, "softmax",
                                   wraps=softmax) as spy:
                preds, probs = flipped.adapt_batch(
                    np.concatenate([x, flip_signal(x[rla])]))
            assert bits(spy.call_args.args[0]) == bits(want)
            for i, ref in enumerate(references):
                assert ([bits(a) for a in ref.adapt_batch(x[i])]
                        == [bits(preds[i]), bits(probs[i])])
        for i, ref in enumerate(references):
            assert_matches_reference(flipped, i, ref)

    def test_a_stack_of_another_length_is_named(self, rng):
        adapter = Adapter(small_net(), [
            AdaptationConfig(strategy="ttc"),
            AdaptationConfig(strategy="ttc", rla_enabled=False)], 10)
        adapter.adapt_batch(rng.normal(size=(3, 10, 8)))  # with the flip
        for s in (1, 2, 4):  # named against the 2 streams and the flip
            with pytest.raises(InvalidInput, match="^" + re.escape(
                    "batch must be a non-empty (S, N, d) array with S=3,"
                    f" d=8, got shape ({s}, 10, 8)") + "$"):
                adapter.adapt_batch(rng.normal(size=(s, 10, 8)))


class TestQWindows:
    def test_q_sorted_configs_give_one_window_per_distinct_q(self):
        adapter = Adapter(small_net(), q_configs([1, 1, 1, 3, 3, 5]), 10)
        assert [(rows.start, rows.stop, w.q)
                for rows, w in adapter.windows] == [(0, 3, 1), (3, 5, 3),
                                                    (5, 6, 5)]
        assert [w.batches_seen for _, w in adapter.windows] == [0, 0, 0]

    def test_each_window_steps_its_rows_of_the_adapters_affine(self, rng):
        net = small_net()
        adapter = Adapter(net, q_configs([1, 1, 3], optimizer="sgd"), 10)
        adapter.adapt_batch(rng.normal(size=(3, 10, 8)))
        for rows, window in adapter.windows:
            assert np.shares_memory(window.params, adapter.affine)
            assert bits(window.params) == bits(adapter.affine[rows])
        # the Q = 1 window stepped, in the Adapter's rows; Q = 3 waits
        assert [row.tobytes() != net.affine.tobytes()
                for row in adapter.affine] == [True, True, False]

    def test_adapt_streams_sorts_each_group_by_q(self, rng):
        from unittest import mock

        from ttalab import benchmark
        from ttalab.benchmark import StreamProtocol, adapt_streams

        built = []

        class Recorded(Adapter):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        qs = [3, 1, 5, 1, 3, 1]
        streams = [(None, StreamProtocol(batch_size=4, seed=s), config)
                   for s, config in enumerate(q_configs(qs))]
        inputs, labels = rng.normal(size=(12, 8)), rng.integers(0, 3, 12)
        with mock.patch.object(benchmark, "Adapter", Recorded):
            adapt_streams(small_net(), inputs, labels, streams)
        (adapter,) = built
        assert [w.q for _, w in adapter.windows] == [1, 3, 5]
        assert [rows.stop - rows.start
                for rows, _ in adapter.windows] == [3, 2, 1]

    def test_interleaved_q_with_a_skipping_filter_matches_each_alone(self):
        from ttalab.benchmark import batch_slices

        # windows of Q 1, 1, 3, 1, 3; the filter is a window of its own
        common = dict(optimizer="adam", lr=0.05)
        configs = [AdaptationConfig(strategy="tent-filtered",
                                    filter_threshold=0.8, **common),
                   AdaptationConfig(strategy="tent", **common),
                   AdaptationConfig(strategy="ttc", accumulation_q=3,
                                    **common),
                   AdaptationConfig(strategy="tent", **common),
                   AdaptationConfig(strategy="ttc", rla_enabled=False,
                                    accumulation_q=3, tau=1.0, **common)]
        net, n, m = small_net(), 4, 36
        data = np.random.default_rng(3).normal(size=(len(configs), m, 8))
        mixed = Adapter(net, configs, n)
        assert [(rows.stop - rows.start, w.q)
                for rows, w in mixed.windows] == [(1, 1), (1, 1), (1, 3),
                                                  (1, 1), (1, 3)]
        references = [ReferenceStream(net, c, n) for c in configs]
        batches = batch_slices(m, n)
        for batch in batches:
            preds, probs = mixed.adapt_batch(
                with_flips(data[:, batch], mixed.flips))
            for i, ref in enumerate(references):
                assert ([bits(a) for a in ref.adapt_batch(data[i, batch])]
                        == [bits(preds[i]), bits(probs[i])])
        # the filter stream sat some batches out and stepped on others
        assert 0 < references[0].optimizer.t < len(batches)
        for i, ref in enumerate(references):
            assert_matches_reference(mixed, i, ref)


class TestStackMatchesSequentialReference:
    @settings(max_examples=250)
    @given(run=stacked_runs())
    def test_every_stream_matches_its_run_alone(self, run):
        from ttalab.benchmark import batch_slices

        configs, n, m = run["configs"], run["n"], run["m"]
        rng = np.random.default_rng(run["seed"])
        net = make_network(input_dim=8, hidden=6, k=3, seed=run["seed"] % 97)
        data = rng.normal(size=(len(configs), m, 8))
        adapter = Adapter(net, configs, n)
        for s, config in enumerate(configs):
            if config.strategy == "tent-filtered":
                assert window_of(adapter, s)[0] == slice(s, s + 1)
        references = [ReferenceStream(net, c, n) for c in configs]
        for batch in batch_slices(m, n):
            preds, probs = adapter.adapt_batch(
                with_flips(data[:, batch], adapter.flips))
            for s, ref in enumerate(references):
                assert ([bits(a) for a in ref.adapt_batch(data[s, batch])]
                        == [bits(preds[s]), bits(probs[s])])
        for s, ref in enumerate(references):
            assert_matches_reference(adapter, s, ref)

    @settings(max_examples=80)
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
                predictions[idx] = ref.adapt_batch(inputs[idx])[0]
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
                adapter.adapt_batch(with_flips(data[:, batch], adapter.flips))
        assert str(stacked.value) == str(alone.value)
