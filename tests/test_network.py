import copy
import io
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ttalab.adaptation import AdaptationConfig, tent_loss
from ttalab.benchmark import StreamProtocol, adapt_streams, params_digest
from ttalab.errors import InvalidInput
from ttalab.network import (BatchNormLayer, BNMode, DenseLayer, Network,
                            _backward, _batch_stats, _forward, backward_all,
                            backward_bn_affine, forward, load_checkpoint,
                            make_network, network_from_dict,
                            checkpoint_text, penultimate_features,
                            save_checkpoint)

from oracles import (bits, document_digest, finite_diff_check,
                     network_to_dict, reference_forward)


def random_net(rng, widths=(5, 8, 6), k=3, bn=None):
    """Small random architecture with BN after each hidden dense layer, or
    after those hidden layers whose entry of ``bn`` is True."""
    layers = []
    dims = list(widths) + [k]
    for i in range(len(dims) - 1):
        w = rng.normal(scale=0.7, size=(dims[i + 1], dims[i]))
        last = i == len(dims) - 2
        layers.append(DenseLayer(weight=w, bias=rng.normal(size=dims[i + 1]),
                               activation="identity" if last else "relu"))
        if not last and (bn is None or bn[i]):
            layer = BatchNormLayer.identity(dims[i + 1])
            layer.gamma = rng.normal(1.0, 0.2, size=dims[i + 1])
            layer.beta = rng.normal(0.0, 0.2, size=dims[i + 1])
            layer.running_mean = rng.normal(size=dims[i + 1])
            layer.running_var = rng.uniform(0.5, 2.0, size=dims[i + 1])
            layers.append(layer)
    return Network(layers=layers, k=k)


class TestForward:
    def test_identity_bn_is_noop_under_standard_running_stats(self, rng):
        net = random_net(rng)
        # reset every BN to the identity transform
        for layer in net.layers:
            if isinstance(layer, BatchNormLayer):
                f = layer.gamma.size
                # in place: forward reads gamma/beta from net.params
                layer.gamma[:] = 1.0
                layer.beta[:] = 0.0
                layer.running_mean = np.zeros(f)
                layer.running_var = np.ones(f)
                layer.eps = 0.0
        x = rng.normal(size=(6, 5))
        logits, _ = forward(net, x, BNMode.EVAL_STATS)
        # manual BN-free composition of the same dense layers
        h = x
        dense = [l for l in net.layers if isinstance(l, DenseLayer)]
        for i, layer in enumerate(dense):
            h = h @ layer.weight.T + layer.bias
            if i < len(dense) - 1:
                h = np.maximum(h, 0.0)
        np.testing.assert_allclose(logits, h, atol=1e-12)

    def test_forward_is_deterministic(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(7, 5))
        a, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
        b, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
        np.testing.assert_array_equal(a, b)

    def test_batch_stats_normalize_before_affine(self, rng):
        for seed in (1, 2, 3):
            net = random_net(np.random.default_rng(seed))
            x = np.random.default_rng(seed + 10).normal(size=(64, 5))
            _, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
            bn_records = [bn for _, bn, _ in cache.records if bn is not None]
            assert bn_records
            for xhat, _, _ in bn_records:
                assert np.abs(xhat.mean(axis=0)).max() < 1e-6
                # biased variance of xhat is var/(var+eps), within 1e-6 of 1
                np.testing.assert_allclose(xhat.var(axis=0), 1.0, atol=1e-6)

    def test_single_sample_rejected_in_batch_stats_mode(self, rng):
        net = random_net(rng)
        with pytest.raises(InvalidInput, match="at least 2"):
            forward(net, rng.normal(size=(1, 5)), BNMode.TEST_BATCH_STATS)
        logits, _ = forward(net, rng.normal(size=(1, 5)), BNMode.EVAL_STATS)
        assert logits.shape == (1, 3)

    def test_train_mode_updates_running_stats_others_do_not(self, rng):
        net = random_net(rng)
        bn = next(l for l in net.layers if isinstance(l, BatchNormLayer))
        x = rng.normal(size=(16, 5))
        before = bn.running_mean.copy()
        forward(net, x, BNMode.EVAL_STATS)
        forward(net, x, BNMode.TEST_BATCH_STATS)
        np.testing.assert_array_equal(bn.running_mean, before)
        forward(net, x, BNMode.TRAIN_STATS)
        assert not np.array_equal(bn.running_mean, before)

    def test_non_finite_batch_rejected(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(4, 5))
        x[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            forward(net, x, BNMode.EVAL_STATS)

    @pytest.mark.parametrize("rule", ["ignore", "raise"])
    @pytest.mark.parametrize("cache", [True, False])
    def test_overflowing_weights_raise_floating_point_error(self, rng, rule,
                                                            cache):
        """Logits are a value forward computed, not the caller's input: when
        they overflow, forward's own check raises FloatingPointError if
        numpy's error state let the overflow pass, as the state does if it
        raises."""
        net = random_net(rng)
        for layer in net.layers:
            if isinstance(layer, DenseLayer):
                layer.weight *= 1e300
        x = rng.normal(size=(6, 5))
        with np.errstate(all=rule), pytest.raises(FloatingPointError) as err:
            forward(net, x, BNMode.EVAL_STATS, cache=cache)
        if rule == "ignore":
            assert str(err.value) == "forward produced non-finite logits"


scaled_batches = dict(n=st.integers(2, 300), f=st.integers(1, 70),
                      exponent=st.integers(-150, 150),
                      shift=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))


def scaled_batch(n, f, exponent, shift, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, f)) + shift) * 10.0 ** exponent


class TestBatchStatistics:
    @settings(max_examples=200)
    @given(**scaled_batches)
    def test_single_pass_equals_numpy_mean_and_var_bitwise(self, **batch):
        x = scaled_batch(**batch)
        mean, centered, var = _batch_stats(x)
        assert bits(mean) == bits(x.mean(axis=0))
        assert bits(var) == bits(x.var(axis=0))
        assert bits(centered) == bits(x - x.mean(axis=0))

    @settings(max_examples=60)
    @given(**scaled_batches)
    def test_forward_logits_and_records_unchanged(self, **batch):
        x = scaled_batch(**batch)
        net = random_net(np.random.default_rng(batch["seed"]),
                         widths=(x.shape[1], 8, 6))
        for mode in BNMode:
            ours, reference = copy.deepcopy(net), copy.deepcopy(net)
            logits, cache = forward(ours, x, mode)
            expected, records = reference_forward(reference, x, mode)
            assert bits(logits) == bits(expected)
            for (x_in, bn_rec, mask), (r_in, r_bn, r_mask) in zip(
                    cache.records, records, strict=True):
                assert bits(x_in) == bits(r_in)
                assert (bn_rec is None) == (r_bn is None)
                if bn_rec is not None:
                    assert bits(bn_rec[0]) == bits(r_bn[0])
                    assert bits(bn_rec[1]) == bits(r_bn[1])
                    assert bn_rec[2] == r_bn[2]
                assert (mask is None) == (r_mask is None)
                if mask is not None:
                    assert bits(mask) == bits(r_mask)
            for a, b in zip(ours.layers, reference.layers):
                if isinstance(a, BatchNormLayer):
                    assert bits(a.running_mean) == bits(b.running_mean)
                    assert bits(a.running_var) == bits(b.running_var)


class TestUncachedForward:
    @settings(max_examples=60)
    @given(streams=st.none() | st.integers(1, 3),
           bn=st.lists(st.booleans(), min_size=2, max_size=2),
           **scaled_batches)
    def test_logits_running_stats_and_params_match_the_cached_call(
            self, streams, bn, **batch):
        """cache=False gives the cached call's logits bit for bit, with no
        cache, for a batch and for a stack with affine rows of its own, in
        every BN mode; TRAIN_STATS moves the running statistics as the
        cached call does, and neither call writes into the network's
        parameters, the batch or the affine."""
        rng = np.random.default_rng(batch["seed"])
        x = scaled_batch(**batch)
        net = random_net(rng, widths=(x.shape[1], 8, 6), bn=bn)
        forms = [(x, None)]
        if streams is not None:
            stack = (rng.normal(size=(streams,) + x.shape) + batch["shift"]
                     ) * 10.0 ** batch["exponent"]
            rows = net.affine + rng.normal(scale=0.3,
                                           size=(streams, net.affine.size))
            forms += [(x, rows[0]), (stack, rows)]
        params = net.params.tobytes()
        for mode in BNMode:
            for inputs, affine in forms:
                if mode is BNMode.TRAIN_STATS and affine is not None:
                    continue
                given_in = inputs.tobytes()
                given_affine = None if affine is None else affine.tobytes()
                cached, uncached = copy.deepcopy(net), copy.deepcopy(net)
                logits, cache = forward(cached, inputs, mode, affine)
                bare, none = forward(uncached, inputs, mode, affine,
                                     cache=False)
                assert none is None and cache is not None
                assert bits(bare) == bits(logits)
                for a, b in zip(cached.layers, uncached.layers):
                    if isinstance(a, BatchNormLayer):
                        assert bits(a.running_mean) == bits(b.running_mean)
                        assert bits(a.running_var) == bits(b.running_var)
                assert uncached.params.tobytes() == params
                assert inputs.tobytes() == given_in
                if affine is not None:
                    assert affine.tobytes() == given_affine
                forward(net, inputs, mode, affine, cache=False)
                assert net.params.tobytes() == params

    def test_checks_are_kept(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(4, 5))
        with pytest.raises(InvalidInput, match="at least 2"):
            forward(net, x[:1], BNMode.TEST_BATCH_STATS, cache=False)
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "batch must be a non-empty (N, d) array with d=5, got shape"
                " (1, 4, 5)") + "$"):
            forward(net, x[None], BNMode.EVAL_STATS, cache=False)
        x[0, 0] = np.inf
        with pytest.raises(InvalidInput, match="non-finite values"):
            forward(net, x, BNMode.EVAL_STATS, cache=False)


class TestBackwardBnAffine:
    def test_zero_gradient_in_zero_out(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(6, 5))
        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        grads = backward_bn_affine(net, cache, np.zeros_like(logits))
        np.testing.assert_array_equal(grads, 0.0)

    def test_one_entry_per_bn_affine_parameter(self, rng):
        net = random_net(rng)  # BN widths 8 and 6
        x = rng.normal(size=(6, 5))
        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        grads = backward_bn_affine(net, cache, np.ones_like(logits))
        assert grads.shape == net.affine.shape == (2 * 8 + 2 * 6,)

    def test_linearity_in_loss_gradient(self, rng):
        net = random_net(rng)
        x = rng.normal(size=(6, 5))
        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        g = rng.normal(size=logits.shape)
        one = backward_bn_affine(net, cache, g)
        two = backward_bn_affine(net, cache, 2.0 * g)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-12)

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng)
        x = rng.normal(size=(12, 5))

        def loss_at(affine):
            logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
            return tent_loss(logits)[0]

        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        _, gl = tent_loss(logits)
        grads = backward_bn_affine(net, cache, gl)
        assert finite_diff_check(loss_at, net.affine, grads) < 1e-4

    @pytest.mark.parametrize("mode", list(BNMode))
    def test_equals_affine_entries_of_backward_all_bitwise(self, mode):
        rng = np.random.default_rng(4)
        net = random_net(rng)
        logits, cache = forward(net, rng.normal(size=(9, 5)), mode)
        g = rng.normal(size=logits.shape)
        affine = backward_bn_affine(net, cache, g)
        full = backward_all(net, cache, g)
        assert affine.shape == net.affine.shape
        assert full.shape == net.params.shape
        assert full[:net.affine.size].tobytes() == affine.tobytes()

    @pytest.mark.parametrize("s, n", [(2, 9), (3, 3)])
    @pytest.mark.parametrize("mode", [BNMode.EVAL_STATS,
                                      BNMode.TEST_BATCH_STATS])
    def test_backward_all_rejects_the_cache_of_a_stack(self, s, n, mode):
        """S != N once failed inside a matmul, S = N in a concatenate."""
        rng = np.random.default_rng(5)
        net = random_net(rng)
        logits, cache = forward(net, rng.normal(size=(s, n, 5)), mode,
                                np.tile(net.affine, (s, 1)))
        with pytest.raises(InvalidInput, match=re.escape(f"({s}, {n}, 5)")):
            backward_all(net, cache, np.ones_like(logits))


# BN in each hidden block; only in the second, so the lowest block has none;
# in neither, so there is no affine: the reverse pass stops at the lowest
# BN layer's gamma/beta, or runs not at all
BN_LAYOUTS = {"bn-in-every-block": (True, True),
              "no-bn-in-lowest-block": (False, True),
              "no-bn": (False, False)}


class TestAffinePassStopsAtLowestBN:
    @pytest.mark.parametrize("mode", list(BNMode))
    @pytest.mark.parametrize("bn", BN_LAYOUTS.values(), ids=BN_LAYOUTS)
    def test_equals_affine_prefix_of_backward_all_bitwise(self, bn, mode):
        rng = np.random.default_rng(5)
        net = random_net(rng, bn=bn)
        logits, cache = forward(net, rng.normal(size=(9, 5)), mode)
        g = rng.normal(size=logits.shape)
        affine = backward_bn_affine(net, cache, g)
        full = backward_all(net, cache, g)
        assert affine.shape == net.affine.shape == (8 * 2 * bn[0]
                                                    + 6 * 2 * bn[1],)
        assert full.shape == net.params.shape
        assert full[:net.affine.size].tobytes() == affine.tobytes()

    # TRAIN_STATS reads the network's own gamma/beta, so takes no stack
    @pytest.mark.parametrize("mode", [BNMode.EVAL_STATS,
                                      BNMode.TEST_BATCH_STATS])
    @pytest.mark.parametrize("bn", BN_LAYOUTS.values(), ids=BN_LAYOUTS)
    def test_each_row_of_a_stack_equals_its_stream_alone(self, bn, mode):
        rng = np.random.default_rng(6)
        net = random_net(rng, bn=bn)
        x = rng.normal(size=(4, 7, 5))
        rows = net.affine + rng.normal(scale=0.1,
                                       size=(4,) + net.affine.shape)
        logits, cache = forward(net, x, mode, rows)
        g = rng.normal(size=logits.shape)
        stacked = backward_bn_affine(net, cache, g)
        assert stacked.shape == (4, net.affine.size)
        for s in range(4):
            _, own_cache = forward(net, x[s], mode, rows[s])
            own = backward_bn_affine(net, own_cache, g[s])
            assert own.shape == net.affine.shape
            assert stacked[s].tobytes() == own.tobytes()


class TestParameterVector:
    def test_layers_are_views_into_params_in_layout_order(self, rng):
        net = random_net(rng)  # dense 0, BN 1, dense 2, BN 3, dense 4
        layers = net.layers
        expected = np.concatenate([
            layers[1].gamma, layers[1].beta, layers[3].gamma, layers[3].beta,
            *(a for i in (0, 2, 4)
              for a in (layers[i].weight.ravel(), layers[i].bias))])
        assert net.params.tobytes() == expected.tobytes()
        assert net.affine.size == 2 * 8 + 2 * 6
        assert np.shares_memory(net.affine, net.params)
        net.params[:] = np.arange(net.params.size)
        np.testing.assert_array_equal(layers[1].gamma, np.arange(8))
        np.testing.assert_array_equal(layers[3].beta, np.arange(22, 28))
        np.testing.assert_array_equal(layers[0].weight[1], np.arange(33, 38))
        np.testing.assert_array_equal(layers[4].bias, np.arange(148, 151))

    def test_deepcopy_rebuilds_the_views(self, rng):
        net = random_net(rng)
        before = net.params.copy()
        dup = copy.deepcopy(net)
        assert not np.shares_memory(dup.params, net.params)
        dup.params -= 1.0
        np.testing.assert_array_equal(dup.layers[1].gamma,
                                      net.layers[1].gamma - 1.0)
        np.testing.assert_array_equal(dup.layers[4].weight,
                                      net.layers[4].weight - 1.0)
        dup.affine[0] = 7.0
        assert dup.layers[1].gamma[0] == 7.0
        assert net.params.tobytes() == before.tobytes()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_backward_all_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng)
        x = rng.normal(size=(12, 5))

        def loss_at(params):
            net.params[:] = params
            logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
            return tent_loss(logits)[0]

        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        grads = backward_all(net, cache, tent_loss(logits)[1])
        assert finite_diff_check(loss_at, net.params.copy(), grads) < 1e-4


class TestBatchWidth:
    def test_batch_of_wrong_width_names_both_widths(self, rng):
        net = random_net(rng)  # takes 5 inputs
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "batch must be a non-empty (N, d) array with d=5, got shape"
                " (4, 7)") + "$"):
            forward(net, rng.normal(size=(4, 7)), BNMode.EVAL_STATS)


class TestAffineShape:
    """A stack takes exactly one row of gamma/beta per stream. The affine
    is checked first and decides the batch's layout, so an affine of the
    right width with a batch of another S names the batch."""

    @pytest.mark.parametrize("rows, extra", [(1, 0), (2, 0), (3, 1)],
                             ids=["one-row-for-3-streams",
                                  "two-rows-for-3-streams", "too-wide"])
    def test_mismatched_affine_rejected(self, rng, rows, extra):
        net = random_net(rng)
        a = net.affine.size
        affine = np.hstack([np.tile(net.affine, (rows, 1)),
                            np.ones((rows, extra))])
        message = (f"affine must be a non-empty (A,) or (S, A) array with"
                   f" A={a}, got shape ({rows}, {a + extra})" if extra else
                   f"batch must be a non-empty (S, N, d) array with"
                   f" S={rows}, d=5, got shape (3, 4, 5)")
        with pytest.raises(InvalidInput, match="^" + re.escape(message)
                           + "$"):
            forward(net, rng.normal(size=(3, 4, 5)),
                    BNMode.TEST_BATCH_STATS, affine)

    def test_affine_vector_rejected(self, rng):
        """An (A,) row goes with an (N, d) batch only, a (1, A) stack with a
        (1, N, d) stack only; the batch of the other layout is named."""
        net = random_net(rng)
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "batch must be a non-empty (N, d) array with d=5, got shape"
                " (1, 4, 5)") + "$"):
            forward(net, rng.normal(size=(1, 4, 5)), BNMode.TEST_BATCH_STATS,
                    net.affine)
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "batch must be a non-empty (S, N, d) array with S=1, d=5,"
                " got shape (4, 5)") + "$"):
            forward(net, rng.normal(size=(4, 5)), BNMode.TEST_BATCH_STATS,
                    net.affine[None])


@st.composite
def affine_rows(draw):
    """A random network, a batch for it and a gamma/beta row that differs
    from the network's own by noise, signed zeros and one-ulp steps."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    widths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    net = random_net(rng, widths=widths, k=draw(st.integers(2, 4)))
    row = net.affine + rng.normal(scale=draw(st.sampled_from([0.0, 0.3])),
                                  size=net.affine.shape)
    for value in (0.0, -0.0, None):  # None: one ulp up
        at = rng.random(row.shape) < draw(st.sampled_from([0.0, 0.2]))
        row[at] = (np.nextafter(net.affine, np.inf)[at] if value is None
                   else value)
    x = rng.normal(size=(draw(st.integers(2, 9)), widths[0]))
    return net, x, row


class TestOneAffineRule:
    """forward reads gamma/beta from an (A,) row for an (N, d) batch and an
    (S, A) stack for an (S, N, d) stack: an (N, d) batch with a row is
    stream 0 of a stack of one, and the network with that row written into
    its own affine."""

    @settings(max_examples=80)
    @given(case=affine_rows(),
           mode=st.sampled_from([BNMode.EVAL_STATS, BNMode.TEST_BATCH_STATS]))
    def test_a_row_is_a_stack_of_one_and_a_copy_holding_it(self, case, mode):
        from ttalab.benchmark import params_digest

        net, x, row = case
        source = net.params.copy()
        holder = copy.deepcopy(net)
        holder.affine[:] = row
        logits, cache = forward(net, x, mode, row)
        stacked, _ = forward(net, x[None], mode, row[None])
        held, held_cache = forward(holder, x, mode)
        assert bits(logits) == bits(stacked[0]) == bits(held)
        features = penultimate_features(net, x, mode, row)
        stacked = penultimate_features(net, x[None], mode, row[None])
        assert bits(features) == bits(stacked[0])
        assert bits(features) == bits(penultimate_features(holder, x, mode))
        g = np.random.default_rng(x.size).normal(size=logits.shape)
        assert (bits(backward_bn_affine(net, cache, g))
                == bits(backward_bn_affine(holder, held_cache, g)))
        assert params_digest(net, row) == document_digest(holder)
        assert net.params.tobytes() == source.tobytes()

    @settings(max_examples=40)
    @given(case=affine_rows(), lead=st.sampled_from([(), (1,), (2,)]),
           rows=st.sampled_from([(), (1,), (2,), (3,)]),
           extra=st.integers(-1, 1))
    def test_mismatched_shapes_are_named(self, case, lead, rows, extra):
        net, x, row = case
        batch = np.broadcast_to(x, lead + x.shape)
        affine = np.zeros(rows + (max(row.size + extra, 0),))
        assume(affine.shape != lead + row.shape)  # the one valid pairing
        with pytest.raises(InvalidInput) as err:
            forward(net, batch, BNMode.EVAL_STATS, affine)
        # the affine is checked first, then the batch against its rows
        d = x.shape[1]
        if affine.shape[-1] != row.size:
            message = (f"affine must be a non-empty (A,) or (S, A) array with"
                       f" A={row.size}, got shape {affine.shape}")
        elif rows:
            message = (f"batch must be a non-empty (S, N, d) array with"
                       f" S={rows[0]}, d={d}, got shape {batch.shape}")
        else:
            message = (f"batch must be a non-empty (N, d) array with d={d},"
                       f" got shape {batch.shape}")
        assert str(err.value) == message


class TestBlockLayout:
    def test_blocks_follow_dense_bn_relu_grouping(self, rng):
        net = random_net(rng)
        assert net.blocks == (
            (0, 1, True, slice(0, 8), slice(8, 16)),
            (2, 3, True, slice(16, 22), slice(22, 28)),
            (4, None, False, slice(28, 28), slice(28, 28)))
        for _, bn, _, gamma, beta in net.blocks[:2]:
            layer = net.layers[bn]
            assert net.affine[gamma].tobytes() == layer.gamma.tobytes()
            assert net.affine[beta].tobytes() == layer.beta.tobytes()

    @pytest.mark.parametrize("order", [[1, 2, 3, 4], [0, 1, 1, 2, 3, 4], []],
                             ids=["bn-first", "bn-after-bn", "empty"])
    def test_non_block_layouts_rejected(self, rng, order):
        net = random_net(rng)
        with pytest.raises(InvalidInput) as built:
            Network(layers=[net.layers[i] for i in order], k=3)
        doc = network_to_dict(net)
        doc["layers"] = [doc["layers"][i] for i in order]
        with pytest.raises(InvalidInput,
                           match=f"^{re.escape(str(built.value))}$"):
            network_from_dict(doc)


class TestMakeNetwork:
    @pytest.mark.parametrize("name, value", [
        ("input_dim", 0), ("hidden", 0), ("hidden", 2.5), ("hidden", True),
        ("k", 1), ("k", 3.0), ("seed", -1), ("seed", 2.5), ("seed", None)],
        ids=repr)
    def test_bad_argument_named(self, name, value):
        with pytest.raises(InvalidInput,
                           match=rf"^{name} .*{re.escape(repr(value))}$"):
            make_network(**{name: value})


class TestPenultimateFeatures:
    def test_single_dense_network_returns_input(self, rng):
        net = Network(layers=[DenseLayer(weight=rng.normal(size=(3, 4)),
                                         bias=np.zeros(3))], k=3)
        x = rng.normal(size=(5, 4))
        feats = penultimate_features(net, x, BNMode.EVAL_STATS)
        np.testing.assert_array_equal(feats, x)

    def test_features_finite_and_correct_width(self, rng):
        net = make_network(seed=5)
        x = rng.normal(size=(8, 32))
        feats = penultimate_features(net, x, BNMode.TEST_BATCH_STATS)
        assert feats.shape == (8, net.feature_dim)
        assert np.all(np.isfinite(feats))

    def test_feature_histogram_csv_roundtrip(self, rng):
        net = make_network(seed=5)
        x = rng.normal(size=(40, 32))
        feats = penultimate_features(net, x, BNMode.TEST_BATCH_STATS)
        counts, edges = np.histogram(feats[:, 0], bins=16)
        density = counts / counts.sum()
        buf = io.StringIO()
        buf.write("bin_lo,bin_hi,density\n")
        for b in range(16):
            buf.write(f"{float(edges[b])!r},{float(edges[b + 1])!r},"
                      f"{float(density[b])!r}\n")
        parsed = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",",
                            skiprows=1)
        np.testing.assert_array_equal(parsed[:, 0], edges[:-1])
        np.testing.assert_array_equal(parsed[:, 1], edges[1:])
        np.testing.assert_array_equal(parsed[:, 2], density)


class TestCheckpoint:
    def test_roundtrip_preserves_forward_bitwise(self, rng, tmp_path):
        net = random_net(rng)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        x = rng.normal(size=(6, 5))
        a, _ = forward(net, x, BNMode.EVAL_STATS)
        b, _ = forward(loaded, x, BNMode.EVAL_STATS)
        np.testing.assert_array_equal(a, b)
        c, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
        d, _ = forward(loaded, x, BNMode.TEST_BATCH_STATS)
        np.testing.assert_array_equal(c, d)

    def test_roundtrip_preserves_every_value_exactly(self, rng, tmp_path):
        net = make_network(seed=9)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert network_to_dict(loaded) == network_to_dict(net)

    def test_file_bytes_are_one_json_dumps(self, rng, tmp_path):
        for net in (random_net(rng), make_network(seed=9)):
            path = tmp_path / "net.json"
            save_checkpoint(net, path)
            doc = network_to_dict(net)
            text = json.dumps(doc, sort_keys=True) + "\n"
            assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("meta", [
        {"seed": np.int64(0)}, {"tags": {"a"}}, {1: "a", "b": 2}],
        ids=["int64", "set", "mixed-keys"])
    def test_meta_json_cannot_write_rejected_at_construction(self, rng, meta):
        net = random_net(rng)
        shown = re.escape(repr(meta))
        with pytest.raises(InvalidInput, match=(
                rf"^meta must serialise to JSON .*, got {shown}$")):
            Network(layers=net.layers, k=net.k, meta=meta)

    @pytest.mark.parametrize("key, value", [
        ("x", np.int64(1)), ("tags", {"a"}), (1, "a")],
        ids=["int64", "set", "mixed-keys"])
    def test_meta_changed_after_construction_rejected_at_every_write(
            self, tmp_path, key, value):
        net = make_network(input_dim=4, hidden=3, k=2, seed=0)
        net.meta["trained_epochs"] = 3  # as train_source writes it
        save_checkpoint(net, tmp_path / "kept.json")
        assert load_checkpoint(tmp_path / "kept.json").meta == {
            "seed": 0, "trained_epochs": 3}
        net.meta[key] = value
        shown = re.escape(repr(net.meta))
        path = tmp_path / "net.json"
        for write in (checkpoint_text, params_digest,
                      lambda net: save_checkpoint(net, path)):
            with pytest.raises(InvalidInput, match=(
                    rf"^meta must serialise to JSON .*, got {shown}$")):
                write(net)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_values_rejected_at_every_write(self, tmp_path, bad):
        """The writer keeps the reader's rule: no document is made that
        load_checkpoint would refuse, and a finite one still round-trips
        byte for byte."""
        net = make_network(input_dim=4, hidden=3, k=2, seed=0)
        save_checkpoint(net, tmp_path / "kept.json")
        kept = (tmp_path / "kept.json").read_bytes()
        save_checkpoint(load_checkpoint(tmp_path / "kept.json"),
                        tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == kept
        row = net.affine.copy()
        row[1] = bad
        for write in (checkpoint_text, params_digest):
            with pytest.raises(InvalidInput,
                               match="^affine contains non-finite values$"):
                write(net, row)
        net.params[-1] = bad
        path = tmp_path / "net.json"
        for write in (checkpoint_text, params_digest,
                      lambda net: save_checkpoint(net, path)):
            with pytest.raises(InvalidInput,
                               match="^params contains non-finite values$"):
                write(net)
        assert not path.exists()

    def test_truncated_file_is_rejected(self, rng, tmp_path):
        net = random_net(rng)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(InvalidInput,
                           match="invalid checkpoint JSON at byte"):
            load_checkpoint(path)

    def test_class_count_mismatch_is_rejected(self, rng, tmp_path):
        net = random_net(rng, k=3)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        with pytest.raises(InvalidInput,
                           match="checkpoint has k=3, expected k=10"):
            load_checkpoint(path, expect_k=10)
        loaded = load_checkpoint(path, expect_k=3)
        assert loaded.k == 3

    def test_non_utf8_file_is_rejected(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_bytes(b'{"k": 3, "layers": []}\xff')
        with pytest.raises(InvalidInput, match="not UTF-8 text at byte 22"):
            load_checkpoint(path)

    def test_schema_violations_rejected(self, rng, tmp_path):
        net = random_net(rng)  # widths 5 -> 8 (BN) -> 6 (BN) -> 3
        doc = network_to_dict(net)

        def resize(layer, shape):
            layer["shape"] = shape
            n = int(np.prod(shape))
            for key in ("weight", "bias", "gamma", "beta", "running_mean",
                        "running_var"):
                if key in layer:
                    layer[key] = [0.5] * (shape[0] if key == "bias" else n)

        def set_key(d, key, value):
            d[key] = value

        # each mutation, and the start of the error it raises
        mutations = [
            (lambda d: set_key(d["layers"][0], "kind", "conv"),
             "unknown layer kind 'conv'"),
            (lambda d: d["layers"][1].pop("gamma"),
             "layer 1 missing field 'gamma'"),
            (lambda d: set_key(d["layers"][0], "weight",
                               d["layers"][0]["weight"][:-1]),
             "layer 0 field 'weight' has 39 values"),
            (lambda d: set_key(d["layers"], 1, 5),
             "layer 1 is not a JSON object"),
            (lambda d: set_key(d, "k", "x"),
             "checkpoint 'k' must be of type int, got str"),
            (lambda d: set_key(d, "k", None),
             "checkpoint 'k' must be of type int, got NoneType"),
            (lambda d: set_key(d, "k", 4),
             "final dense layer outputs 3, expected k=4"),
            (lambda d: set_key(d, "layers", 5),
             "checkpoint 'layers' must be of type list"),
            (lambda d: set_key(d, "meta", 5),
             "checkpoint 'meta' must be of type dict"),
            (lambda d: set_key(d["layers"][0], "shape", ["8", 5]),
             "dense layer needs a shape of 2 positive integers, got ['8', 5]"),
            (lambda d: set_key(d["layers"][0], "shape", [-8, -5]),
             "dense layer needs a shape of 2 positive integers, got [-8, -5]"),
            (lambda d: set_key(d["layers"][1], "eps", "x"),
             "layer 1 field 'eps' is not numeric"),
            (lambda d: set_key(d["layers"][0], "activation", "tanh"),
             "unknown activation 'tanh'"),
            (lambda d: resize(d["layers"][1], [9]),  # BN wider than its dense
             "layer 1 normalizes 9 features, but layer 0 outputs 8"),
            (lambda d: resize(d["layers"][1], [7]),  # BN narrower
             "layer 1 normalizes 7 features, but layer 0 outputs 8"),
            (lambda d: resize(d["layers"][2], [6, 7]),
             "layer 2 takes 7 inputs, but the block before it outputs 8"),
        ]
        for mutate, message in mutations:
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(InvalidInput, match=f"^{re.escape(message)}"):
                network_from_dict(bad)

        # values json reads but no network can use: the error names the
        # layer and the field
        nan, inf = float("nan"), float("inf")
        named = [
            (lambda d: set_key(d["layers"][0]["weight"], 3, nan),
             "layer 0 field 'weight'"),
            (lambda d: set_key(d["layers"][2]["bias"], 0, inf),
             "layer 2 field 'bias'"),
            (lambda d: set_key(d["layers"][1]["gamma"], 1, -inf),
             "layer 1 field 'gamma'"),
            (lambda d: set_key(d["layers"][3]["beta"], 0, nan),
             "layer 3 field 'beta'"),
            (lambda d: set_key(d["layers"][1]["running_mean"], 2, nan),
             "layer 1 field 'running_mean'"),
            (lambda d: set_key(d["layers"][3]["running_var"], 0, inf),
             "layer 3 field 'running_var'"),
            (lambda d: set_key(d["layers"][1], "eps", nan),
             "layer 1 field 'eps'"),
            (lambda d: set_key(d["layers"][3], "momentum", inf),
             "layer 3 field 'momentum'"),
            (lambda d: set_key(d["layers"][1], "eps", -1.0),
             "layer 1 field 'eps'"),
            (lambda d: set_key(d["layers"][3], "eps", 0.0),
             "layer 3 field 'eps'"),
            (lambda d: set_key(d["layers"][3], "eps", -0.0),
             "layer 3 field 'eps'"),
            (lambda d: set_key(d["layers"][1]["running_var"], 0, -5.0),
             "layer 1 field 'running_var'"),
        ]
        for mutate, names in named:
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(InvalidInput, match=re.escape(names)):
                network_from_dict(bad)


class TestFreezingProperty:
    def test_adaptation_touches_only_bn_affine(self, source_net, test_dataset):
        from ttalab.benchmark import Corruption, apply_corruption

        config = AdaptationConfig(strategy="tent")
        protocol = StreamProtocol(batch_size=100, seed=0)
        inputs = apply_corruption(test_dataset.inputs,
                                  Corruption("gaussian_noise", 5),
                                  protocol.seed)

        def state():
            """Every parameter and running statistic of the network."""
            return [source_net.params.tobytes()] + [
                a.tobytes() for bn in source_net.layers
                if isinstance(bn, BatchNormLayer)
                for a in (bn.running_mean, bn.running_var)]

        before = state()
        (_, _, row), = adapt_streams(source_net, inputs, test_dataset.labels,
                                     [(None, protocol, config)])
        assert state() == before
        # what adaptation moved is the row: one gamma/beta per BN layer
        assert row.shape == source_net.affine.shape
        changed = [block.bn for block in source_net.blocks
                   if block.bn is not None and not np.array_equal(
                       row[block.gamma], source_net.affine[block.gamma])]
        assert changed  # the adaptation actually moved something


def top_bn_net(rng, k=3):
    """random_net with BN on its top block too, after no ReLU: the first op
    of the reverse pass reads the caller's gradient."""
    net = random_net(rng, k=k)
    layer = BatchNormLayer.identity(k)
    layer.gamma = rng.normal(1.0, 0.2, size=k)
    layer.beta = rng.normal(0.0, 0.2, size=k)
    layer.running_mean = rng.normal(size=k)
    layer.running_var = rng.uniform(0.5, 2.0, size=k)
    return Network(layers=net.layers + [layer], k=k)


def record_bytes(records):
    """Every array of a cache's records, as ``bits``."""
    return [[bits(a) for a in (x, *(bn_rec[:2] if bn_rec else ()),
                               *(() if mask is None else (mask,)))]
            for x, bn_rec, mask in records]


class TestNoWriteToCallerArrays:
    """forward and the backward passes write only into arrays they made:
    the batch, the loss gradient and the cache keep every bit, so a second
    backward on the same cache gives the same bits."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           streams=st.sampled_from([None, 1, 3]),
           mode=st.sampled_from(list(BNMode)),
           layout=st.sampled_from(["bn-on-top", "bn-in-every-block",
                                   "no-bn-in-lowest-block", "no-bn"]))
    def test_batch_gradient_and_cache_unchanged(self, seed, n, streams,
                                                mode, layout):
        assume(streams is None or mode is not BNMode.TRAIN_STATS)
        rng = np.random.default_rng(seed)
        net = (top_bn_net(rng) if layout == "bn-on-top"
               else random_net(rng, bn=BN_LAYOUTS[layout]))
        lead = () if streams is None else (streams,)
        x = rng.normal(size=lead + (n, 5))
        affine = None if streams is None else net.affine + rng.normal(
            scale=0.1, size=lead + net.affine.shape)
        x_before = x.tobytes()
        logits, cache = forward(net, x, mode, affine)
        assert x.tobytes() == x_before
        g = rng.normal(size=logits.shape)
        g_before, records = g.tobytes(), record_bytes(cache.records)
        affine_before = cache.affine.tobytes()
        passes = [backward_bn_affine] + ([backward_all] if streams is None
                                         else [])
        for backward in passes:
            first = backward(net, cache, g)
            assert bits(first) == bits(backward(net, cache, g))
            assert g.tobytes() == g_before
            assert record_bytes(cache.records) == records
            assert cache.affine.tobytes() == affine_before

    @pytest.mark.parametrize("seed", [7, 8])
    def test_top_bn_backward_all_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = top_bn_net(rng)
        x = rng.normal(size=(12, 5))

        def loss_at(params):
            net.params[:] = params
            logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
            return tent_loss(logits)[0]

        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        grads = backward_all(net, cache, tent_loss(logits)[1])
        assert finite_diff_check(loss_at, net.params.copy(), grads) < 1e-4


class TestCores:
    """On valid input, the unchecked cores the Adapter runs give the public
    functions' bits: ``_forward`` the logits, cache and running statistics
    of ``forward``, and ``_backward`` on a gradient handed over the
    gradient ``backward_bn_affine`` returns for a copy of it."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           streams=st.sampled_from([None, 1, 3]),
           mode=st.sampled_from(list(BNMode)), keep=st.booleans(),
           layout=st.sampled_from(["bn-on-top", "bn-in-every-block",
                                   "no-bn-in-lowest-block", "no-bn"]))
    def test_forward_core_equals_forward(self, seed, n, streams, mode, keep,
                                         layout):
        assume(streams is None or mode is not BNMode.TRAIN_STATS)
        rng = np.random.default_rng(seed)
        net = (top_bn_net(rng) if layout == "bn-on-top"
               else random_net(rng, bn=BN_LAYOUTS[layout]))
        lead = () if streams is None else (streams,)
        x = rng.normal(size=lead + (n, 5))
        affine = None if streams is None else net.affine + rng.normal(
            scale=0.1, size=lead + net.affine.shape)
        public, core = copy.deepcopy(net), copy.deepcopy(net)
        logits, cache = forward(public, x, mode, affine, cache=keep)
        core_logits, core_cache = _forward(
            core, x, mode, core.affine if affine is None else affine,
            cache=keep)
        assert bits(core_logits) == bits(logits)
        for a, b in zip(public.layers, core.layers):
            if isinstance(a, BatchNormLayer):
                assert bits(a.running_mean) == bits(b.running_mean)
                assert bits(a.running_var) == bits(b.running_var)
        assert (core_cache is None) == (cache is None) == (not keep)
        if keep:
            assert (record_bytes(core_cache.records)
                    == record_bytes(cache.records))
            assert bits(core_cache.affine) == bits(cache.affine)
            g = rng.normal(size=logits.shape)
            assert (bits(_backward(core, core_cache, g.copy(), True))
                    == bits(backward_bn_affine(public, cache, g)))


class TestDenseSlices:
    @pytest.mark.parametrize("bn", BN_LAYOUTS.values(), ids=BN_LAYOUTS)
    def test_each_block_names_its_weight_and_bias_in_params(self, rng, bn):
        net = random_net(rng, bn=bn)
        assert len(net.dense_slices) == len(net.blocks)
        at = net.affine.size  # the dense part follows the affine
        for block, (weight, bias) in zip(net.blocks, net.dense_slices):
            layer = net.layers[block.dense]
            assert (weight.start, bias.start) == (at, at + layer.weight.size)
            assert net.params[weight].tobytes() == layer.weight.tobytes()
            assert net.params[bias].tobytes() == layer.bias.tobytes()
            at = bias.stop
        assert at == net.params.size
