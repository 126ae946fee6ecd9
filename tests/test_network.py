import copy
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ttalab.adaptation import AdaptationConfig, tent_loss
from ttalab.benchmark import StreamProtocol, adapt_streams
from ttalab.errors import (DegenerateBatch, InvalidInput, ParseError,
                           SchemaError)
from ttalab.network import (BatchNormLayer, BNMode, DenseLayer, Network,
                            _batch_stats, backward_all, backward_bn_affine,
                            forward, load_checkpoint,
                            make_network, network_from_dict, network_to_dict,
                            penultimate_features, save_checkpoint)


def random_net(rng, widths=(5, 8, 6), k=3):
    """Small random architecture with BN after each hidden dense layer."""
    layers = []
    dims = list(widths) + [k]
    for i in range(len(dims) - 1):
        w = rng.normal(scale=0.7, size=(dims[i + 1], dims[i]))
        last = i == len(dims) - 2
        layers.append(DenseLayer(weight=w, bias=rng.normal(size=dims[i + 1]),
                               activation="identity" if last else "relu"))
        if not last:
            bn = BatchNormLayer.identity(dims[i + 1])
            bn.gamma = rng.normal(1.0, 0.2, size=dims[i + 1])
            bn.beta = rng.normal(0.0, 0.2, size=dims[i + 1])
            bn.running_mean = rng.normal(size=dims[i + 1])
            bn.running_var = rng.uniform(0.5, 2.0, size=dims[i + 1])
            layers.append(bn)
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
        with pytest.raises(DegenerateBatch):
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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def reference_forward(net, x, mode):
    """Forward as written with np.mean / np.var and an out-of-place xhat:
    the oracle the single-pass batch statistics must match bit for bit."""
    records = []
    for dense, bn, relu, _, _ in net.blocks:
        layer = net.layers[dense]
        x_in = x
        x = x @ layer.weight.T + layer.bias
        bn_rec = mask = None
        if bn is not None:
            b = net.layers[bn]
            if mode is BNMode.EVAL_STATS:
                mean, var = b.running_mean, b.running_var
            else:
                mean, var = x.mean(axis=0), x.var(axis=0)
                if mode is BNMode.TRAIN_STATS:
                    m = b.momentum
                    b.running_mean = (1.0 - m) * b.running_mean + m * mean
                    b.running_var = (1.0 - m) * b.running_var + m * var
            inv_std = 1.0 / np.sqrt(var + b.eps)
            xhat = (x - mean) * inv_std
            x = b.gamma * xhat + b.beta
            bn_rec = (xhat, inv_std, mode is not BNMode.EVAL_STATS)
        if relu:
            mask = x > 0.0
            x = x * mask
        records.append((x_in, bn_rec, mask))
    return x, records


scaled_batches = dict(n=st.integers(2, 300), f=st.integers(1, 70),
                      exponent=st.integers(-150, 150),
                      shift=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))


def scaled_batch(n, f, exponent, shift, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, f)) + shift) * 10.0 ** exponent


class TestBatchStatistics:
    @settings(max_examples=200, deadline=None)
    @given(**scaled_batches)
    def test_single_pass_equals_numpy_mean_and_var_bitwise(self, **batch):
        x = scaled_batch(**batch)
        mean, centered, var = _batch_stats(x)
        assert same_bits(mean, x.mean(axis=0))
        assert same_bits(var, x.var(axis=0))
        assert same_bits(centered, x - x.mean(axis=0))

    @settings(max_examples=60, deadline=None)
    @given(**scaled_batches)
    def test_forward_logits_and_records_unchanged(self, **batch):
        x = scaled_batch(**batch)
        net = random_net(np.random.default_rng(batch["seed"]),
                         widths=(x.shape[1], 8, 6))
        for mode in BNMode:
            ours, reference = copy.deepcopy(net), copy.deepcopy(net)
            logits, cache = forward(ours, x, mode)
            expected, records = reference_forward(reference, x, mode)
            assert same_bits(logits, expected)
            for (x_in, bn_rec, mask), (r_in, r_bn, r_mask) in zip(
                    cache.records, records, strict=True):
                assert same_bits(x_in, r_in)
                assert (bn_rec is None) == (r_bn is None)
                if bn_rec is not None:
                    assert same_bits(bn_rec[0], r_bn[0])
                    assert same_bits(bn_rec[1], r_bn[1])
                    assert bn_rec[2] == r_bn[2]
                assert (mask is None) == (r_mask is None)
                if mask is not None:
                    assert same_bits(mask, r_mask)
            for a, b in zip(ours.layers, reference.layers):
                if isinstance(a, BatchNormLayer):
                    assert same_bits(a.running_mean, b.running_mean)
                    assert same_bits(a.running_var, b.running_var)


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

        def loss_value():
            logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
            return tent_loss(logits)[0]

        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        _, gl = tent_loss(logits)
        grads = backward_bn_affine(net, cache, gl)
        h = 1e-5
        arr = net.affine  # every BN gamma/beta is a view into it
        for j in range(arr.size):
            orig = arr[j]
            arr[j] = orig + h
            hi = loss_value()
            arr[j] = orig - h
            lo = loss_value()
            arr[j] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(grads[j] - fd) / max(1.0, abs(grads[j])) < 1e-4

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

        def loss_value():
            logits, _ = forward(net, x, BNMode.TEST_BATCH_STATS)
            return tent_loss(logits)[0]

        logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
        grads = backward_all(net, cache, tent_loss(logits)[1])
        h = 1e-5
        arr = net.params
        for j in range(arr.size):
            orig = arr[j]
            arr[j] = orig + h
            hi = loss_value()
            arr[j] = orig - h
            lo = loss_value()
            arr[j] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(grads[j] - fd) / max(1.0, abs(grads[j])) < 1e-4


class TestBatchWidth:
    def test_batch_of_wrong_width_names_both_widths(self, rng):
        net = random_net(rng)  # takes 5 inputs
        with pytest.raises(InvalidInput, match=r"5 columns.*\(4, 7\)"):
            forward(net, rng.normal(size=(4, 7)), BNMode.EVAL_STATS)


class TestAffineShape:
    """A stack takes exactly one row of gamma/beta per stream."""

    @pytest.mark.parametrize("rows, extra", [(1, 0), (2, 0), (3, 1)],
                             ids=["one-row-for-3-streams",
                                  "two-rows-for-3-streams", "too-wide"])
    def test_mismatched_affine_rejected(self, rng, rows, extra):
        net = random_net(rng)
        a = net.affine.size
        affine = np.hstack([np.tile(net.affine, (rows, 1)),
                            np.ones((rows, extra))])
        with pytest.raises(InvalidInput,
                           match=rf"\(3, {a}\).*\({rows}, {a + extra}\)"):
            forward(net, rng.normal(size=(3, 4, 5)),
                    BNMode.TEST_BATCH_STATS, affine)

    def test_affine_vector_rejected(self, rng):
        """An (A,) row goes with an (N, d) batch only, a (1, A) stack with a
        (1, N, d) stack only."""
        net = random_net(rng)
        a = net.affine.size
        with pytest.raises(InvalidInput, match=rf"\(1, 4, 5\).*\({a},\)"):
            forward(net, rng.normal(size=(1, 4, 5)), BNMode.TEST_BATCH_STATS,
                    net.affine)
        with pytest.raises(InvalidInput, match=rf"\(4, 5\).*\(1, {a}\)"):
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
    """forward reads gamma/beta from an affine of shape batch.shape[:-2] +
    (A,): an (N, d) batch with a row is stream 0 of a stack of one, and the
    network with that row written into its own affine."""

    @settings(max_examples=80, deadline=None)
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
        assert same_bits(logits, stacked[0]) and same_bits(logits, held)
        features = penultimate_features(net, x, mode, row)
        stacked = penultimate_features(net, x[None], mode, row[None])
        assert same_bits(features, stacked[0])
        assert same_bits(features, penultimate_features(holder, x, mode))
        g = np.random.default_rng(x.size).normal(size=logits.shape)
        assert same_bits(backward_bn_affine(net, cache, g),
                         backward_bn_affine(holder, held_cache, g))
        doc = json.dumps(network_to_dict(holder), sort_keys=True)
        assert params_digest(net, row) == hashlib.sha256(
            doc.encode("utf-8")).hexdigest()
        assert net.params.tobytes() == source.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=affine_rows(), lead=st.sampled_from([(), (1,), (2,)]),
           rows=st.sampled_from([(), (1,), (2,), (3,)]),
           extra=st.integers(-1, 1))
    def test_mismatched_shapes_name_both(self, case, lead, rows, extra):
        net, x, row = case
        batch = np.broadcast_to(x, lead + x.shape)
        affine = np.zeros(rows + (max(row.size + extra, 0),))
        assume(affine.shape != lead + row.shape)  # the one valid pairing
        with pytest.raises(InvalidInput) as err:
            forward(net, batch, BNMode.EVAL_STATS, affine)
        assert str(affine.shape) in str(err.value)
        assert str(batch.shape) in str(err.value)


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
        with pytest.raises(InvalidInput):
            Network(layers=[net.layers[i] for i in order], k=3)
        doc = network_to_dict(net)
        doc["layers"] = [doc["layers"][i] for i in order]
        with pytest.raises(SchemaError):
            network_from_dict(doc)


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

    def test_truncated_file_is_parse_error(self, rng, tmp_path):
        net = random_net(rng)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError, match="byte"):
            load_checkpoint(path)

    def test_class_count_mismatch_is_schema_error(self, rng, tmp_path):
        net = random_net(rng, k=3)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        with pytest.raises(SchemaError):
            load_checkpoint(path, expect_k=10)
        loaded = load_checkpoint(path, expect_k=3)
        assert loaded.k == 3

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_bytes(b'{"k": 3, "layers": []}\xff')
        with pytest.raises(ParseError, match="UTF-8"):
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

        mutations = [
            lambda d: set_key(d["layers"][0], "kind", "conv"),
            lambda d: d["layers"][1].pop("gamma"),
            lambda d: set_key(d["layers"][0], "weight",
                              d["layers"][0]["weight"][:-1]),
            lambda d: set_key(d["layers"], 1, 5),  # a layer that is no object
            lambda d: set_key(d, "k", "x"),
            lambda d: set_key(d, "k", None),
            lambda d: set_key(d, "k", 4),  # the final dense layer outputs 3
            lambda d: set_key(d, "layers", 5),
            lambda d: set_key(d, "meta", 5),
            lambda d: set_key(d["layers"][0], "shape", ["8", 5]),
            lambda d: set_key(d["layers"][0], "shape", [-8, -5]),
            lambda d: set_key(d["layers"][1], "eps", "x"),
            lambda d: set_key(d["layers"][0], "activation", "tanh"),
            lambda d: resize(d["layers"][1], [9]),  # BN wider than its dense
            lambda d: resize(d["layers"][1], [7]),  # BN narrower
            lambda d: resize(d["layers"][2], [6, 7]),  # takes 7 of 8 outputs
        ]
        for mutate in mutations:
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(SchemaError):
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
