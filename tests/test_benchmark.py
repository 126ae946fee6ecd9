import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttalab import benchmark
from ttalab.adaptation import STRATEGIES, AdaptationConfig, Adapter, flip_signal
from ttalab.benchmark import (CORRUPTION_KINDS, NOISE_SIGMA, SIGNAL_LENGTH,
                              Corruption, SignalDataset, StreamProtocol,
                              accuracy_score, adapt_streams,
                              apply_corruption, batch_slices, class_templates,
                              evaluate_accuracy, generate_dataset,
                              histogram_overlap, params_digest, stream_eval,
                              train_source)
from ttalab.errors import DegenerateBatch, InvalidInput, TrainingDiverged
from ttalab.network import make_network, network_to_dict


class TestGenerateDataset:
    def test_same_seed_is_bit_identical(self):
        a = generate_dataset(3, 300, seed=7)
        b = generate_dataset(3, 300, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_classes_balanced(self):
        ds = generate_dataset(3, 300, seed=7)
        assert np.bincount(ds.labels).tolist() == [100, 100, 100]
        ds = generate_dataset(3, 301, seed=7)
        counts = np.bincount(ds.labels)
        assert counts.max() - counts.min() <= 1

    def test_templates_separated_beyond_five_sigma(self):
        for k in (2, 3, 5, 8):
            t = class_templates(k)
            dists = [np.linalg.norm(t[i] - t[j])
                     for i in range(k) for j in range(i + 1, k)]
            assert min(dists) > 5 * NOISE_SIGMA

    def test_templates_exactly_flip_symmetric(self):
        t = class_templates(4)
        np.testing.assert_array_equal(t, t[:, ::-1])

    def test_noiseless_variant_trains_to_perfection(self):
        ds = generate_dataset(3, 300, seed=1, noise_sigma=0.0)
        net = train_source(ds, epochs=10, seed=1)
        assert evaluate_accuracy(net, ds) == 1.0

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(InvalidInput):
            generate_dataset(1, 100, seed=0)
        with pytest.raises(InvalidInput):
            generate_dataset(5, 3, seed=0)


class TestApplyCorruption:
    def test_brightness_is_an_offset(self, rng):
        x = rng.normal(size=(4, 32))
        for s in range(1, 6):
            out = apply_corruption(x, Corruption("brightness", s), seed=0)
            np.testing.assert_array_equal(out, x + 0.2 * s)

    def test_contrast_shrinks_deviations_toward_identity(self, rng):
        x = rng.normal(size=(4, 32))
        mean = x.mean(axis=-1, keepdims=True)
        for s in range(1, 6):
            out = apply_corruption(x, Corruption("contrast", s), seed=0)
            np.testing.assert_allclose(out, mean + (x - mean) * (1 - 0.15 * s),
                                       atol=1e-15)
        # distortion vanishes as severity drops toward the identity limit
        errs = [float(np.abs(apply_corruption(x, Corruption("contrast", s), 0)
                             - x).max()) for s in (5, 3, 1)]
        assert errs[0] > errs[1] > errs[2]

    def test_gaussian_severity_three_variance(self):
        zero = np.zeros((100, 32))
        out = apply_corruption(zero, Corruption("gaussian_noise", 3), seed=4)
        assert abs(out.var() - 0.09) / 0.09 < 0.2

    def test_impulse_replaces_with_unit_spikes(self, rng):
        x = rng.normal(scale=0.01, size=(200, 32))
        out = apply_corruption(x, Corruption("impulse_noise", 5), seed=2)
        changed = out != x
        assert np.all(np.isin(out[changed], [-1.0, 1.0]))
        rate = changed.mean()
        assert abs(rate - 0.15) < 0.02

    def test_blur_preserves_constants(self):
        x = np.full((3, 32), 0.7)
        out = apply_corruption(x, Corruption("smooth_blur", 4), seed=0)
        np.testing.assert_allclose(out, 0.7, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.none() | st.integers(1, 60), length=st.integers(1, 40),
           severity=st.integers(1, 5), exponent=st.integers(-150, 150),
           zeros=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_blur_equals_scipy_bitwise(self, rows, length, severity, exponent,
                                       zeros, seed):
        """The reference is SciPy's C loop; it is needed by this test only."""
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(seed)
        shape = (length,) if rows is None else (rows, length)
        x = rng.normal(size=shape) * 10.0 ** exponent
        x = np.where(rng.random(shape) < zeros,
                     rng.choice([0.0, -0.0], size=shape), x)
        out = apply_corruption(x, Corruption("smooth_blur", severity), seed)
        expected = ndimage.uniform_filter1d(x, 2 * severity + 1, axis=-1,
                                            mode="reflect")
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_deterministic_per_seed(self, rng):
        x = rng.normal(size=(8, 32))
        for kind in CORRUPTION_KINDS:
            c = Corruption(kind, 4)
            a = apply_corruption(x, c, seed=9)
            b = apply_corruption(x, c, seed=9)
            np.testing.assert_array_equal(a, b)

    def test_invalid_corruptions_rejected(self):
        with pytest.raises(InvalidInput):
            Corruption("fog", 3)
        with pytest.raises(InvalidInput):
            Corruption("contrast", 0)
        with pytest.raises(InvalidInput):
            Corruption("contrast", 6)


class TestTrainSource:
    def test_deterministic_checkpoints(self):
        ds = generate_dataset(3, 600, seed=3)
        a = train_source(ds, epochs=5, seed=3)
        b = train_source(ds, epochs=5, seed=3)
        assert network_to_dict(a) == network_to_dict(b)

    def test_heldout_accuracy_target(self, source_net, test_dataset):
        assert evaluate_accuracy(source_net, test_dataset) >= 0.95

    def test_flip_invariance_of_clean_accuracy(self, source_net, test_dataset):
        flipped = SignalDataset(inputs=flip_signal(test_dataset.inputs),
                                labels=test_dataset.labels,
                                seed=test_dataset.seed)
        plain = evaluate_accuracy(source_net, test_dataset)
        mirrored = evaluate_accuracy(source_net, flipped)
        assert abs(plain - mirrored) <= 0.02

    def test_divergence_reported(self):
        ds = generate_dataset(3, 200, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train_source(ds, epochs=50, seed=0, lr=1e306)

    def test_running_stats_populated(self, source_net):
        from ttalab.network import BatchNormLayer

        for layer in source_net.layers:
            if isinstance(layer, BatchNormLayer):
                assert not np.allclose(layer.running_mean, 0.0)


class TestAccuracyMetric:
    def test_all_wrong_is_zero(self):
        labels = np.array([0, 1, 2, 0])
        preds = (labels + 1) % 3
        assert accuracy_score(preds, labels) == 0.0

    def test_bounded_and_permutation_invariant(self, rng):
        labels = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        acc = accuracy_score(preds, labels)
        assert 0.0 <= acc <= 1.0
        perm = rng.permutation(50)
        assert accuracy_score(preds[perm], labels[perm]) == acc

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            accuracy_score(np.zeros(3), np.zeros(4))


class TestBatchSlices:
    @given(m=st.integers(0, 500), n=st.integers(1, 120))
    def test_cover_in_order_and_fold_only_a_one_row_tail(self, m, n):
        slices = batch_slices(m, n)
        covered = [i for s in slices for i in range(m)[s]]
        assert covered == list(range(m))
        smallest = 2 if m >= 2 and n >= 2 else 1
        assert all(s.stop - s.start >= smallest for s in slices)
        if m % n != 1:
            assert slices == [slice(a, min(a + n, m))
                              for a in range(0, m, n)]


class TestStreamEval:
    def test_source_on_clean_stream_equals_plain_accuracy(self, source_net,
                                                          test_dataset):
        report = stream_eval(source_net, test_dataset, None,
                             StreamProtocol(batch_size=100, seed=0),
                             AdaptationConfig(strategy="source"))
        assert report.accuracy == evaluate_accuracy(source_net, test_dataset)
        assert report.corruption == "none"

    def test_accuracy_matches_recount_of_logged_predictions(self, source_net,
                                                            test_dataset):
        report = stream_eval(source_net, test_dataset,
                             Corruption("gaussian_noise", 5),
                             StreamProtocol(batch_size=100, seed=1),
                             AdaptationConfig(strategy="tent"))
        sizes = [s.stop - s.start for s in batch_slices(len(test_dataset), 100)]
        recount = np.dot(report.per_batch_accuracy, sizes) / sum(sizes)
        assert report.accuracy == pytest.approx(recount, rel=1e-12)

    def test_one_pass_touches_every_sample(self, source_net, test_dataset):
        report = stream_eval(source_net, test_dataset, None,
                             StreamProtocol(batch_size=128, seed=2),
                             AdaptationConfig(strategy="norm"))
        assert report.n_test == len(test_dataset)
        assert len(report.per_batch_accuracy) == int(np.ceil(3000 / 128))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(3, 60), n=st.integers(1, 12),
           strategy=st.sampled_from(STRATEGIES), q=st.integers(1, 5))
    def test_one_pass_property(self, m, n, strategy, q):
        net = make_network(input_dim=SIGNAL_LENGTH, hidden=4, k=3, seed=0)
        dataset = generate_dataset(3, m, seed=m)
        config = AdaptationConfig(strategy=strategy, accumulation_q=q)
        protocol = StreamProtocol(batch_size=n, seed=0)
        streams = [(None, protocol, config)]
        if n == 1 and strategy != "source":
            with pytest.raises(DegenerateBatch):
                adapt_streams(net, dataset.inputs, dataset.labels, streams)
            return
        (accuracy, per_batch, row), = adapt_streams(
            net, dataset.inputs, dataset.labels, streams)
        adapted = copy.deepcopy(net)
        adapted.affine[:] = row
        slices = batch_slices(m, n)
        sizes = [s.stop - s.start for s in slices]
        assert len(per_batch) == len(slices)
        assert accuracy == pytest.approx(np.dot(per_batch, sizes) / m,
                                         rel=1e-12)
        assert np.all(np.isfinite(adapted.affine))
        assert params_digest(net, row) == params_digest(adapted)
        if strategy in ("source", "norm") or (strategy == "ttc"
                                              and len(slices) < q):
            assert params_digest(adapted) == params_digest(net)
        if strategy in ("tent", "ttc"):
            adapter = Adapter(net, [config], n)
            for s in slices:
                adapter.adapt_batch(dataset.inputs[s][None])
            steps_every = q if strategy == "ttc" else 1
            t = adapter.optimizer.t
            assert (0 if t is None else t) == len(slices) // steps_every

    def test_identical_runs_produce_identical_reports(self, source_net,
                                                      test_dataset):
        def run():
            return stream_eval(source_net, test_dataset,
                               Corruption("impulse_noise", 3),
                               StreamProtocol(batch_size=100, seed=5),
                               AdaptationConfig(strategy="ttc"))

        assert run().json_str() == run().json_str()

    def test_report_json_schema(self, source_net, test_dataset):
        report = stream_eval(source_net, test_dataset,
                             Corruption("contrast", 2),
                             StreamProtocol(batch_size=100, seed=0),
                             AdaptationConfig(strategy="ttc"))
        doc = json.loads(report.json_str())
        assert {"strategy", "corruption", "severity", "seed", "n_test",
                "accuracy", "per_batch_accuracy", "config",
                "params_digest"} == set(doc)
        assert doc["strategy"] == "ttc"
        assert doc["corruption"] == "contrast"
        assert doc["severity"] == 2
        assert doc["n_test"] == 3000
        assert (AdaptationConfig(**doc["config"])
                == AdaptationConfig(strategy="ttc"))
        csv = report.per_batch_csv()
        assert csv.startswith("batch,accuracy\n")
        assert len(csv.strip().split("\n")) == 31

    def test_source_severity_monotone_on_average(self, source_net,
                                                 test_dataset):
        config = AdaptationConfig(strategy="source")
        for kind in CORRUPTION_KINDS:
            means = []
            for severity in range(1, 6):
                accs = [stream_eval(source_net, test_dataset,
                                    Corruption(kind, severity),
                                    StreamProtocol(batch_size=100, seed=s),
                                    config).accuracy for s in range(5)]
                means.append(np.mean(accs))
            for lo, hi in zip(means[1:], means[:-1]):
                assert lo <= hi + 0.01, f"{kind}: {means}"


def document_digest(net):
    """sha256 of the checkpoint document, serialised whole."""
    doc = json.dumps(network_to_dict(net), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


class TestParamsDigest:
    def test_equals_digest_of_checkpoint_document(self, source_net,
                                                  test_dataset):
        rows = [row for _, _, row in adapt_streams(
            source_net, test_dataset.inputs[:400], test_dataset.labels[:400],
            [(None, StreamProtocol(batch_size=20),
              AdaptationConfig(strategy=strategy))
             for strategy in STRATEGIES])]
        nets = [source_net]
        for row in rows:
            adapted = copy.deepcopy(source_net)
            adapted.affine[:] = row
            nets.append(adapted)
            assert params_digest(source_net, row) == document_digest(adapted)
        ulp = copy.deepcopy(source_net)
        w = ulp.layers[2].weight
        w[3, 5] = np.nextafter(w[3, 5], np.inf)
        zero = copy.deepcopy(source_net)
        zero.layers[0].weight[0, 0] = 0.0
        zero.layers[1].eps = 0.0
        negative_zero = copy.deepcopy(zero)
        negative_zero.layers[0].weight[0, 0] = -0.0
        negative_eps = copy.deepcopy(zero)
        negative_eps.layers[1].eps = -0.0
        meta = copy.deepcopy(source_net)
        meta.meta = {**meta.meta, "trained_epochs": 21}
        nets += [ulp, zero, negative_zero, negative_eps, meta]
        digests = []
        for net in nets:  # after the first, the dense layers are memo hits
            digests.append(params_digest(net))
            assert digests[-1] == document_digest(net)
        # source and norm never step; the five edits each change the digest
        assert digests[1] == digests[2] == digests[0]
        assert len(set(digests[:1] + digests[3:])) == len(nets) - 2

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
           k=st.integers(2, 4), pick=st.integers(0, 10**6))
    def test_one_ulp_anywhere_is_seen(self, seed, hidden, k, pick):
        net = make_network(input_dim=4, hidden=hidden, k=k, seed=seed)
        before = params_digest(net)
        arrays = [a for layer in net.layers for a in vars(layer).values()
                  if isinstance(a, np.ndarray)]
        a = arrays[pick % len(arrays)]
        flat = a.reshape(-1)
        i = pick % flat.size
        flat[i] = np.nextafter(flat[i], np.inf)
        assert params_digest(net) == document_digest(net) != before

    def test_memo_stays_within_its_size(self):
        for seed in range(100):
            net = make_network(input_dim=4, hidden=3, k=3, seed=seed)
            assert params_digest(net) == document_digest(net)
            assert len(benchmark._layer_json_memo) \
                <= benchmark.LAYER_JSON_MEMO_SIZE


class TestHistogramOverlap:
    def test_identical_histograms_overlap_fully(self):
        h = np.array([0.25, 0.5, 0.25])
        assert histogram_overlap(h, h) == 1.0

    def test_disjoint_supports_overlap_zero(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        assert histogram_overlap(a, b) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            histogram_overlap(np.ones(3), np.ones(4))
