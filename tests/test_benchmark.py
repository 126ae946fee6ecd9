import copy
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttalab import benchmark
from ttalab.adaptation import (STRATEGIES, AdaptationConfig, Adapter,
                               flip_signal, with_flips)
from ttalab.benchmark import (CORRUPTION_KINDS, NOISE_SIGMA, SIGNAL_LENGTH,
                              TRAIN_BATCH_SIZE, Corruption, SignalDataset,
                              StreamProtocol, accuracy_score, adapt_streams,
                              apply_corruption, batch_slices, class_templates,
                              collect_features, evaluate_accuracy,
                              feature_histograms, generate_dataset,
                              histogram_overlap, params_digest, stream_eval,
                              train_source)
from ttalab.errors import InvalidInput, TrainingDiverged
from ttalab.network import (BatchNormLayer, BNMode, DenseLayer, Network,
                            forward, make_network, network_from_dict,
                            save_checkpoint)

from conftest import traced_peak
from oracles import (document_digest, network_to_dict, per_batch_train_source,
                     reference_dataset)


@st.composite
def dataset_args(draw):
    """(k, m, seed): k in 2..12, m in k..5000 with m = k and m = 1 (mod k)
    drawn often, any seed; each a Python int or a numpy integer."""
    k = draw(st.integers(2, 12))
    m = draw(st.just(k) | st.integers(1, 4999 // k).map(lambda q: q * k + 1)
             | st.integers(k, 5000))
    seed = draw(st.integers(min_value=0))
    if draw(st.booleans()):
        k, m, seed = np.int8(k), np.int16(m), np.uint64(seed % 2 ** 64)
    return k, m, seed


class TestGenerateDataset:
    @given(args=dataset_args())
    def test_bits_match_the_two_gather_reference(self, args):
        ds = generate_dataset(*args)
        inputs, labels = reference_dataset(*map(int, args))
        assert ds.inputs.dtype == np.float64 and ds.inputs.flags.c_contiguous
        assert ds.inputs.shape == inputs.shape
        assert np.array_equal(ds.inputs.view(np.int64), inputs.view(np.int64))
        assert ds.labels.dtype == labels.dtype
        assert np.array_equal(ds.labels.view(np.int64), labels.view(np.int64))

    def test_traced_peak_is_one_array(self):
        """The inputs are permuted in place, so the peak is the (m, 32)
        array plus (m,) labels; a permuted copy read 2.09 times it."""
        ds, peak = traced_peak(lambda: generate_dataset(3, 30000, 0))
        assert peak <= 1.25 * ds.inputs.nbytes

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
        labels = np.arange(300) % 3
        ds = SignalDataset(inputs=class_templates(3)[labels], labels=labels,
                           seed=1)
        net = train_source(ds, epochs=10, seed=1)
        assert evaluate_accuracy(net, ds) == 1.0

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(InvalidInput):
            generate_dataset(1, 100, seed=0)
        with pytest.raises(InvalidInput):
            generate_dataset(5, 3, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("k", True), ("m", 30.0), ("m", "30"), ("seed", -1),
        ("seed", 2.5), ("seed", None)], ids=repr)
    def test_non_integer_or_negative_argument_named(self, name, value):
        args = dict(k=3, m=30, seed=0) | {name: value}
        with pytest.raises(InvalidInput,
                           match=rf"^{name} .*{re.escape(repr(value))}$"):
            generate_dataset(**args)

    @pytest.mark.parametrize("k", [1, 2.5, True], ids=repr)
    def test_class_templates_name_a_bad_k(self, k):
        with pytest.raises(InvalidInput,
                           match=rf"^k .*{re.escape(repr(k))}$"):
            class_templates(k)

    def test_numpy_integers_run_as_their_ints(self):
        ours = generate_dataset(np.int64(3), np.int32(30), np.uint8(7))
        theirs = generate_dataset(3, 30, 7)
        assert ours.inputs.tobytes() == theirs.inputs.tobytes()
        assert ours.labels.tobytes() == theirs.labels.tobytes()
        assert type(ours.seed) is int


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

    @settings(max_examples=300)
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

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    @pytest.mark.parametrize("seed", [-1, 2.5, True, None, "0",
                                      np.float64(1.0)], ids=repr)
    def test_bad_seed_rejected_naming_it(self, kind, seed):
        x = np.zeros((2, SIGNAL_LENGTH))
        with pytest.raises(InvalidInput,
                           match=rf"^seed .*{re.escape(repr(seed))}$"):
            apply_corruption(x, Corruption(kind, 1), seed)

    def test_numpy_integer_seed_runs_as_its_int(self, rng):
        x = rng.normal(size=(8, 32))
        for kind in CORRUPTION_KINDS:
            c = Corruption(kind, 3)
            assert (apply_corruption(x, c, np.uint16(7)).tobytes()
                    == apply_corruption(x, c, 7).tobytes())

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

    @pytest.mark.parametrize("kind", ["smooth_blur", "gaussian_noise"])
    @pytest.mark.parametrize("severity", [2.5, 3.0, True, np.float64(2),
                                          "3", None], ids=repr)
    def test_non_integer_severity_rejected_naming_it(self, kind, severity):
        with pytest.raises(InvalidInput, match=(
                rf"^severity .*{re.escape(repr(severity))}$")):
            Corruption(kind, severity)


class TestStreamProtocol:
    @pytest.mark.parametrize("name, value", [
        ("batch_size", 2.5), ("batch_size", 0), ("batch_size", True),
        ("seed", -1), ("seed", 2.5), ("seed", False), ("seed", None)],
        ids=repr)
    def test_non_integer_or_out_of_range_field_named(self, name, value):
        with pytest.raises(InvalidInput,
                           match=rf"^{name} .*{re.escape(repr(value))}$"):
            StreamProtocol(**{name: value})

    def test_numpy_integers_report_as_ints(self, source_net, test_dataset):
        def run(severity, batch_size, seed):
            return stream_eval(
                source_net, test_dataset,
                Corruption("gaussian_noise", severity),
                StreamProtocol(batch_size=batch_size, seed=seed),
                AdaptationConfig(strategy="tent"))

        ours = run(np.int64(3), np.int64(50), np.int64(1))
        assert ours.json_str() == run(3, 50, 1).json_str()


class TestTrainSource:
    def test_deterministic_checkpoints(self):
        ds = generate_dataset(3, 600, seed=3)
        a = train_source(ds, epochs=5, seed=3)
        b = train_source(ds, epochs=5, seed=3)
        assert network_to_dict(a) == network_to_dict(b)

    @pytest.mark.parametrize("name, value", [
        ("epochs", -1), ("epochs", 1.5), ("epochs", True), ("lr", 0.0),
        ("lr", math.inf), ("lr", "x"), ("lr", True), ("seed", -1),
        ("seed", 2.5), ("hidden", 0), ("hidden", True)], ids=repr)
    def test_bad_argument_named(self, name, value):
        args = dict(epochs=1, seed=0, lr=1e-2, hidden=4) | {name: value}
        with pytest.raises(InvalidInput,
                           match=rf"^{name} .*{re.escape(repr(value))}$"):
            train_source(generate_dataset(3, 30, seed=0), **args)

    def test_numpy_integer_seed_is_kept_as_its_int(self):
        ds = generate_dataset(3, 60, seed=0)
        net = train_source(ds, epochs=1, seed=np.int64(5), hidden=4)
        assert net.meta == {"seed": 5, "trained_epochs": 1}
        assert type(net.meta["seed"]) is int
        assert params_digest(net) == params_digest(
            train_source(ds, epochs=1, seed=5, hidden=4))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_dataset_is_invalid_input(self, bad):
        """A non-finite sample is the caller's input, not a divergence."""
        ds = generate_dataset(3, 200, seed=0)
        ds.inputs[150, 7] = bad
        with pytest.raises(InvalidInput,
                           match="^batch contains non-finite values$"):
            train_source(ds, epochs=1, seed=0)

    @pytest.mark.parametrize("lr, shown", [(10**400, "inf"),
                                           (-10**400, "-inf")], ids=repr)
    def test_lr_beyond_the_float_range_is_infinite(self, lr, shown):
        with pytest.raises(InvalidInput, match=(
                f"^lr must be finite and positive, got {shown}$")):
            train_source(generate_dataset(3, 30, seed=0), epochs=1, seed=0,
                         lr=lr)

    def test_traced_peak_is_one_batch(self):
        """Each batch gathers and flips its own 64 rows: an epoch gathered
        into one (m, 32) buffer and flipped through two half-size
        temporaries traced 2.08 times the inputs."""
        ds = generate_dataset(3, 30000, seed=0)
        _, peak = traced_peak(lambda: train_source(ds, epochs=1, seed=0))
        assert peak <= 0.25 * ds.inputs.nbytes

    def test_running_stats_populated(self, source_net):
        from ttalab.network import BatchNormLayer

        for layer in source_net.layers:
            if isinstance(layer, BatchNormLayer):
                assert not np.allclose(layer.running_mean, 0.0)


class TestTrainingMatchesPerBatchLoop:
    # m = k, one short batch, whole batches, a lone last row (skipped),
    # several batches
    @settings(max_examples=100)
    @given(k=st.integers(2, 4),
           m=st.one_of(st.just("k"), st.integers(2, 63),
                       st.sampled_from([64, 65, 129, 300])),
           epochs=st.integers(0, 3), hidden=st.integers(1, 16),
           seed=st.integers(0, 50))
    def test_network_is_bit_identical(self, k, m, epochs, hidden, seed):
        m = k if m == "k" else max(m, k)
        dataset = generate_dataset(k, m, seed=seed)
        ours = train_source(dataset, epochs, seed, hidden=hidden)
        oracle = per_batch_train_source(dataset, epochs, seed, hidden=hidden)
        # json holds each float's shortest repr, so equal text is equal bits
        assert document_digest(ours) == document_digest(oracle)


class TestTrainingDivergence:
    def test_error_names_epoch_and_batch_without_a_warning(self):
        ds = generate_dataset(3, 300, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDiverged,
                               match=r"epoch 1, batch 2: overflow"):
                train_source(ds, epochs=5, seed=0, lr=1e300)
        assert caught == []


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

    @pytest.mark.parametrize("predictions, labels, message", [
        (np.zeros(3), np.zeros(4),
         "labels must be a (n,) array with n=3, got shape (4,)"),
        (np.zeros((2, 2)), np.zeros((2, 2)),
         "predictions must be a non-empty (n,) array, got shape (2, 2)"),
        (np.zeros((2, 1)), np.zeros(2),
         "predictions must be a non-empty (n,) array, got shape (2, 1)"),
        (np.zeros(2), np.zeros((2, 1)),
         "labels must be a (n,) array with n=2, got shape (2, 1)"),
        (np.zeros(0), np.zeros(0),
         "predictions must be a non-empty (n,) array, got shape (0,)"),
    ], ids=["lengths", "2-D", "column", "column labels", "empty"])
    def test_shape_mismatch_rejected(self, predictions, labels, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            accuracy_score(predictions, labels)

    def test_evaluate_accuracy_traced_peak_is_one_slice(self):
        """The accuracy is one full EVAL_STATS forward's, and the pass
        traces at most a quarter of the inputs. One forward over all 30000
        rows traced 4.27 times the inputs."""
        ds = generate_dataset(3, 30000, seed=0)
        net = make_network(input_dim=SIGNAL_LENGTH, hidden=64, k=3, seed=0)
        expected = accuracy_score(np.argmax(
            forward(net, ds.inputs, BNMode.EVAL_STATS)[0], axis=1), ds.labels)
        acc, peak = traced_peak(lambda: evaluate_accuracy(net, ds))
        assert acc == expected
        assert peak <= 0.25 * ds.inputs.nbytes

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 5),
           m=st.integers(2, 300) | st.sampled_from([65, 129, 193, 257]),
           hidden=st.integers(1, 16), seed=st.integers(0, 50))
    def test_evaluate_accuracy_is_the_mean_of_per_slice_hits(self, k, m,
                                                             hidden, seed):
        ds = generate_dataset(k, max(m, k), seed=seed)
        net = train_source(ds, epochs=1, seed=seed, hidden=hidden)
        hits = [np.argmax(forward(net, ds.inputs[a:a + TRAIN_BATCH_SIZE],
                                  BNMode.EVAL_STATS)[0], axis=1)
                == ds.labels[a:a + TRAIN_BATCH_SIZE]
                for a in range(0, len(ds), TRAIN_BATCH_SIZE)]
        assert evaluate_accuracy(net, ds) == np.mean(np.concatenate(hits))


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

    @settings(max_examples=60)
    @given(m=st.integers(3, 60), n=st.integers(1, 12),
           strategy=st.sampled_from(STRATEGIES), q=st.integers(1, 5))
    def test_one_pass_property(self, m, n, strategy, q):
        net = make_network(input_dim=SIGNAL_LENGTH, hidden=4, k=3, seed=0)
        dataset = generate_dataset(3, m, seed=m)
        config = AdaptationConfig(strategy=strategy, accumulation_q=q)
        protocol = StreamProtocol(batch_size=n, seed=0)
        streams = [(None, protocol, config)]
        if n == 1 and strategy != "source":
            with pytest.raises(InvalidInput, match="TEST_BATCH_STATS needs a"
                               " batch of at least 2"):
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
                adapter.adapt_batch(with_flips(dataset.inputs[s][None],
                                               adapter.flips))
            steps_every = q if strategy == "ttc" else 1
            ((_, window),) = adapter.windows
            t = window.optimizer.t
            assert (0 if t is None else t) == len(slices) // steps_every

    def test_streams_sharing_a_corruption_share_one_call_per_trip(
            self, source_net, test_dataset, monkeypatch):
        """Each trip corrupts each distinct (corruption, seed) once, equal
        Corruptions being one pair, and every stream still gets what its
        own adapt_streams call gives it."""
        calls = []
        corrupt = benchmark.apply_corruption

        def counting(x, corruption, seed):
            calls.append((corruption.kind, corruption.severity, seed))
            return corrupt(x, corruption, seed)

        pairs = [(Corruption("gaussian_noise", 5), 0),
                 (Corruption("gaussian_noise", 5), 0),
                 (None, 0), (None, 0), (None, 1),
                 (Corruption("gaussian_noise", 5), 1),
                 (Corruption("contrast", 3), 1),
                 (Corruption("gaussian_noise", 5), 1)]
        configs = [AdaptationConfig(strategy="tent"),
                   AdaptationConfig(strategy="ttc"),
                   AdaptationConfig(strategy="ttc", rla_enabled=False)]
        streams = [(corruption, StreamProtocol(batch_size=n, seed=seed),
                    configs[i % len(configs)])
                   for n in (10, 20)
                   for i, (corruption, seed) in enumerate(pairs)]
        inputs, labels = test_dataset.inputs[:200], test_dataset.labels[:200]
        alone = [adapt_streams(source_net, inputs, labels, [stream])[0]
                 for stream in streams]
        monkeypatch.setattr(benchmark, "apply_corruption", counting)
        together = adapt_streams(source_net, inputs, labels, streams)
        # one trip per batch size, each with three distinct corrupted pairs
        assert sorted(calls) == sorted(2 * [("contrast", 3, 1),
                                            ("gaussian_noise", 5, 0),
                                            ("gaussian_noise", 5, 1)])
        for (accuracy, per_batch, row), (own_accuracy, own_per_batch,
                                         own_row) in zip(together, alone):
            assert accuracy == own_accuracy
            assert per_batch == own_per_batch
            assert row.tobytes() == own_row.tobytes()

    @pytest.mark.parametrize("m, labels_m, message", [
        (0, 0, "inputs must be a non-empty (m, d) array with d=8, got shape"
         " (0, 8)"),
        (40, 39, "labels must be a (m,) array with m=40, got shape (39,)"),
        (40, 41, "labels must be a (m,) array with m=40, got shape (41,)")])
    def test_a_stream_and_labels_of_other_lengths_are_named(self, rng, m,
                                                            labels_m,
                                                            message):
        inputs = rng.normal(size=(m, 8))
        labels = rng.integers(0, 3, size=labels_m)
        streams = [(None, StreamProtocol(batch_size=10), AdaptationConfig())]
        # no RuntimeWarning first: the project's pytest config makes it fail
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            adapt_streams(make_network(input_dim=8, hidden=6, k=3), inputs,
                          labels, streams)

    def test_identical_runs_produce_identical_reports(self, source_net,
                                                      test_dataset):
        def run():
            return stream_eval(source_net, test_dataset,
                               Corruption("impulse_noise", 3),
                               StreamProtocol(batch_size=100, seed=5),
                               AdaptationConfig(strategy="ttc"))

        assert run().json_str() == run().json_str()

    def test_numpy_integer_q_reports_as_an_int(self, source_net,
                                               test_dataset):
        def run(q):
            return stream_eval(source_net, test_dataset, None,
                               StreamProtocol(batch_size=100, seed=0),
                               AdaptationConfig(strategy="ttc",
                                                accumulation_q=q))

        assert run(np.int64(3)).json_str() == run(3).json_str()

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

    @settings(max_examples=40)
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
        rng = np.random.default_rng(3)
        nets = [random_net(rng, seed) for seed in range(100)]
        for net in nets:
            assert params_digest(net) == document_digest(net)
            assert len(net.layer_texts) <= len(net.layers)

    def test_memo_belongs_to_its_network(self, source_net):
        a, b = copy.deepcopy(source_net), make_network(seed=1)
        assert a.layer_texts == {} and b.layer_texts == {}
        texts = []
        for net in (a, b, a, b, a):
            assert params_digest(net) == document_digest(net)
            texts.append(dict(net.layer_texts))
        # b's digests evict none of a's slots: a's texts are the same objects
        for i, (_, text) in texts[0].items():
            assert texts[2][i][1] is text and texts[4][i][1] is text
        a.params[-1] = np.nextafter(a.params[-1], np.inf)  # a's last bias
        assert params_digest(a) == document_digest(a)
        assert params_digest(b) == document_digest(b)
        assert copy.deepcopy(a).layer_texts == {}
        assert network_from_dict(network_to_dict(a)).layer_texts == {}

    def test_a_dropped_network_leaves_no_texts(self, tmp_path):
        save_checkpoint(make_network(seed=0), tmp_path / "warm.json")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net = make_network(seed=1)
            save_checkpoint(net, tmp_path / "net.json")
            del net
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert left < 20_000

    def test_interleaved_networks(self, source_net):
        a, b = source_net, make_network(seed=1)
        row = a.affine + 0.25
        adapted = copy.deepcopy(a)
        adapted.affine[:] = row
        for net, affine, reference in ((a, None, a), (b, None, b),
                                       (a, None, a), (a, row, adapted)):
            assert params_digest(net, affine) == document_digest(reference)
        assert len({document_digest(n) for n in (a, b, adapted)}) == 3

    @pytest.mark.parametrize("index, name", [
        (i, f.name) for i, cls in ((0, DenseLayer), (1, BatchNormLayer))
        for f in dataclasses.fields(cls)])
    def test_every_field_counts(self, tmp_path, index, name):
        base = make_network(input_dim=4, hidden=3, k=3, seed=2)
        base.layers[1].eps = 0.0
        for check in ("save", "digest"):
            net = copy.deepcopy(base)
            before = params_digest(net)  # the memo now holds every layer
            layer = net.layers[index]
            value = getattr(layer, name)
            if name == "activation":
                assert value == "relu"
                layer.activation = "identity"
            elif name == "eps":
                layer.eps = -0.0
            elif name == "momentum":
                layer.momentum = value * 2.0
            else:
                flat = value.reshape(-1)
                flat[-1] = np.nextafter(flat[-1], np.inf)
            doc = json.dumps(network_to_dict(net), sort_keys=True)
            if check == "save":
                save_checkpoint(net, tmp_path / "net.json")
                assert (tmp_path / "net.json").read_bytes() \
                    == (doc + "\n").encode("utf-8")
            else:
                assert params_digest(net) == document_digest(net) != before

    def test_hashes_through_the_benchmark_module(self, source_net,
                                                 monkeypatch):
        # perfbench counts benchmark.params_digest.bytes through this
        # module attribute
        hashed = []

        class RecordingHashlib:
            def sha256(self, data=b""):
                hashed.append(data)
                return hashlib.sha256(data)

        monkeypatch.setattr(benchmark, "hashlib", RecordingHashlib())
        row = source_net.affine - 0.5
        adapted = copy.deepcopy(source_net)
        adapted.affine[:] = row
        digest = params_digest(source_net, row)
        assert hashed == [json.dumps(network_to_dict(adapted),
                                     sort_keys=True).encode()]
        assert digest == document_digest(adapted)


def random_net(rng, seed):
    """A network of one to three dense-led blocks, each with or without a
    BN layer."""
    layers, width = [], 4
    blocks = int(rng.integers(1, 4))
    for i in range(blocks):
        out = 3 if i == blocks - 1 else int(rng.integers(1, 6))
        layers.append(DenseLayer(weight=rng.normal(size=(out, width)),
                                 bias=rng.normal(size=out),
                                 activation="identity" if i == blocks - 1
                                 else "relu"))
        if rng.random() < 0.5:
            layers.append(BatchNormLayer.identity(out))
        width = out
    return Network(layers=layers, k=3, meta={"seed": seed})


class TestFeatureHistograms:
    @pytest.mark.parametrize("bins", [0, -1, 2.5, True, "8"], ids=repr)
    def test_bad_bins_named(self, rng, bins):
        with pytest.raises(InvalidInput,
                           match=rf"^bins .*{re.escape(repr(bins))}$"):
            feature_histograms({"a": rng.normal(size=(6, 2))}, bins=bins)

    @pytest.mark.parametrize("features, shown", [
        ({"a": np.zeros(3)}, "'a' must be a non-empty (n, channels) array,"
         " got shape (3,)"),
        ({"a": np.zeros((2, 2, 2))}, "'a' must be a non-empty (n, channels)"
         " array, got shape (2, 2, 2)"),
        ({"a": np.zeros((3, 2)), "b": np.zeros((0, 2))},
         "'b' must be a non-empty (n, channels) array with channels=2, got"
         " shape (0, 2)"),
        ({"a": np.zeros((3, 2)), "b": np.zeros((3, 3))},
         "'b' must be a non-empty (n, channels) array with channels=2, got"
         " shape (3, 3)"),
        ({"a": [[0.0], [np.nan]]}, "'a' contains non-finite values"),
        ({"a": np.zeros((3, 1)), "b": [[0.0], [np.inf]]},
         "'b' contains non-finite values"),
    ], ids=["1-D", "3-D", "no rows", "channels differ", "nan", "inf"])
    def test_malformed_features_named(self, features, shown):
        with pytest.raises(InvalidInput,
                           match=f"^{re.escape(f'features {shown}')}$"):
            feature_histograms(features)


class TestCollectFeatures:
    @pytest.mark.parametrize("shape", [(0, SIGNAL_LENGTH), (SIGNAL_LENGTH,)])
    def test_no_stream_named(self, source_net, shape):
        with pytest.raises(InvalidInput, match="^" + re.escape(
                f"inputs must be a non-empty (m, d) array with"
                f" d={SIGNAL_LENGTH}, got shape {shape}") + "$"):
            collect_features(source_net, np.zeros(shape), 10,
                             BNMode.EVAL_STATS)


class TestHistogramOverlap:
    def test_identical_histograms_overlap_fully(self):
        h = np.array([0.25, 0.5, 0.25])
        assert histogram_overlap(h, h) == 1.0

    def test_disjoint_supports_overlap_zero(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        assert histogram_overlap(a, b) == 0.0

    @pytest.mark.parametrize("h1, h2, message", [
        (np.ones(3), np.ones(4),
         "h2 must be a (bins,) array with bins=3, got shape (4,)"),
        (np.ones((2, 3)), np.ones((2, 3)),
         "h1 must be a non-empty (bins,) array, got shape (2, 3)"),
    ], ids=["lengths", "2-D"])
    def test_shape_mismatch_rejected(self, h1, h2, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            histogram_overlap(h1, h2)
