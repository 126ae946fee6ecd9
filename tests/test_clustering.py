import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttalab.clustering import (FULL_BATCH, MINIBATCH_RUNNING, assign_step,
                               kmeans_objective, run_minibatch_kmeans,
                               update_step)
from ttalab.errors import InvalidInput

from oracles import brute_force_assign, per_point_update


class TestAssignStep:
    def test_point_on_center_assigned_to_it(self):
        centers = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert assign_step(np.array([[3.0, 4.0]]), centers)[0] == 1

    def test_exact_tie_goes_to_lowest_index(self):
        centers = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert assign_step(np.array([[1.0, 0.0]]), centers)[0] == 0

    def test_matches_brute_force(self, rng):
        features = rng.normal(size=(50, 2))
        centers = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(assign_step(features, centers),
                                      brute_force_assign(features, centers))

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(InvalidInput):
            assign_step(rng.normal(size=(4, 3)), rng.normal(size=(2, 2)))

    @pytest.mark.parametrize("n", [0, 4])
    def test_no_centers_rejected_naming_the_shapes(self, rng, n):
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "centers must be a non-empty (k, d) array, got shape"
                " (0, 3)") + "$"):
            assign_step(rng.normal(size=(n, 3)), np.empty((0, 3)))

    def test_no_features_assign_nothing(self, rng):
        labels = assign_step(np.empty((0, 3)), rng.normal(size=(2, 3)))
        assert labels.shape == (0,)


class TestUpdateStep:
    def test_two_points_average_to_midpoint(self):
        features = np.array([[0.0, 0.0], [2.0, 4.0]])
        centers = np.array([[9.0, 9.0], [5.0, 5.0]])
        new = update_step(features, np.array([0, 0]), centers)
        np.testing.assert_array_equal(new[0], [1.0, 2.0])
        np.testing.assert_array_equal(new[1], [5.0, 5.0])  # empty, unchanged

    @pytest.mark.parametrize("counts", [np.zeros(2, dtype=np.int64), [0, 0]],
                             ids=["array", "list"])
    def test_minibatch_running_counts_form_streaming_mean(self, counts):
        centers = np.zeros((2, 1))
        pts = np.array([[4.0], [8.0], [6.0]])
        centers = update_step(pts, np.array([0, 0, 0]), centers,
                              mode=MINIBATCH_RUNNING, counts=counts)
        np.testing.assert_allclose(centers[0], 6.0)  # exact running mean
        assert list(counts) == [3, 0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInput):
            update_step(np.zeros((1, 1)), np.array([0]), np.zeros((2, 1)),
                        mode="annealed")


@st.composite
def kmeans_streams(draw):
    """Centers, starting counts and 1-5 labelled batches of 0, 1 or many
    rows, whose labels use a random subset of the k clusters."""
    k, d = draw(st.integers(2, 8)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = (np.zeros(k, dtype=np.int64) if draw(st.booleans())
              else rng.integers(0, 50, size=k))
    batches = []
    for n in draw(st.lists(st.one_of(st.just(0), st.just(1),
                                     st.integers(2, 60)),
                           min_size=1, max_size=5)):
        used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        features = rng.normal(scale=3.0, size=(n, d))
        if n > 1 and draw(st.booleans()):
            features[n // 2:] = features[0]  # repeated points
        batches.append((features, rng.choice(used, size=n)))
    return rng.normal(size=(k, d)), counts, batches


class TestInPlaceRunningUpdate:
    @settings(max_examples=150)
    @given(stream=kmeans_streams())
    def test_centers_and_counts_match_per_point_loop_bitwise(self, stream):
        centers, counts, batches = stream
        ours, theirs = centers, centers
        our_counts, their_counts = counts.copy(), counts.copy()
        for features, labels in batches:
            ours = update_step(features, labels, ours, mode=MINIBATCH_RUNNING,
                               counts=our_counts)
            theirs = per_point_update(features, labels, theirs, their_counts)
            assert ours.tobytes() == theirs.tobytes()
            assert our_counts.dtype == their_counts.dtype
            assert our_counts.tolist() == their_counts.tolist()

    @settings(max_examples=50)
    @given(stream=kmeans_streams())
    def test_without_counts_matches_fresh_zero_counts(self, stream):
        centers, counts, batches = stream
        features, labels = batches[0]
        expected = per_point_update(features, labels, centers,
                                    np.zeros_like(counts))
        ours = update_step(features, labels, centers, mode=MINIBATCH_RUNNING)
        assert ours.tobytes() == expected.tobytes()


class TestBadAssignmentRejected:
    features = np.arange(6.0).reshape(3, 2)
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])

    out_of_range = ("assignment must hold one integer in [0, k) per row of"
                    " (n, d) features for (k, d) centers: got assignment int64"
                    " (3,), features (3, 2), centers (2, 2)")
    misshapen = "assignment must be a (n,) integer array with n=3, got shape"
    cases = [([0, 1, -1], out_of_range),
             ([0, 1], f"{misshapen} (2,) of dtype int64"),
             ([0, 1, 2], out_of_range),
             ([0.0, 1.0, 1.0], f"{misshapen} (3,) of dtype float64"),
             ([[0, 1, 1]], f"{misshapen} (1, 3) of dtype int64")]

    @pytest.mark.parametrize("mode", [FULL_BATCH, MINIBATCH_RUNNING])
    @pytest.mark.parametrize("assignment, message", cases)
    def test_update_step(self, mode, assignment, message):
        counts = np.zeros(2, dtype=np.int64)
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            update_step(self.features, assignment, self.centers, mode=mode,
                        counts=counts)
        assert counts.tolist() == [0, 0]

    @pytest.mark.parametrize("assignment, message", [
        ([0], f"{misshapen} (1,) of dtype int64"), cases[0], cases[2]])
    def test_objective(self, assignment, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            kmeans_objective(self.features, assignment, self.centers)

    @pytest.mark.parametrize("width", [1, 3])
    def test_feature_width_must_match_centers(self, width):
        features = np.ones((3, width))
        shapes = "^" + re.escape("features must be a (n, d) array with d=2,"
                                 f" got shape (3, {width})") + "$"
        for mode in (FULL_BATCH, MINIBATCH_RUNNING):
            with pytest.raises(InvalidInput, match=shapes):
                update_step(features, [0, 1, 1], self.centers, mode=mode)
        with pytest.raises(InvalidInput, match=shapes):
            kmeans_objective(features, [0, 1, 1], self.centers)

    @pytest.mark.parametrize("counts, got", [
        ([0], "(1,) of dtype int64"), ([0, 0, 0], "(3,) of dtype int64"),
        ([0.0, 0.0], "(2,) of dtype float64"),
        ([[0, 0]], "(1, 2) of dtype int64")])
    def test_counts_must_hold_k_integers(self, counts, got):
        with pytest.raises(InvalidInput, match="^" + re.escape(
                f"counts must be a (k,) integer array with k=2, got shape"
                f" {got}") + "$"):
            update_step(self.features, [0, 1, 1], self.centers,
                        mode=MINIBATCH_RUNNING, counts=np.array(counts))


class TestObjective:
    def test_no_points_rejected_naming_the_shapes(self):
        """The mean of no distances is undefined; numpy's reads NaN, with
        a RuntimeWarning."""
        with pytest.raises(InvalidInput, match=re.escape(
                "no points to score: features (0, 2), centers (3, 2)")):
            kmeans_objective(np.empty((0, 2)), np.empty(0, dtype=np.int64),
                             np.zeros((3, 2)))

    def test_points_at_centers_give_zero(self):
        centers = np.array([[1.0, 1.0], [2.0, 2.0]])
        features = centers.copy()
        assert kmeans_objective(features, np.array([0, 1]), centers) == 0.0

    def test_single_point_single_center(self):
        z = np.array([[1.0, 2.0, 2.0]])
        c = np.array([[0.0, 0.0, 0.0]])
        assert kmeans_objective(z, np.array([0]), c) == pytest.approx(9.0)

    def test_matches_double_loop(self, rng):
        features = rng.normal(size=(30, 4))
        centers = rng.normal(size=(5, 4))
        labels = assign_step(features, centers)
        total = 0.0
        for i in range(30):
            d = 0.0
            for j in range(4):
                d += (features[i, j] - centers[labels[i], j]) ** 2
            total += d
        assert kmeans_objective(features, labels, centers) == pytest.approx(
            total / 30, abs=1e-10)


def blob_instance(seed=5, n=200, sep=5.0, sigma=0.5):
    """Two gaussian blobs separated by 10+ sigma, shuffled."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [sep, sep]])
    labels = np.repeat([0, 1], n // 2)
    x = centers[labels] + rng.normal(0, sigma, size=(n, 2))
    order = rng.permutation(n)
    return x[order], labels[order]


class TestRunMinibatchKmeans:
    def test_full_batch_stream_is_lloyd(self, rng):
        x = rng.normal(size=(40, 3))
        iters = 4
        ours, trace = run_minibatch_kmeans([x] * iters, 2, init="first_k",
                                           mode=FULL_BATCH)
        assert len(trace) == iters
        centers = x[:2].copy()
        for _ in range(iters):
            labels = brute_force_assign(x, centers)
            for c in range(2):
                members = x[labels == c]
                if len(members):
                    centers[c] = members.mean(axis=0)
        np.testing.assert_array_equal(ours, centers)

    def test_separated_blobs_fully_recovered(self):
        x, labels = blob_instance()

        def stream(passes=5, bs=40):
            for _ in range(passes):
                for s in range(0, len(x), bs):
                    yield x[s:s + bs]

        centers, _ = run_minibatch_kmeans(stream(), 2, init="seeded_random",
                                          seed=3)
        assign = assign_step(x, centers)
        acc = max(np.mean(assign == labels), np.mean(assign == 1 - labels))
        assert acc == 1.0

    def test_same_seed_is_bitwise_deterministic(self):
        x, _ = blob_instance(seed=8)
        a, _ = run_minibatch_kmeans([x[:50], x[50:]], 2,
                                    init="seeded_random", seed=11)
        b, _ = run_minibatch_kmeans([x[:50], x[50:]], 2,
                                    init="seeded_random", seed=11)
        np.testing.assert_array_equal(a, b)

    def test_objective_trace_monotone_under_full_batch_alternation(self, rng):
        for _ in range(20):
            x = rng.normal(size=(30, 2))
            _, trace = run_minibatch_kmeans([x] * 8, 3, init="first_k",
                                            mode=FULL_BATCH)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-10)

    def test_bad_arguments_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(InvalidInput):
            run_minibatch_kmeans([x], 1, init="first_k")
        with pytest.raises(InvalidInput):
            run_minibatch_kmeans([x], 12, init="first_k")
        with pytest.raises(InvalidInput):
            run_minibatch_kmeans([], 2, init="first_k")

    @pytest.mark.parametrize("mode", [FULL_BATCH, MINIBATCH_RUNNING])
    def test_an_empty_later_batch_rejected(self, rng, mode):
        x = rng.normal(size=(10, 2))
        with pytest.raises(InvalidInput, match=re.escape(
                "no points to score: features (0, 2), centers (3, 2)")):
            run_minibatch_kmeans([x, np.empty((0, 2)), x], 3, mode=mode)

    @pytest.mark.parametrize("init", ["first_k", "seeded_random"])
    def test_k_above_the_first_batch_rejected_for_either_init(self, rng,
                                                              init):
        x = rng.normal(size=(10, 2))
        with pytest.raises(InvalidInput, match=f"smaller than k for {init}"):
            run_minibatch_kmeans([x], 11, init=init)

    @pytest.mark.parametrize("init", ["first_k", "seeded_random"])
    def test_a_first_batch_not_two_dimensional_is_named(self, rng, init):
        for first in (rng.normal(size=10), rng.normal(size=(2, 5, 2))):
            with pytest.raises(InvalidInput, match=re.escape(
                    f"got shape {first.shape}")):
                run_minibatch_kmeans([first], 2, init=init)

    @pytest.mark.parametrize("k", [2.5, 3.0, np.float64(3), True, "3"],
                             ids=repr)
    def test_non_integer_k_rejected_naming_it(self, rng, k):
        x = rng.normal(size=(10, 2))
        with pytest.raises(InvalidInput, match=rf"^k .*{re.escape(repr(k))}$"):
            run_minibatch_kmeans([x], k, init="first_k")

    @pytest.mark.parametrize("init", ["first_k", "seeded_random"])
    @pytest.mark.parametrize("seed", [-1, 2.5, True, None, "0"], ids=repr)
    def test_bad_seed_rejected_naming_it(self, rng, init, seed):
        x = rng.normal(size=(10, 2))
        with pytest.raises(InvalidInput,
                           match=rf"^seed .*{re.escape(repr(seed))}$"):
            run_minibatch_kmeans([x], 3, init=init, seed=seed)

    def test_numpy_integer_seed_runs_as_its_int(self, rng):
        x = rng.normal(size=(10, 2))
        ours = run_minibatch_kmeans([x, x], 3, init="seeded_random",
                                    seed=np.int64(5))
        theirs = run_minibatch_kmeans([x, x], 3, init="seeded_random", seed=5)
        np.testing.assert_array_equal(ours[0], theirs[0])
        assert ours[1] == theirs[1]

    def test_numpy_integer_k_runs_as_its_int(self, rng):
        x = rng.normal(size=(10, 2))
        ours = run_minibatch_kmeans([x, x], np.int64(3), init="first_k")
        theirs = run_minibatch_kmeans([x, x], 3, init="first_k")
        np.testing.assert_array_equal(ours[0], theirs[0])
        assert ours[1] == theirs[1]


class TestEntropyClusteringCorrespondence:
    def test_single_sample_small_step_keeps_its_label(self, rng):
        """A gradient step on one sample never flips its own argmax.

        This is the clustering reading of the adaptation forward/backward
        split at batch size 1: the assignment made in the forward pass can
        only be reinforced by the update that follows it.
        """
        from ttalab.adaptation import tent_loss
        from ttalab.network import (BNMode, DenseLayer, Network, backward_all,
                                    forward)

        for _ in range(50):
            w = rng.normal(size=(3, 4))
            b = rng.normal(size=3)
            net = Network(layers=[DenseLayer(weight=w.copy(), bias=b.copy())],
                          k=3)
            x = rng.normal(size=(1, 4))
            logits, cache = forward(net, x, BNMode.EVAL_STATS)
            before = int(np.argmax(logits[0]))
            _, gl = tent_loss(logits)
            net.params -= 1e-3 * backward_all(net, cache, gl)
            after_logits, _ = forward(net, x, BNMode.EVAL_STATS)
            assert int(np.argmax(after_logits[0])) == before
