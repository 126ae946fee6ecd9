import io
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttalab import numeric
from ttalab.errors import InvalidInput, TrainingDiverged
from ttalab.numeric import (EPS_PROB, entropy, entropy_grad_logits,
                            simulate_entropy_descent, softmax,
                            trajectory_csv)

from conftest import traced_peak
from oracles import bits, entropy_descent, finite_diff_check, per_scalar_csv


class TestSoftmax:
    def test_symmetric_input_is_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0, 0.0]), 0.25,
                                   atol=1e-12)

    def test_shift_parameterization(self):
        """[a, a+c] puts 1/(1+e^-c) on the second entry, for any a."""
        for a in (-3.0, 0.0, 10.0):
            for c in (0.0, 1.0, -2.5):
                p = softmax([a, a + c])
                np.testing.assert_allclose(p[1], 1.0 / (1.0 + np.exp(-c)),
                                           atol=1e-12)
        np.testing.assert_allclose(softmax([7.0, 7.0]), [0.5, 0.5], atol=1e-12)

    def test_frozen_values(self):
        # independently evaluated exp/sum at 50-digit precision
        expected = [0.090030573170380458, 0.24472847105479765,
                    0.66524095577482189]
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), expected,
                                   atol=1e-5)

    def test_rows_sum_to_one_and_shift_invariance(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 30))
            z = rng.normal(scale=5.0, size=k)
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-9
            shifted = softmax(z + rng.normal())
            np.testing.assert_allclose(p, shifted, atol=1e-12)

    def test_entries_clamped_positive(self):
        p = softmax([0.0, -800.0])
        assert p.min() >= EPS_PROB

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            softmax([np.nan, 0.0])
        with pytest.raises(InvalidInput):
            softmax([np.inf, 0.0])


class TestEntropy:
    def test_uniform_is_log_k(self):
        np.testing.assert_allclose(entropy(np.full(10, 0.1)),
                                   2.3025850929940457, atol=1e-12)

    def test_near_one_hot_tends_to_zero(self):
        k = 5
        values = []
        for eps in (1e-3, 1e-6, 1e-9):
            p = np.full(k, eps / (k - 1))
            p[0] = 1.0 - eps
            values.append(entropy(p))
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-7

    def test_frozen_value(self):
        # -0.9 log 0.9 - 0.1 log 0.1 evaluated independently
        np.testing.assert_allclose(entropy([0.9, 0.1]), 0.32508297339144824,
                                   atol=1e-5)

    def test_bounded_by_log_k_with_equality_only_at_uniform(self, rng):
        for _ in range(300):
            k = int(rng.integers(2, 50))
            p = rng.dirichlet(np.ones(k))
            h = entropy(p)
            assert 0.0 <= h <= np.log(k) + 1e-9
            if np.log(k) - h < 1e-9:
                np.testing.assert_allclose(p, 1.0 / k, atol=1e-4)
        assert abs(entropy(np.full(7, 1 / 7)) - np.log(7)) < 1e-9

    def test_invalid_vectors_rejected(self):
        with pytest.raises(InvalidInput):
            entropy([0.7, 0.7])  # does not sum to 1
        with pytest.raises(InvalidInput):
            entropy([1.2, -0.2])  # negative entry


class TestEntropyGradLogits:
    def test_uniform_is_stationary(self):
        g = entropy_grad_logits(np.zeros(6))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_matches_finite_differences(self, rng):
        def f(z):
            return entropy(softmax(z))

        for k in (2, 10, 50):
            for _ in range(100):
                z = rng.normal(scale=3.0, size=k)
                err = finite_diff_check(f, z, entropy_grad_logits(z))
                assert err < 1e-5

    def test_argmax_component_negative(self):
        g = entropy_grad_logits(np.array([2.0, 0.0]))
        assert g[0] < 0.0

    def test_components_sum_to_zero(self, rng):
        for _ in range(100):
            z = rng.normal(scale=4.0, size=int(rng.integers(2, 20)))
            assert abs(entropy_grad_logits(z).sum()) < 1e-12


class TestSimulateEntropyDescent:
    def test_binary_start_rises_toward_one(self):
        traj = simulate_entropy_descent([0.6, 0.4], lr=0.05, steps=3000)
        top = traj[:, 0]
        assert np.all(np.diff(top[:500]) > 0)  # strict while far from saturation
        assert np.all(np.diff(top) >= 0)
        assert top[-1] >= 0.999

    def test_uniform_start_is_constant(self):
        traj = simulate_entropy_descent(np.full(4, 0.25), lr=0.05, steps=50)
        np.testing.assert_allclose(traj, 0.25, atol=1e-9)

    def test_three_class_run_saturates(self):
        traj = simulate_entropy_descent([0.4, 0.35, 0.25], lr=0.05, steps=5000)
        top = traj[:, 0]
        assert np.all(np.diff(top) >= 0)
        assert top[-1] >= 0.999

    def test_trajectory_row_zero_is_start(self):
        p0 = np.array([0.3, 0.45, 0.25])
        traj = simulate_entropy_descent(p0, lr=0.01, steps=3)
        np.testing.assert_array_equal(traj[0], p0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInput):
            simulate_entropy_descent([0.5, 0.5], lr=0.0, steps=5)
        with pytest.raises(InvalidInput):
            simulate_entropy_descent([0.7, 0.7], lr=0.1, steps=5)

    @pytest.mark.parametrize("name, value", [
        ("steps", 2.5), ("steps", 3.0), ("steps", np.float64(3)),
        ("steps", True), ("steps", "3"), ("lr", True), ("lr", "0.1"),
        ("lr", None)], ids=repr)
    def test_non_numbers_rejected_naming_the_argument(self, name, value):
        with pytest.raises(InvalidInput,
                           match=f"^{name} .*{re.escape(repr(value))}$"):
            simulate_entropy_descent([0.6, 0.4], **({"lr": 0.05, "steps": 3}
                                                    | {name: value}))

    @pytest.mark.parametrize("lr, shown", [(10**400, "inf"),
                                           (-10**400, "-inf")], ids=repr)
    def test_lr_beyond_the_float_range_is_infinite(self, lr, shown):
        with pytest.raises(InvalidInput, match=(
                f"^lr must be finite and positive, got {shown}$")):
            simulate_entropy_descent([0.6, 0.4], lr, 3)

    def test_numpy_and_fraction_arguments_run_as_int_and_float(self):
        expected = simulate_entropy_descent([0.6, 0.4], 0.05, 3).tobytes()
        for lr, steps in ((0.05, np.int64(3)), (np.float64(0.05), 3),
                          (Fraction(1, 20), np.uint8(3))):
            traj = simulate_entropy_descent([0.6, 0.4], lr, steps)
            assert traj.tobytes() == expected


@st.composite
def start_stacks(draw):
    """(R, K) starts mixing Dirichlet rows and near-one-hot rows."""
    r, k = draw(st.integers(1, 8)), draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(r):
        if draw(st.booleans()):
            alpha = draw(st.sampled_from([0.05, 1.0, 20.0]))
            rows.append(rng.dirichlet(np.full(k, alpha)))
        else:
            eps = draw(st.sampled_from([0.0, 1e-300, 1e-15, 1e-12, 1e-6]))
            row = np.full(k, eps)
            row[rng.integers(k)] = 1.0 - (k - 1) * eps
            rows.append(row)
    return np.array(rows)


class TestStackedDescent:
    @settings(max_examples=150)
    @given(p0=start_stacks(), steps=st.integers(0, 40),
           lr=st.floats(1e-3, 1.0))
    def test_rows_match_single_and_sequential_bitwise(self, p0, steps, lr):
        traj = simulate_entropy_descent(p0, lr, steps)
        assert traj.shape == (steps + 1,) + p0.shape
        assert traj.tobytes() == entropy_descent(p0, lr, steps).tobytes()
        for r, start in enumerate(p0):
            row = traj[:, r].tobytes()
            assert row == simulate_entropy_descent(start, lr, steps).tobytes()
            assert row == entropy_descent(start, lr, steps).tobytes()

    @pytest.mark.parametrize("bad", [[0.5, 0.6, -0.1], [0.2, 0.2, 0.2],
                                     [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]])
    def test_bad_row_raises_as_alone(self, bad):
        with pytest.raises(InvalidInput) as alone:
            simulate_entropy_descent(bad, lr=0.1, steps=3)
        for position in range(3):
            stack = [[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]]
            stack.insert(position, bad)
            with pytest.raises(InvalidInput) as stacked:
                simulate_entropy_descent(stack, lr=0.1, steps=3)
            assert str(stacked.value) == str(alone.value)
        with pytest.raises(InvalidInput) as mapped:
            simulate_entropy_descent({2: [0.5, 0.5], 3: bad}, lr=0.1, steps=3)
        assert str(mapped.value) == str(alone.value)

    def test_scalar_and_higher_rank_rejected(self):
        # and a stack of no classes, alone or in a mapping
        for p0, shape in ((1.0, ()), (np.full((2, 2, 2), 0.5), (2, 2, 2)),
                          (np.empty((0, 0)), (0, 0)),
                          ({1: np.empty((0, 0))}, (0, 0))):
            with pytest.raises(InvalidInput, match="^" + re.escape(
                    "p0 must be a (K,) or (R, K) array with K >= 1, got"
                    f" shape {shape}") + "$"):
                simulate_entropy_descent(p0, lr=0.1, steps=3)


# around numpy's 8-wide pairwise unroll and its 128-entry block
LOCK_STEP_KS = [1, 2, 3, 7, 8, 9, 16, 17, 100, 128, 129, 200]


@st.composite
def start_mappings(draw):
    """{key: start} of 1-6 starts, each a (K,) vector or an (R, K) stack
    with R in 0-5, of Dirichlet and near-one-hot rows, each of its own K."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = {}
    for key in range(draw(st.integers(1, 6))):
        k = draw(st.sampled_from(LOCK_STEP_KS))
        vector = draw(st.booleans())
        rows = []
        for _ in range(1 if vector else draw(st.integers(0, 5))):
            if draw(st.booleans()):
                alpha = draw(st.sampled_from([0.05, 1.0, 20.0]))
                rows.append(rng.dirichlet(np.full(k, alpha)))
            else:
                eps = draw(st.sampled_from([0.0, 1e-15, 1e-6]))
                row = np.full(k, eps)
                row[rng.integers(k)] = 1.0 - (k - 1) * eps
                rows.append(row)
        starts[key] = rows[0] if vector else np.array(rows).reshape(-1, k)
    return starts


class TestLockStepDescent:
    @settings(max_examples=150, deadline=None)
    @given(starts=start_mappings(), steps=st.integers(0, 40),
           lr=st.floats(1e-3, 1.0))
    def test_each_trajectory_matches_its_own_call_bitwise(self, starts, steps,
                                                          lr):
        trajs = simulate_entropy_descent(starts, lr, steps)
        assert list(trajs) == list(starts)
        for key, p0 in starts.items():
            traj = trajs[key]
            assert traj.shape == (steps + 1,) + p0.shape
            assert traj.tobytes() == simulate_entropy_descent(
                p0, lr, steps).tobytes()
            assert traj.tobytes() == entropy_descent(p0, lr, steps).tobytes()

    def test_trajectories_are_views_of_one_array(self):
        trajs = simulate_entropy_descent(
            {"a": [0.6, 0.4], "b": [[0.2, 0.3, 0.5]] * 2}, lr=0.05, steps=3)
        assert trajs["a"].base is trajs["b"].base
        assert trajs["a"].base.shape == (4, 2 + 2 * 3)
        assert simulate_entropy_descent({}, lr=0.05, steps=3) == {}


class TestInPlaceDescent:
    @pytest.mark.parametrize("start", [[0.6, 0.3, 0.1],
                                       [[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]]])
    def test_overflow_raises_the_checked_message(self, monkeypatch, start):
        """A step that overflows is the descent's own divergence, named by
        its step; the one-step-at-a-time oracle, whose softmax check sees
        the overflowed logits, fails after as many gradients."""
        grad = numeric._entropy_grad
        calls = []

        def overflowing(p, **rows):
            calls.append(None)
            return grad(p, **rows) if len(calls) < 3 else np.full_like(p, 1e300)

        before = np.geterr()
        simulate_entropy_descent(start, lr=1e10, steps=2)
        assert np.geterr() == before
        monkeypatch.setattr(numeric, "_entropy_grad", overflowing)
        with pytest.raises(TrainingDiverged, match="^" + re.escape(
                "entropy descent diverged at step 3: overflow encountered in"
                " multiply") + "$"):
            simulate_entropy_descent(start, lr=1e10, steps=5)
        assert np.geterr() == before
        assert len(calls) == 3
        calls.clear()
        with np.errstate(over="ignore"), pytest.raises(
                InvalidInput, match="^logits contains non-finite values$"):
            entropy_descent(start, lr=1e10, steps=5)
        assert len(calls) == 3

    def test_an_lr_whose_first_step_overflows_diverges(self):
        """An lr that ``_real`` accepts, finite and positive, whose first
        step the descent overflows: the program's fault, not the caller's."""
        p = np.full(100, 0.5 / 99)
        p[0] = 0.5
        with pytest.raises(TrainingDiverged, match="^" + re.escape(
                "entropy descent diverged at step 1: overflow encountered in"
                " multiply") + "$"):
            simulate_entropy_descent(p, 1.7e308, 3)

    def test_underflow_stays_silent(self):
        start = [0.6, 0.4]  # lr 1e4 drives the small class's exp below 1e-308
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            entropy_descent(start, lr=1e4, steps=5)
        with np.errstate(under="ignore"):
            expected = entropy_descent(start, lr=1e4, steps=5)
        for caller in ("ignore", "raise"):
            with np.errstate(under=caller):
                traj = simulate_entropy_descent(start, lr=1e4, steps=5)
            assert traj.tobytes() == expected.tobytes()


def csv_text(trajectory):
    """What trajectory_csv writes, as one string."""
    buf = io.StringIO()
    trajectory_csv(trajectory, buf)
    return buf.getvalue()


NAN = float("nan")
# signed zeros and NaNs, infinities and subnormals, each as float64 and
# as the closest value float32 holds without overflow
EDGE_VALUES = {
    np.float64: [0.0, -0.0, NAN, -NAN, np.inf, -np.inf, 5e-324,
                 2.2250738585072014e-308 / 3, 1.0 - 2**-53, 1e300],
    np.float32: [0.0, -0.0, NAN, -NAN, np.inf, -np.inf, 1e-45, 1e-39,
                 1.0 - 2**-24, 3e38],
}


@st.composite
def tied_trajectories(draw):
    """A (rows, K) array, 0 rows and 0 columns included, whose cells come
    from a pool of at most six values, so most cells tie; a float pool may
    hold both zeros. It is float64, float32, int, or a non-contiguous
    traj[:, r] column of a float64 stack."""
    rows, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["float64", "float32", "int", "column"]))
    if kind == "int":
        values = st.integers(-2**63, 2**63 - 1)
        dtype = np.int64
    else:
        dtype = np.float32 if kind == "float32" else np.float64
        values = st.sampled_from(EDGE_VALUES[dtype]) | st.floats(
            width=32 if dtype is np.float32 else 64)
    pool = draw(st.lists(values, min_size=1, max_size=4))
    if kind != "int" and draw(st.booleans()):
        pool += [0.0, -0.0]
    picks = draw(st.lists(st.sampled_from(pool), min_size=rows * k,
                          max_size=rows * k))
    traj = np.array(picks, dtype=dtype).reshape(rows, k)
    if kind == "column":
        r = draw(st.integers(0, 2))
        stack = np.full((rows, 3, k), 0.5)
        stack[:, r] = traj
        traj = stack[:, r]
    return traj


@st.composite
def tied_columns(draw):
    """A (rows, K) float64 array, K in 0-130 and 0-6 rows, laid out from a
    few base columns by a column map of runs and interleavings (a b a b b).
    Cells come from the float64 edge values or any float; the bases may add
    a 0.0 column beside a -0.0 one, and with K >= 2 the map holds a base and
    its near twin, the base changed in one row. It is C-ordered,
    Fortran-ordered or a traj[:, r] of a stack."""
    rows, k = draw(st.integers(0, 6)), draw(st.integers(0, 130))
    values = st.sampled_from(EDGE_VALUES[np.float64]) | st.floats()
    bases = draw(st.lists(st.lists(values, min_size=rows, max_size=rows),
                          min_size=1, max_size=4))
    if draw(st.booleans()):
        bases += [[0.0] * rows, [-0.0] * rows]
    colmap = []
    while len(colmap) < k:
        run = draw(st.integers(1, 3) | st.integers(1, k))
        colmap += [draw(st.integers(0, len(bases) - 1))] * run
    colmap = colmap[:k]
    if rows and k >= 2:
        base = draw(st.integers(0, len(bases) - 1))
        twin = list(bases[base])
        i = draw(st.integers(0, rows - 1))
        twin[i] = draw(values.filter(lambda v: bits(v) != bits(twin[i])))
        bases.append(twin)
        at = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                           unique=True))
        colmap[at[0]], colmap[at[1]] = base, len(bases) - 1
    traj = np.array([bases[b] for b in colmap],
                    dtype=np.float64).reshape(k, rows).T
    layout = draw(st.sampled_from(["C", "F", "column"]))
    if layout == "C":
        traj = np.ascontiguousarray(traj)
    elif layout == "column":
        stack = np.full((rows, 2, k), 0.5)
        stack[:, 1] = traj
        traj = stack[:, 1]
    return traj


class TestTrajectoryCsv:
    def test_bytes_match_per_scalar_formatter(self):
        edge = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.0 - 2**-53,
                EPS_PROB, 1.0 - EPS_PROB, 0.1, 1.0 / 3.0, 1e300]
        for traj in (np.array(edge).reshape(2, 5),
                     simulate_entropy_descent(np.full(100, 0.01) + np.linspace(
                         -0.005, 0.005, 100), lr=0.05, steps=30)):
            assert csv_text(traj).encode() == per_scalar_csv(traj).encode()

    @settings(max_examples=300)
    @given(traj=tied_trajectories())
    def test_bytes_match_per_scalar_formatter_on_ties(self, traj):
        assert csv_text(traj).encode() == per_scalar_csv(traj).encode()

    @settings(max_examples=300)
    @given(traj=tied_columns())
    def test_bytes_match_per_scalar_formatter_on_tied_columns(self, traj):
        assert csv_text(traj).encode() == per_scalar_csv(traj).encode()

    @settings(max_examples=100)
    @given(traj=tied_columns())
    def test_colliding_column_hashes_still_match(self, traj):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric, "hash", lambda _: 0, raising=False)
            text = csv_text(traj)
        assert text.encode() == per_scalar_csv(traj).encode()

    def test_traced_peak_is_one_row_not_the_output(self, tmp_path):
        """Written to a file, a tie-free (1001, 100) descent, 2.2 MB of CSV,
        traces a peak of ~32 KB: one row's text, its column groups and the
        file's buffer, whatever the number of rows."""
        traj = simulate_entropy_descent(
            np.random.default_rng(0).dirichlet(np.ones(100)), lr=0.05,
            steps=1000)
        assert len({col.tobytes() for col in traj.T}) == 100
        path = tmp_path / "trajectory.csv"
        with open(path, "w", encoding="utf-8") as fh:
            _, peak = traced_peak(lambda: trajectory_csv(traj, fh))
        assert path.read_bytes() == per_scalar_csv(traj).encode()
        assert peak < 64 * 2**10

    def test_header_and_roundtrip(self):
        traj = simulate_entropy_descent([0.6, 0.3, 0.1], lr=0.05, steps=4)
        text = csv_text(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "step,p_1,p_2,p_3"
        assert len(lines) == 6
        parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        np.testing.assert_array_equal(parsed[:, 1:], traj)
        np.testing.assert_array_equal(parsed[:, 0], np.arange(5))

    def test_stack_rejected_naming_its_shape(self):
        traj = simulate_entropy_descent([[0.6, 0.4], [0.3, 0.7]], lr=0.05,
                                        steps=4)
        buf = io.StringIO()
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "trajectory must be a (steps+1, K) array, got shape"
                " (5, 2, 2)") + "$"):
            trajectory_csv(traj, buf)
        assert buf.getvalue() == ""
        assert csv_text(traj[:, 1]) == csv_text(
            simulate_entropy_descent([0.3, 0.7], lr=0.05, steps=4))

    def test_vector_rejected_with_its_shape(self):
        buf = io.StringIO()
        with pytest.raises(InvalidInput, match="^" + re.escape(
                "trajectory must be a (steps+1, K) array, got shape (3,)")
                + "$"):
            trajectory_csv([0.6, 0.3, 0.1], buf)
        assert buf.getvalue() == ""
