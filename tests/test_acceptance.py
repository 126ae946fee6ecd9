"""End-to-end acceptance suite.

Each test covers one numbered exit criterion at its stated tolerance and
prints a single pass/fail line (run with -s to see them). Directional
benchmark criteria use the deterministic seed set 0..4 on the shared
held-out stream.
"""

import time
from contextlib import contextmanager

import numpy as np

from ttalab.adaptation import (SGD, AdaptationConfig, Adapter, Window,
                               accumulate_and_maybe_step, tent_loss, ttc_loss)
from ttalab.benchmark import (CORRUPTION_KINDS, Corruption, StreamProtocol,
                              adapt_streams, apply_corruption)
from ttalab.clustering import (FULL_BATCH, assign_step, kmeans_objective,
                               update_step)
from ttalab.cli import main
from ttalab.network import (BNMode, backward_bn_affine, forward, make_network,
                            save_checkpoint)
from ttalab.numeric import entropy, simulate_entropy_descent, softmax

from oracles import brute_force_assign, finite_diff_check, sample_weights

SEEDS = range(5)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except Exception:
        print(f"\nFAIL criterion {number}: {summary}")
        raise
    print(f"\nPASS criterion {number}: {summary}")


def test_criterion_01_lemma_one_step():
    with criterion(1, "one entropy-descent step never shrinks the top class"
                      " (1000 random vectors, K in 2..100)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        strict_checked = 0
        for _ in range(1000):
            k = int(rng.integers(2, 101))
            p0 = rng.dirichlet(np.ones(k))
            traj = simulate_entropy_descent(p0, lr=0.01, steps=1)
            m = int(np.argmax(p0))
            assert traj[1, m] >= traj[0, m]
            top_pair = np.sort(p0)[-2:]
            if top_pair[1] - top_pair[0] > 1e-6:
                assert traj[1, m] > traj[0, m]
                strict_checked += 1
        elapsed = time.perf_counter() - start
        assert strict_checked > 900
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_02_gradient_oracles():
    with criterion(2, "analytic gradients match central finite differences"
                      " (rel err < 1e-4, 100 instances each)"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)

        # the entropy of a softmax w.r.t. its logits is pinned in
        # test_numeric.py::TestEntropyGradLogits

        # softmax jacobian rows: d p_i / d z_j = p_i (delta_ij - p_j)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            z = rng.normal(scale=2.0, size=k)
            p = softmax(z)
            for i in range(k):
                analytic = p[i] * (np.eye(k)[i] - p)
                err = finite_diff_check(lambda v, i=i: softmax(v)[i], z,
                                        analytic)
                assert err < 1e-4

        # BN affine parameters through the full network
        for instance in range(100):
            net = make_network(input_dim=6, hidden=5, k=3, seed=instance)
            x = rng.normal(size=(8, 6))
            logits, cache = forward(net, x, BNMode.TEST_BATCH_STATS)
            _, gl = tent_loss(logits)
            grads = backward_bn_affine(net, cache, gl)

            # one entry of each 5-wide gamma and beta
            entries = np.arange(instance % 5, net.affine.size, 5)

            def loss_at(values):
                affine = net.affine.copy()
                affine[entries] = values
                lg, _ = forward(net, x, BNMode.TEST_BATCH_STATS, affine)
                return tent_loss(lg)[0]

            assert finite_diff_check(loss_at, net.affine[entries],
                                     grads[entries]) < 1e-4

        # weighted entropy loss w.r.t. logits, weights frozen
        for _ in range(100):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            z = rng.normal(scale=2.0, size=(n, k))
            tau = float(rng.uniform(0.1, 2.0))
            w0 = sample_weights(entropy(softmax(z)), tau, n)
            _, grad = ttc_loss(z, tau=tau, n=n)
            err = finite_diff_check(
                lambda flat: float(np.sum(w0 * entropy(softmax(flat.reshape(n, k))))),
                z.ravel(), grad.ravel())
            assert err < 1e-4

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_degeneration(source_net, test_dataset):
    with criterion(3, "ttc with neutral components tracks tent within 1e-12"
                      " over 50 batches"):
        corrupted = apply_corruption(test_dataset.inputs,
                                     Corruption("gaussian_noise", 5), seed=0)
        batches = [corrupted[i * 20:(i + 1) * 20] for i in range(50)]
        variants = {
            "no-aug": dict(strategy="ttc", rla_enabled=False, tau=0.0,
                           accumulation_q=1),
            "flags-off": dict(strategy="ttc", rla_enabled=False,
                              wa_enabled=False, ga_enabled=False),
        }
        for label, kwargs in variants.items():
            tent = Adapter(source_net, [AdaptationConfig(strategy="tent")], 20)
            ttc = Adapter(source_net, [AdaptationConfig(**kwargs)], 20)
            for x in batches:
                p_a, _ = tent.adapt_batch(x[None])
                p_b, _ = ttc.adapt_batch(x[None])
                np.testing.assert_array_equal(p_a, p_b, err_msg=label)
                np.testing.assert_allclose(ttc.affine, tent.affine,
                                           atol=1e-12, err_msg=label)


def test_criterion_04_accumulation_union_batch():
    with criterion(4, "Q=4 accumulation equals the union-batch step within"
                      " 1e-8 (frozen statistics, plain SGD, 20 instances)"):
        for instance in range(20):
            rng = np.random.default_rng(instance)
            q, n = 4, 8
            net_acc = make_network(input_dim=6, hidden=5, k=3, seed=instance)
            net_union = make_network(input_dim=6, hidden=5, k=3, seed=instance)
            batches = [rng.normal(size=(n, 6)) for _ in range(q)]
            window = Window(net_acc.affine[None], q, SGD(lr=0.2))
            for b in batches:
                logits, cache = forward(net_acc, b, BNMode.EVAL_STATS)
                _, gl = tent_loss(logits)
                accumulate_and_maybe_step(
                    window, backward_bn_affine(net_acc, cache, gl / q)[None])
            union = np.vstack(batches)
            logits, cache = forward(net_union, union, BNMode.EVAL_STATS)
            _, gl = tent_loss(logits)
            SGD(lr=0.2).step(net_union.affine,
                             backward_bn_affine(net_union, cache, gl))
            np.testing.assert_allclose(net_acc.affine, net_union.affine,
                                       atol=1e-8)


def test_criterion_05_kmeans():
    with criterion(5, "nearest-center assignment matches brute force and"
                      " full-batch alternation never increases the objective"):
        rng = np.random.default_rng(11)
        for _ in range(10):
            features = rng.normal(size=(200, 5))
            centers = rng.normal(size=(10, 5))
            assert (assign_step(features, centers).tolist()
                    == brute_force_assign(features, centers).tolist())
        for _ in range(100):
            n = int(rng.integers(10, 60))
            features = rng.normal(size=(n, 3))
            centers = rng.normal(size=(4, 3))
            for _ in range(6):
                labels = assign_step(features, centers)
                before = kmeans_objective(features, labels, centers)
                centers = update_step(features, labels, centers,
                                      mode=FULL_BATCH)
                after = kmeans_objective(features, labels, centers)
                assert after <= before + 1e-10


def test_criterion_06_lemma_trajectories_via_cli(tmp_path):
    with criterion(6, "entropy-descent trajectories are monotone and top out"
                      " above 0.999 for K in {2, 10, 100}"):
        out = tmp_path / "lemma"
        code = main(["lemma-check", "--out", str(out),
                     "--k-list", "2", "10", "100",
                     "--steps", "5000", "--lr", "0.05",
                     "--random-starts", "200", "--random-steps", "30"])
        assert code == 0
        for k in (2, 10, 100):
            rows = np.loadtxt((out / f"lemma_k{k}.csv").read_text().splitlines(),
                              delimiter=",", skiprows=1)
            top = rows[:, 1]
            assert np.all(np.diff(top) >= 0)
            assert top[-1] >= 0.999


def test_criterion_07_desk_benchmark(source_net, test_dataset):
    with criterion(7, "norm >= source on the noise corruptions and"
                      " ttc >= tent on the cross-corruption mean"
                      " (severity 5, 5 seeds)"):
        start = time.perf_counter()
        strategies = ("source", "norm", "tent", "ttc")
        cells = [(strategy, kind) for strategy in strategies
                 for kind in CORRUPTION_KINDS]
        results = iter(adapt_streams(
            source_net, test_dataset.inputs, test_dataset.labels, [
                (Corruption(kind, 5), StreamProtocol(batch_size=100, seed=s),
                 AdaptationConfig(strategy=strategy))
                for strategy, kind in cells for s in SEEDS]))
        means = {strategy: {} for strategy in strategies}
        for strategy, kind in cells:
            means[strategy][kind] = np.mean([next(results)[0]
                                             for _ in SEEDS])
        for kind in ("gaussian_noise", "impulse_noise"):
            assert means["norm"][kind] >= means["source"][kind], (
                f"{kind}: norm {means['norm'][kind]:.4f}"
                f" < source {means['source'][kind]:.4f}")
        ttc_mean = np.mean(list(means["ttc"].values()))
        tent_mean = np.mean(list(means["tent"].values()))
        assert ttc_mean >= tent_mean, f"{ttc_mean:.4f} < {tent_mean:.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"grid took {elapsed:.0f}s"


def test_criterion_08_batch_size_sweep(source_net, test_dataset):
    with criterion(8, "tent improves with batch size and accumulation lifts"
                      " tent at N=10 (5 seeds)"):
        corruption = Corruption("gaussian_noise", 5)
        tent = AdaptationConfig(strategy="tent")
        tent_ga = AdaptationConfig(strategy="ttc", rla_enabled=False,
                                   wa_enabled=False, ga_enabled=True)

        sizes = (2, 10, 50, 100)
        cells = [(tent, n) for n in sizes] + [(tent_ga, 10)]
        results = iter(adapt_streams(
            source_net, test_dataset.inputs, test_dataset.labels, [
                (corruption, StreamProtocol(batch_size=n, seed=s), config)
                for config, n in cells for s in SEEDS]))
        means = [np.mean([next(results)[0] for _ in SEEDS])
                 for _ in cells]
        tent_curve = means[:len(sizes)]
        for smaller, larger in zip(tent_curve[:-1], tent_curve[1:]):
            assert larger >= smaller - 0.01, f"tent curve: {tent_curve}"
        margin = means[-1] - tent_curve[1]
        assert margin > 0.0, f"accumulation margin at N=10: {margin:+.4f}"


def test_criterion_09_tau_sweep(source_net, test_dataset):
    with criterion(9, "tau sweep runs clean at every value, no NaN/Inf"):
        recorded = {}
        taus = (0.05, 0.1, 0.5, 1.0, 5.0, 10.0)
        results = adapt_streams(
            source_net, test_dataset.inputs, test_dataset.labels, [
                (Corruption("gaussian_noise", 5),
                 StreamProtocol(batch_size=100, seed=0),
                 AdaptationConfig(strategy="ttc", tau=tau)) for tau in taus])
        for tau, (accuracy, per_batch, _) in zip(taus, results):
            assert np.isfinite(accuracy)
            assert np.all(np.isfinite(per_batch))
            recorded[tau] = accuracy
        assert len(recorded) == 6
        print("  tau ->", {t: round(a, 4) for t, a in recorded.items()},
              end=" ")


def test_criterion_10_determinism(source_net, tmp_path):
    with criterion(10, "identical flags and seed reproduce byte-identical"
                       " reports"):
        ckpt = tmp_path / "source.json"
        save_checkpoint(source_net, ckpt)
        outputs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            code = main(["adapt", "--checkpoint", str(ckpt),
                         "--out", str(out), "--strategy", "ttc",
                         "--corruption", "impulse_noise", "--severity", "4",
                         "--seed", "9", "--test-m", "600",
                         "--batch-size", "50"])
            assert code == 0
            stem = "report_ttc_impulse_noise4_seed9"
            outputs.append(((out / f"{stem}.json").read_bytes(),
                            (out / f"{stem}_batches.csv").read_bytes()))
        assert outputs[0] == outputs[1]
