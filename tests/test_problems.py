"""Loss oracles, data plumbing, and convexity witnesses."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sweep import spied

from beliefopt import problems
from beliefopt.optim import HyperParams, box_region
from beliefopt.regret import run_online
from beliefopt.problems import (
    Dataset,
    QuadraticProblem,
    SoftmaxL2Problem,
    finite_diff_grad,
    load_csv,
    pack_params,
    quadratic_grad,
    quadratic_loss,
    sample_batch,
    softmax_l2_grad,
    softmax_l2_loss,
    synth_classification,
    unpack_params,
)


def slow_softmax_loss_grad(w, b, X, y, s1, s2):
    """Scalar-loop reference implementation, no vectorization."""
    K, d, n = len(w), len(w[0]), len(X)
    loss = 0.0
    gw = [[0.0] * d for _ in range(K)]
    gb = [0.0] * K
    for i in range(n):
        logits = []
        for k in range(K):
            z = b[k]
            for j in range(d):
                z += w[k][j] * X[i][j]
            logits.append(z)
        mx = max(logits)
        denom = sum(math.exp(z - mx) for z in logits)
        logp = [z - mx - math.log(denom) for z in logits]
        loss += -logp[y[i]] / n
        for k in range(K):
            p = (math.exp(logp[k]) - (1.0 if k == y[i] else 0.0)) / n
            for j in range(d):
                gw[k][j] += p * X[i][j]
            gb[k] += p
    for k in range(K):
        loss += s1 * sum(v * v for v in w[k]) + s2 * b[k] * b[k]
        for j in range(d):
            gw[k][j] += 2.0 * s1 * w[k][j]
        gb[k] += 2.0 * s2 * b[k]
    return loss, np.array(gw), np.array(gb)


TINY_W = [[0.5, -0.25], [0.125, 1.0], [-0.75, 0.0625]]
TINY_B = [0.1, -0.2, 0.3]
TINY_X = [[1.0, 2.0], [-0.5, 0.25], [0.0, -1.0], [2.0, 0.5]]
TINY_Y = [0, 2, 1, 0]


class TestSoftmaxLoss:
    def tiny(self):
        ds = Dataset(features=np.array(TINY_X), labels=np.array(TINY_Y), n_classes=3)
        params = pack_params(np.array(TINY_W), np.array(TINY_B))
        return ds, params

    def test_matches_scalar_loop(self):
        ds, params = self.tiny()
        idx = np.arange(4)
        loss = softmax_l2_loss(params, ds, idx, 0.01, 0.02)
        grad = softmax_l2_grad(params, ds, idx, 0.01, 0.02)
        slow_loss, gw, gb = slow_softmax_loss_grad(TINY_W, TINY_B, TINY_X, TINY_Y, 0.01, 0.02)
        assert loss == pytest.approx(slow_loss, rel=1e-14)
        np.testing.assert_allclose(grad, pack_params(gw, gb), rtol=1e-13)

    def test_frozen_tiny_value(self):
        ds, params = self.tiny()
        loss = softmax_l2_loss(params, ds, np.arange(4), 0.01, 0.02)
        assert loss == pytest.approx(1.414153596487129, rel=1e-14)

    def test_zero_params_give_log_k(self):
        # Uniform predictions: the data term is exactly log K, penalties vanish.
        ds = synth_classification(seed=1, n_classes=5, n_features=6, n_samples=40)
        params = np.zeros(5 * 7)
        loss = softmax_l2_loss(params, ds, np.arange(40), 0.3, 0.7)
        assert loss == pytest.approx(math.log(5), rel=1e-14)

    def test_binary_closed_form(self):
        # K=2 collapses to logistic loss log(1 + exp(-(z0 - z1))).
        ds = Dataset(features=np.array([[2.0]]), labels=np.array([0]), n_classes=2)
        params = pack_params(np.array([[0.3], [-0.1]]), np.array([0.2, -0.4]))
        loss = softmax_l2_loss(params, ds, np.array([0]), 0.0, 0.0)
        assert loss == pytest.approx(0.22041740991845088, rel=1e-14)

    def test_weighted_matches_repeated_rows(self):
        ds, params = self.tiny()
        idx = np.array([0, 1, 1, 3])
        plain = softmax_l2_loss(params, ds, idx, 0.01, 0.02)
        weights = np.array([0.25, 0.5, 0.0, 0.25])
        weighted = softmax_l2_loss(params, ds, np.arange(4), 0.01, 0.02, weights=weights)
        assert weighted == pytest.approx(plain, rel=1e-14)
        g_plain = softmax_l2_grad(params, ds, idx, 0.01, 0.02)
        g_weighted = softmax_l2_grad(params, ds, np.arange(4), 0.01, 0.02, weights=weights)
        np.testing.assert_allclose(g_weighted, g_plain, rtol=1e-13)

    def test_gradient_finite_difference(self):
        ds = synth_classification(seed=4, n_classes=4, n_features=5, n_samples=30)
        idx = np.arange(30)
        rng = np.random.default_rng(11)
        for _ in range(10):
            params = rng.standard_normal(4 * 6) * 0.5
            g = softmax_l2_grad(params, ds, idx, 0.01, 0.01)
            fd = finite_diff_grad(
                lambda p: softmax_l2_loss(p, ds, idx, 0.01, 0.01), params)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(g - fd) / denom < 1e-6

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_log_softmax_matches_the_row_max_form(self, k):
        # Logits this far apart overflow exp unless each row is shifted by
        # its own maximum, wherever that sits.
        logits = np.random.default_rng(k).standard_normal((4, 7, k)) * 300.0
        shifted = logits - logits.max(axis=-1, keepdims=True)
        want = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(problems._log_softmax(logits), want)

    def test_large_logits_stable(self):
        ds = Dataset(features=np.array([[1000.0, -1000.0]]), labels=np.array([0]),
                     n_classes=2)
        params = pack_params(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        loss = softmax_l2_loss(params, ds, np.array([0]), 0.0, 0.0)
        assert math.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-12)


class TestPackUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        w2, b2 = unpack_params(pack_params(w, b), 3, 4)
        np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(b, b2)

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="packed parameters"):
            unpack_params(np.zeros(7), 3, 4)


class TestQuadratic:
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    B = np.array([-1.0, 0.5])

    def test_hand_values(self):
        x = np.array([1.0, -2.0])
        assert quadratic_loss(x, self.A, self.B) == 3.0
        np.testing.assert_array_equal(quadratic_grad(x, self.A, self.B),
                                      np.array([-1.0, -4.5]))

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(2) * 3.0
            g = quadratic_grad(x, self.A, self.B)
            fd = finite_diff_grad(lambda z: quadratic_loss(z, self.A, self.B), x)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(g - fd) / denom < 1e-6

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(a=[[1.0, 0.5], [0.0, 1.0]], b=[0.0, 0.0])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="strongly convex"):
            QuadraticProblem(a=[[1.0, 0.0], [0.0, -1.0]], b=[0.0, 0.0])

    def test_rejects_overstated_sigma(self):
        with pytest.raises(ValueError, match="smallest eigenvalue"):
            QuadraticProblem(a=self.A, b=self.B, sigma=2.0)

    def test_sigma_defaults_to_eigmin(self):
        prob = QuadraticProblem(a=self.A, b=self.B)
        assert prob.sigma == pytest.approx(1.381966011250105, rel=1e-14)

    def test_initial_point_jitter(self):
        prob = QuadraticProblem(a=self.A, b=self.B, x0=[0.5, -0.5], x0_jitter=1e-3)
        region = box_region(-5.0, 5.0, 2)
        x_a = prob.initial_point(region, seed=0)
        x_b = prob.initial_point(region, seed=0)
        x_c = prob.initial_point(region, seed=1)
        np.testing.assert_array_equal(x_a, x_b)
        np.testing.assert_allclose(np.abs(x_a - [0.5, -0.5]), 1e-3)
        assert not np.array_equal(x_a, x_c) or True  # seeds may collide on 2 dims
        # Projection clips the jittered start into the box.
        tight = box_region(-0.5, 0.5, 2)
        assert np.all(np.abs(prob.initial_point(tight, seed=0)) <= 0.5)

    def test_lipschitz_estimate_is_top_eigenvalue(self):
        prob = QuadraticProblem(a=self.A, b=self.B)
        _, _, l_est = prob.prefix_objective(upto=10, seed=0)
        assert l_est == pytest.approx(float(np.linalg.eigvalsh(self.A)[-1]), rel=1e-10)

    def test_rounds_are_identical(self):
        prob = QuadraticProblem(a=self.A, b=self.B)
        x = np.array([0.3, 0.7])
        l1, g1 = prob.round_loss_grad(x, t=1, seed=0)
        l9, g9 = prob.round_loss_grad(x, t=9, seed=4)
        assert l1 == l9 == prob.full_loss(x)
        np.testing.assert_array_equal(g1, g9)

    def test_stacked_calls_match_one_iterate_at_a_time(self):
        a = np.random.default_rng(2).standard_normal((7, 7))
        prob = QuadraticProblem(a=a @ a.T + np.eye(7), b=np.arange(7.0) - 3.0)
        xs = np.random.default_rng(3).standard_normal((3, 20, 7)) * 4.0
        losses = prob.lanes_losses(xs, 5, 0)
        assert losses.shape == (3, 20)
        for lane, window in zip(losses, xs):
            for f, x in zip(lane, window):
                assert f == quadratic_loss(x, prob.a, prob.b)
        for x_t in xs.transpose(1, 0, 2):
            grads = prob.lanes_grad(x_t, 1, 0, np.empty_like(x_t))
            for g, x in zip(grads, x_t):
                np.testing.assert_array_equal(g, quadratic_grad(x, prob.a, prob.b))


class TestStrongConvexity:
    """f(y) >= f(x) + g(x)'(y-x) + sigma/2 ||y-x||^2 on random pairs."""

    def check(self, f, grad, sigma, dim, n_pairs, scale, seed):
        rng = np.random.default_rng(seed)
        for _ in range(n_pairs):
            x = rng.standard_normal(dim) * scale
            y = rng.standard_normal(dim) * scale
            lhs = f(y)
            rhs = f(x) + grad(x) @ (y - x) + 0.5 * sigma * np.sum((y - x) ** 2)
            assert lhs >= rhs - 1e-9

    def test_quadratic_witness(self):
        prob = QuadraticProblem(a=TestQuadratic.A, b=TestQuadratic.B)
        self.check(prob.full_loss,
                   lambda x: quadratic_grad(x, prob.a, prob.b),
                   prob.sigma, dim=2, n_pairs=200, scale=3.0, seed=7)

    def test_softmax_witness(self):
        ds = synth_classification(seed=2, n_classes=3, n_features=4, n_samples=50)
        prob = SoftmaxL2Problem(ds, batch_size=8, sigma1=0.01, sigma2=0.01)
        idx = np.arange(ds.n_samples)
        self.check(lambda p: softmax_l2_loss(p, ds, idx, 0.01, 0.01),
                   lambda p: softmax_l2_grad(p, ds, idx, 0.01, 0.01),
                   prob.sigma, dim=prob.dim, n_pairs=200, scale=1.0, seed=8)

    def test_modulus_is_twice_min_penalty(self):
        ds = synth_classification(seed=2, n_classes=3, n_features=4, n_samples=20)
        prob = SoftmaxL2Problem(ds, sigma1=0.05, sigma2=0.3)
        assert prob.sigma == 0.1


class TestSynthClassification:
    def test_deterministic(self):
        a = synth_classification(seed=3)
        b = synth_classification(seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = synth_classification(seed=4)
        assert not np.array_equal(a.features, c.features)

    def test_mean_separation(self):
        ds = synth_classification(seed=0, n_classes=4, n_features=6,
                                  n_samples=4000, separation=2.5)
        means = np.array([ds.features[ds.labels == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(means[i] - means[j])
                # Sample means wander by ~ sqrt(d/n_k) around the true centers.
                assert d == pytest.approx(2.5, abs=0.2)

    def test_round_robin_labels(self):
        ds = synth_classification(seed=0, n_classes=3, n_features=4, n_samples=10)
        np.testing.assert_array_equal(ds.labels, np.arange(10) % 3)

    def test_rejects_narrow_feature_space(self):
        with pytest.raises(ValueError, match="need at least 10 features"):
            synth_classification(seed=0, n_classes=10, n_features=5)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="one sample per class"):
            synth_classification(seed=0, n_classes=10, n_samples=5)


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return str(p)

    def test_header_skipped_and_labels_reindexed(self, tmp_path):
        path = self.write(tmp_path, "label,f1,f2\ncat,1.0,2.0\ndog,3.0,4.0\ncat,5.0,6.0\n")
        ds = load_csv(path)
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_string_label_first_line_is_data(self, tmp_path):
        # Only the feature fields decide headerness; a string label does not.
        path = self.write(tmp_path, "cat,1.0,2.0\ndog,3.0,4.0\n")
        ds = load_csv(path)
        assert ds.n_samples == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_numeric_labels_kept_as_data(self, tmp_path):
        path = self.write(tmp_path, "1,0.5\n0,1.5\n")
        ds = load_csv(path)
        assert ds.n_samples == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])  # first appearance order

    def test_ragged_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "a,1.0,2.0\nb,3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = self.write(tmp_path, "a,1.0\nb,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "label,f1\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_a_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1,2\n1,3,4\n0,5,6\n1,7,8\n", encoding="utf-8-sig")
        ds = load_csv(str(path))
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    def test_the_header_is_the_first_non_blank_line(self, tmp_path):
        path = self.write(tmp_path, "\n\nlabel,f1,f2\ncat,1.0,2.0\ndog,3.0,4.0\n")
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4]])
        # Only that line: a later non-numeric row is an error, not a header.
        path = self.write(tmp_path, "\nlabel,f1\nname,f1\ncat,1.0\n")
        with pytest.raises(ValueError, match="line 3: non-numeric feature"):
            load_csv(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = self.write(tmp_path, "a,1.0\n\nb,2.0\n\n")
        ds = load_csv(path)
        assert ds.n_samples == 2


class TestSampleBatch:
    def setup_method(self):
        self.ds = synth_classification(seed=0, n_classes=2, n_features=2,
                                       n_samples=8)

    def test_deterministic_in_seed_and_t(self):
        a = sample_batch(self.ds, 16, t=3, seed=5)
        b = sample_batch(self.ds, 16, t=3, seed=5)
        np.testing.assert_array_equal(a, b)
        c = sample_batch(self.ds, 16, t=4, seed=5)
        d = sample_batch(self.ds, 16, t=3, seed=6)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_indices_in_range(self):
        idx = sample_batch(self.ds, 1000, t=1, seed=0)
        assert idx.min() >= 0 and idx.max() < 8

    def test_roughly_uniform(self):
        # Counts are Binomial(m, 1/n): mean 10000, sd ~94. Allow 5 sd.
        idx = sample_batch(self.ds, 80000, t=1, seed=0)
        counts = np.bincount(idx, minlength=8)
        assert np.all(np.abs(counts - 10000) < 5 * 94)

    def test_validates_args(self):
        with pytest.raises(ValueError):
            sample_batch(self.ds, 0, t=1, seed=0)
        with pytest.raises(ValueError):
            sample_batch(self.ds, 4, t=0, seed=0)


def assert_same_rounds(n_samples, m, first, count, seed):
    """_draw_rounds against the reference, one sample_batch per round."""
    rows = SimpleNamespace(n_samples=n_samples)  # all that either reads of a dataset
    got = problems._draw_rounds(rows, m, first, count, seed)
    want = np.array([sample_batch(rows, m, t, seed) for t in range(first, first + count)])
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestDrawRounds:
    """_draw_rounds is sample_batch for a block of rounds, bit for bit."""

    # n_samples = 2**31 + 11 rejects about half of all 32-bit draws, so most
    # of its rounds are handed back to sample_batch.
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**40 + 3])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 2000, 2**31 + 11])
    def test_rows_equal_sample_batch(self, seed, n_samples):
        for m in (1, 2, 5, 32):
            assert_same_rounds(n_samples, m, first=3, count=40, seed=seed)

    @pytest.mark.parametrize("first, count", [
        pytest.param(1000, 50, id="across-a-block-boundary"),
        pytest.param(1, problems._BLOCK_ROUNDS + 3, id="longer-than-a-block"),
        pytest.param(2**32 - 3, 6, id="t-past-32-bits"),
    ])
    def test_rounds_anywhere(self, first, count):
        assert_same_rounds(2000, 7, first, count, seed=11)

    def test_samples_past_32_bits(self):
        assert_same_rounds(2**32, 3, first=1, count=4, seed=5)
        assert_same_rounds(2**33 + 1, 3, first=1, count=4, seed=5)

    def test_invalid_rounds_raise_like_sample_batch(self):
        rows = SimpleNamespace(n_samples=10)
        with pytest.raises(ValueError, match="t must be >= 1"):
            problems._draw_rounds(rows, 4, 0, 3, 0)
        with pytest.raises(ValueError, match="batch size"):
            problems._draw_rounds(rows, 0, 1, 3, 0)

    @settings(max_examples=150, deadline=None, database=None)
    @given(n_samples=st.one_of(st.integers(1, 5000), st.integers(1, 2**32 + 2)),
           m=st.integers(1, 40), first=st.integers(1, 2**33), count=st.integers(1, 12),
           seed=st.integers(0, 2**80))
    def test_property_rows_equal_sample_batch(self, n_samples, m, first, count, seed):
        assert_same_rounds(n_samples, m, first, count, seed)


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="lie in"):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), n_classes=2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="one entry per sample"):
            Dataset(features=np.zeros((3, 2)), labels=np.array([0, 1]), n_classes=2)

    def test_rejects_one_class(self):
        with pytest.raises(ValueError, match="two classes"):
            Dataset(features=np.zeros((2, 2)), labels=np.zeros(2, dtype=int), n_classes=1)


class TestSoftmaxProblem:
    def make(self):
        ds = synth_classification(seed=6, n_classes=3, n_features=4, n_samples=60)
        return SoftmaxL2Problem(ds, batch_size=5, sigma1=0.01, sigma2=0.01)

    def test_round_loss_matches_batch(self):
        prob = self.make()
        x = np.random.default_rng(1).standard_normal(prob.dim) * 0.1
        idx = sample_batch(prob.dataset, 5, t=7, seed=2)
        want = softmax_l2_loss(x, prob.dataset, idx, 0.01, 0.01)
        got, _ = prob.round_loss_grad(x, t=7, seed=2)
        assert got == want

    def test_prefix_objective_is_mean_of_rounds(self):
        # The weighted full-data objective must equal the plain average of
        # the per-round losses over the same prefix.
        prob = self.make()
        upto, seed = 13, 3
        f, grad, l_est = prob.prefix_objective(upto, seed)
        x = np.random.default_rng(2).standard_normal(prob.dim) * 0.2
        rounds = [prob.round_loss_grad(x, t, seed)[0] for t in range(1, upto + 1)]
        assert f(x) == pytest.approx(np.mean(rounds), rel=1e-12)
        g_rounds = np.mean([prob.round_loss_grad(x, t, seed)[1]
                            for t in range(1, upto + 1)], axis=0)
        np.testing.assert_allclose(grad(x), g_rounds, rtol=1e-10, atol=1e-14)
        assert l_est > 0

    def test_prefix_counts_extend_across_checkpoints(self, monkeypatch):
        # A growing checkpoint chain draws each round once, and every prefix
        # (also after a step back or a seed change) equals one counted from
        # scratch on a fresh problem.
        prob = self.make()
        drawn = []
        real = problems._draw_rounds

        def counting(dataset, m, first, count, seed):
            drawn.extend((t, seed) for t in range(first, first + count))
            return real(dataset, m, first, count, seed)

        monkeypatch.setattr(problems, "_draw_rounds", counting)
        chain = [(4, 3), (9, 3), (13, 3), (6, 3), (6, 5)]
        got = [prob.prefix_objective(upto, seed) for upto, seed in chain]
        assert drawn[:13] == [(t, 3) for t in range(1, 14)]
        assert len(drawn) == 13 + 6 + 6
        x = np.random.default_rng(4).standard_normal(prob.dim) * 0.3
        for (upto, seed), (f, grad, l_est) in zip(chain, got):
            f0, grad0, l0 = self.make().prefix_objective(upto, seed)
            assert f(x) == f0(x)
            np.testing.assert_array_equal(grad(x), grad0(x))
            assert l_est == l0

    def test_lanes_match_one_iterate_at_a_time(self):
        prob = self.make()
        xs = np.random.default_rng(5).standard_normal((6, prob.dim)) * 0.3
        grads = prob.lanes_grad(xs, 4, 1, np.empty_like(xs))
        losses = prob.lanes_losses(xs[:, None], 4, 1)[:, 0]
        for x, f, g in zip(xs, losses, grads):
            idx = sample_batch(prob.dataset, 5, t=4, seed=1)
            assert f == softmax_l2_loss(x, prob.dataset, idx, 0.01, 0.01)
            np.testing.assert_array_equal(g, softmax_l2_grad(x, prob.dataset, idx, 0.01, 0.01))

    def test_block_cache_serves_the_sample_batch_rows(self):
        # Steps forward, backward, past the block and across seeds; every
        # round must see exactly its own sample_batch minibatch.
        prob = self.make()
        block = problems._BLOCK_ROUNDS
        xs = np.random.default_rng(6).standard_normal((3, prob.dim)) * 0.3
        visits = [(1, 0), (2, 0), (block + 5, 0), (3, 0), (3, 1), (block, 1),
                  (block + 1, 1), (2 * block + 7, 1), (block - 1, 1), (4, 0)]
        for t, seed in visits:
            idx = sample_batch(prob.dataset, 5, t, seed)
            grads = prob.lanes_grad(xs, t, seed, np.empty_like(xs))
            losses = prob.lanes_losses(xs[:, None], t, seed)[:, 0]
            for x, f, g in zip(xs, losses, grads):
                assert f == softmax_l2_loss(x, prob.dataset, idx, 0.01, 0.01)
                np.testing.assert_array_equal(g, softmax_l2_grad(x, prob.dataset, idx, 0.01, 0.01))
            f, g = prob.round_loss_grad(xs[0], t, seed)
            assert f == softmax_l2_loss(xs[0], prob.dataset, idx, 0.01, 0.01)
            np.testing.assert_array_equal(g, softmax_l2_grad(xs[0], prob.dataset, idx, 0.01, 0.01))

    @pytest.mark.parametrize("batch", [5, 12])
    def test_loss_windows_across_blocks_and_seeds_match_sample_batch(self, batch):
        # Windows inside the kept block, across its end (rounds 1,024 and
        # 1,025), past it, back before it and on another seed; each round's
        # loss must be the one on its own sample_batch minibatch.  A batch
        # of 12 is past the 8 rows where a row sum's rounding starts to
        # depend on its memory layout.
        prob = SoftmaxL2Problem(self.make().dataset, batch_size=batch)
        block = problems._BLOCK_ROUNDS
        rng = np.random.default_rng(8)
        windows = [(1, 0, 256), (block - 3, 0, 8), (block + 1, 0, 4), (block - 1, 1, 3),
                   (2 * block - 100, 1, 300), (5, 1, 2), (block, 0, 1), (block - 2, 2, 1)]
        for first, seed, width in windows:
            xs = rng.standard_normal((3, width, prob.dim)) * 0.3
            losses = prob.lanes_losses(xs, first, seed)
            assert losses.shape == (3, width)
            for lane, window in zip(losses, xs):
                for r, (f, x) in enumerate(zip(lane, window)):
                    idx = sample_batch(prob.dataset, batch, first + r, seed)
                    assert f == softmax_l2_loss(x, prob.dataset, idx, 0.01, 0.01)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_runs_around_the_block_size_match_per_round_draws(self, extra):
        prob = self.make()

        class PerRound:
            """The same problem, drawing each round with sample_batch."""

            kind, sigma, dim = prob.kind, prob.sigma, prob.dim
            initial_point = prob.initial_point

            def lanes_grad(self, xs, t, seed, out):
                idx = sample_batch(prob.dataset, 5, t, seed)
                for x, row in zip(xs, out):
                    row[:] = softmax_l2_grad(x, prob.dataset, idx, 0.01, 0.01)
                return out

            def lanes_losses(self, xs, first, seed):
                return np.array([[softmax_l2_loss(x, prob.dataset,
                                                  sample_batch(prob.dataset, 5, first + r, seed),
                                                  0.01, 0.01)
                                  for r, x in enumerate(lane)] for lane in xs])

        region = box_region(-2.0, 2.0, prob.dim)
        hp = HyperParams(alpha=0.05)
        horizon = problems._BLOCK_ROUNDS + extra
        (fast, got_xs), (slow, want_xs) = spied(prob), spied(PerRound())
        got = run_online(fast, "adam", hp, region, horizon, seed=2)
        want = run_online(slow, "adam", hp, region, horizon, seed=2)
        for name in ("loss", "g", "x_final"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        np.testing.assert_array_equal(got_xs, want_xs)

    def test_validates_penalties(self):
        ds = synth_classification(seed=0, n_classes=2, n_features=2, n_samples=4)
        with pytest.raises(ValueError, match="positive"):
            SoftmaxL2Problem(ds, sigma1=0.0)

    def test_initial_point_is_projected_origin(self):
        prob = self.make()
        region = box_region(-2.0, 2.0, prob.dim)
        np.testing.assert_array_equal(prob.initial_point(region, seed=0),
                                      np.zeros(prob.dim))
