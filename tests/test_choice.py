import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slatesim.choice import (
    ChoiceConfig,
    Regularizer,
    _gumbel_argmax,
    project_to_simplex,
    sample_choice,
    softmax,
)

ENTROPY, L2_REG = Regularizer.SHANNON_ENTROPY, Regularizer.L2
ENT = ChoiceConfig(eta=1.0, regularizer=ENTROPY)
L2 = ChoiceConfig(eta=1.0, regularizer=L2_REG)


def objective(phi, rewards, eta, kind):
    return float(phi @ rewards) - float(kind.omega(phi)) / eta


def random_simplex(rng, n, count):
    raw = rng.random((count, n))
    raw = -np.log(raw.clip(1e-12))  # exponential spacings give uniform simplex points
    return raw / raw.sum(axis=1, keepdims=True)


class TestEntropyChoice:
    def test_equal_rewards_uniform(self):
        probs = ENTROPY.probs(np.zeros(4), 1.0)
        assert np.allclose(probs, 0.25)

    def test_frozen_two_to_one(self):
        # rewards (ln 2, 0) put probability (2/3, 1/3) on the two slots
        probs = ENTROPY.probs(np.array([np.log(2.0), 0.0]), 1.0)
        assert np.allclose(probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @given(shift=st.floats(-50, 50), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, shift, seed):
        r = np.random.default_rng(seed).standard_normal(5)
        a = ENTROPY.probs(r, 1.0)
        b = ENTROPY.probs(r + shift, 1.0)
        assert np.allclose(a, b, atol=1e-12)

    def test_overflow_safe(self):
        probs = ENTROPY.probs(np.array([1e4, 0.0]), 1.0)
        assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            sample_choice(np.array([[np.nan, 0.0]]), ENT, [np.random.default_rng(0)])

    def test_maximizes_regularized_objective(self):
        # closed form must beat 10^4 random simplex candidates
        rng = np.random.default_rng(7)
        for eta in (0.5, 1.0, 2.0):
            r = rng.standard_normal(5)
            star = ENTROPY.probs(r, eta)
            best = objective(star, r, eta, ENTROPY)
            # the closed-form maximum (log-sum-exp / eta) is the objective at the maximizer
            assert abs(ENTROPY.inner_max(r, eta) - best) <= 1e-12
            for cand in random_simplex(rng, 5, 10_000):
                assert best - objective(cand, r, eta, ENTROPY) >= -1e-9


class TestL2Choice:
    def test_equal_rewards_uniform(self):
        assert np.allclose(L2_REG.probs(np.zeros(3), 1.0), 1.0 / 3.0)

    def test_saturating_projection(self):
        probs = L2_REG.probs(np.array([10.0, 0.0, 0.0]), 1.0)
        assert np.allclose(probs, [1.0, 0.0, 0.0])

    def test_maximizes_vs_random_search(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = rng.standard_normal(5)
            star = L2_REG.probs(r, 1.0)
            best = objective(star, r, 1.0, L2_REG)
            assert abs(L2_REG.inner_max(r, 1.0) - best) <= 1e-12
            for cand in random_simplex(rng, 5, 10_000):
                assert best - objective(cand, r, 1.0, L2_REG) >= -1e-9

    @given(seed=st.integers(0, 100), shift=st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, seed, shift):
        r = np.random.default_rng(seed).standard_normal(4)
        assert np.allclose(L2_REG.probs(r, 1.0), L2_REG.probs(r + shift, 1.0), atol=1e-9)

    @given(seed=st.integers(0, 200), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_projection_is_a_distribution(self, seed, n):
        y = np.random.default_rng(seed).standard_normal(n) * 3
        p = project_to_simplex(y)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-9
        # a stacked call projects each row exactly as the row-by-row calls do
        rows = np.stack([y, -y, 0.1 * y, np.zeros(n)])
        assert np.array_equal(project_to_simplex(rows), np.stack([project_to_simplex(r) for r in rows]))

    def test_projection_is_exact_past_two_to_the_53(self):
        # sorted and thresholded as given, this row once projected to [5e16, 5e16, 0, 0],
        # which sums to 1e17: the -1 of the threshold was lost against the scores
        assert np.array_equal(project_to_simplex([[1e17, 1e17 + 64, -3, 5]]), [[0.0, 1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("scale", [1e20, 1e100, 1e200])
    def test_projection_of_huge_rows_is_a_distribution(self, scale):
        p = project_to_simplex(np.random.default_rng(5).standard_normal((50, 6)) * scale)
        assert np.all(p >= 0)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)


# The sampler is row-batched: n draws for one reward vector are n rows of it, and
# a generator listed once per row draws the rows' uniforms in turn.
class TestGumbelSampling:
    def test_dominant_reward_wins(self):
        rng = np.random.default_rng(0)
        picks = sample_choice(np.tile([100.0, 0.0, 0.0], (10_000, 1)), ENT, [rng] * 10_000)
        assert np.mean(picks == 0) > 0.999

    def test_deterministic_per_seed(self):
        rows = np.tile(np.arange(4.0), (20, 1))
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        assert np.array_equal(sample_choice(rows, ENT, [rng1] * 20), sample_choice(rows, ENT, [rng2] * 20))

    def test_rows_draw_the_kernel_criterion_1_measures(self):
        # one generator shared by 1,000 rows draws the uniforms of one (1000, n) call
        r = np.random.default_rng(4).standard_normal(5)
        for cfg in (ENT, ChoiceConfig(eta=2.5)):
            rng = np.random.default_rng(17)
            picks = sample_choice(np.tile(r, (1000, 1)), cfg, [rng] * 1000)
            kernel = _gumbel_argmax(cfg.eta * r[None], np.random.default_rng(17).random((1000, 5)))
            assert np.array_equal(picks, kernel)

    def test_matches_closed_form_distribution(self):
        # empirical Gumbel-argmax frequencies vs the softmax, TV <= 0.01 at 1e5 draws
        rng = np.random.default_rng(123)
        r = rng.standard_normal(5)
        probs = ENTROPY.probs(r, 1.0)
        n = 100_000
        counts = np.bincount(sample_choice(np.tile(r, (n, 1)), ENT, [rng] * n), minlength=5)
        tv = 0.5 * np.abs(counts / n - probs).sum()
        assert tv <= 0.01

    def test_l2_sampling_matches_projection(self):
        rng = np.random.default_rng(3)
        r = np.array([2.0, 1.0, -4.0])
        probs = L2_REG.probs(r, 1.0)
        n = 50_000
        counts = np.bincount(sample_choice(np.tile(r, (n, 1)), L2, [rng] * n), minlength=3)
        assert 0.5 * np.abs(counts / n - probs).sum() <= 0.01


class TestRegularizerValue:
    def test_uniform_entropy(self):
        val = ENTROPY.omega(np.full(4, 0.25))
        assert val == pytest.approx(-np.log(4.0), abs=1e-9)
        assert val == pytest.approx(-1.3862944, abs=1e-6)

    def test_one_hot(self):
        one_hot = np.array([0.0, 1.0, 0.0])
        assert ENTROPY.omega(one_hot) == 0.0
        assert L2_REG.omega(one_hot) == 1.0

    def test_uniform_l2(self):
        for k in (2, 5, 9):
            assert L2_REG.omega(np.full(k, 1.0 / k)) == pytest.approx(1.0 / k)


class TestDispatch:
    def test_probs_routes_by_regularizer(self):
        r = np.array([3.0, 0.0, 0.0])
        assert np.array_equal(ENTROPY.probs(r, 2.0), softmax(2.0 * r))
        assert np.array_equal(L2_REG.probs(r, 2.0), project_to_simplex(r))

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError, match="eta"):
            ChoiceConfig(eta=0.0)

    @given(seed=st.integers(0, 50), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_argmax_invariant_under_joint_positive_scaling(self, seed, scale):
        # scaling eta by c and rewards by 1/c leaves eta*r (hence the solution) unchanged
        r = np.random.default_rng(seed).standard_normal(6)
        for kind in Regularizer:
            assert np.allclose(kind.probs(r / scale, scale), kind.probs(r, 1.0), atol=1e-9)
