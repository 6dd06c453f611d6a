import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slatesim.choice import (
    ChoiceConfig,
    Regularizer,
    choice_probs,
    entropy_choice_probs,
    gumbel_sample_choice,
    l2_choice_probs,
    project_to_simplex,
    regularizer_value,
    sample_choice,
)

ENT = ChoiceConfig(eta=1.0, regularizer=Regularizer.SHANNON_ENTROPY)
L2 = ChoiceConfig(eta=1.0, regularizer=Regularizer.L2)


def objective(phi, rewards, eta, kind):
    return float(phi @ rewards) - regularizer_value(phi, kind) / eta


def random_simplex(rng, n, count):
    raw = rng.random((count, n))
    raw = -np.log(raw.clip(1e-12))  # exponential spacings give uniform simplex points
    return raw / raw.sum(axis=1, keepdims=True)


class TestEntropyChoice:
    def test_equal_rewards_uniform(self):
        probs = entropy_choice_probs(np.zeros(4), ENT)
        assert np.allclose(probs, 0.25)

    def test_frozen_two_to_one(self):
        # rewards (ln 2, 0) put probability (2/3, 1/3) on the two slots
        probs = entropy_choice_probs(np.array([np.log(2.0), 0.0]), ENT)
        assert np.allclose(probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @given(shift=st.floats(-50, 50), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, shift, seed):
        r = np.random.default_rng(seed).standard_normal(5)
        a = entropy_choice_probs(r, ENT)
        b = entropy_choice_probs(r + shift, ENT)
        assert np.allclose(a, b, atol=1e-12)

    def test_overflow_safe(self):
        probs = entropy_choice_probs(np.array([1e4, 0.0]), ENT)
        assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            entropy_choice_probs(np.array([np.nan, 0.0]), ENT)

    def test_maximizes_regularized_objective(self):
        # closed form must beat 10^4 random simplex candidates
        rng = np.random.default_rng(7)
        for eta in (0.5, 1.0, 2.0):
            cfg = ChoiceConfig(eta=eta)
            r = rng.standard_normal(5)
            star = entropy_choice_probs(r, cfg)
            best = objective(star, r, eta, Regularizer.SHANNON_ENTROPY)
            # the closed-form maximum (log-sum-exp / eta) is the objective at the maximizer
            assert abs(Regularizer.SHANNON_ENTROPY.inner_max(r, eta) - best) <= 1e-12
            for cand in random_simplex(rng, 5, 10_000):
                assert best - objective(cand, r, eta, Regularizer.SHANNON_ENTROPY) >= -1e-9


class TestL2Choice:
    def test_equal_rewards_uniform(self):
        assert np.allclose(l2_choice_probs(np.zeros(3), L2), 1.0 / 3.0)

    def test_saturating_projection(self):
        probs = l2_choice_probs(np.array([10.0, 0.0, 0.0]), L2)
        assert np.allclose(probs, [1.0, 0.0, 0.0])

    def test_maximizes_vs_random_search(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = rng.standard_normal(5)
            star = l2_choice_probs(r, L2)
            best = objective(star, r, 1.0, Regularizer.L2)
            assert abs(Regularizer.L2.inner_max(r, 1.0) - best) <= 1e-12
            for cand in random_simplex(rng, 5, 10_000):
                assert best - objective(cand, r, 1.0, Regularizer.L2) >= -1e-9

    @given(seed=st.integers(0, 100), shift=st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, seed, shift):
        r = np.random.default_rng(seed).standard_normal(4)
        assert np.allclose(l2_choice_probs(r, L2), l2_choice_probs(r + shift, L2), atol=1e-9)

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


class TestGumbelSampling:
    def test_requires_entropy(self):
        with pytest.raises(ValueError, match="entropy"):
            gumbel_sample_choice(np.zeros(3), L2, np.random.default_rng(0))

    def test_dominant_reward_wins(self):
        rng = np.random.default_rng(0)
        r = np.array([100.0, 0.0, 0.0])
        wins = sum(gumbel_sample_choice(r, ENT, rng) == 0 for _ in range(10_000))
        assert wins / 10_000 > 0.999

    def test_deterministic_per_seed(self):
        r = np.arange(4.0)
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        assert [gumbel_sample_choice(r, ENT, rng1) for _ in range(20)] == \
               [gumbel_sample_choice(r, ENT, rng2) for _ in range(20)]

    def test_matches_closed_form_distribution(self):
        # empirical Gumbel-argmax frequencies vs the softmax, TV <= 0.01 at 1e5 draws
        rng = np.random.default_rng(123)
        r = rng.standard_normal(5)
        probs = entropy_choice_probs(r, ENT)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            counts[gumbel_sample_choice(r, ENT, rng)] += 1
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        assert tv <= 0.01

    def test_l2_sampling_matches_projection(self):
        rng = np.random.default_rng(3)
        r = np.array([2.0, 1.0, -4.0])
        probs = l2_choice_probs(r, L2)
        counts = np.zeros(3)
        draws = 50_000
        for _ in range(draws):
            counts[sample_choice(r, L2, rng)] += 1
        assert 0.5 * np.abs(counts / draws - probs).sum() <= 0.01


class TestRegularizerValue:
    def test_uniform_entropy(self):
        val = regularizer_value(np.full(4, 0.25), Regularizer.SHANNON_ENTROPY)
        assert val == pytest.approx(-np.log(4.0), abs=1e-9)
        assert val == pytest.approx(-1.3862944, abs=1e-6)

    def test_one_hot(self):
        one_hot = np.array([0.0, 1.0, 0.0])
        assert regularizer_value(one_hot, Regularizer.SHANNON_ENTROPY) == 0.0
        assert regularizer_value(one_hot, Regularizer.L2) == 1.0

    def test_uniform_l2(self):
        for k in (2, 5, 9):
            assert regularizer_value(np.full(k, 1.0 / k), Regularizer.L2) == pytest.approx(1.0 / k)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError, match="off the simplex"):
            regularizer_value(np.array([0.6, 0.6]), Regularizer.L2)


class TestDispatch:
    def test_choice_probs_routes_by_regularizer(self):
        r = np.array([3.0, 0.0, 0.0])
        assert np.allclose(choice_probs(r, ENT), entropy_choice_probs(r, ENT))
        assert np.allclose(choice_probs(r, L2), l2_choice_probs(r, L2))

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError, match="eta"):
            ChoiceConfig(eta=0.0)

    @given(seed=st.integers(0, 50), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_argmax_invariant_under_joint_positive_scaling(self, seed, scale):
        # scaling eta by c and rewards by 1/c leaves eta*r (hence the solution) unchanged
        r = np.random.default_rng(seed).standard_normal(6)
        base = ChoiceConfig(eta=1.0)
        scaled = ChoiceConfig(eta=scale)
        assert np.allclose(
            entropy_choice_probs(r / scale, scaled), entropy_choice_probs(r, base), atol=1e-9
        )
        assert np.allclose(
            l2_choice_probs(r / scale, scaled), l2_choice_probs(r, base), atol=1e-9
        )
