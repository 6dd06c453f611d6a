import numpy as np
import pytest

from slatesim.agent import random_slate
from slatesim.choice import entropy_choice_probs
from slatesim.data import synth_catalog
from slatesim.env import (
    CandidatePolicy,
    EnvConfig,
    EnvError,
    SlateEnv,
    draw_candidates,
    make_ground_truth_user,
    reset,
    rollout,
    slate_scores,
    step,
)
from slatesim.nets import embed_state, named_tensors


@pytest.fixture
def setup():
    catalog = synth_catalog(10, 4, seed=1)
    user = make_ground_truth_user(catalog, (3, 2, 6), seed=2, reward_scale=2.0)
    env = SlateEnv(catalog, EnvConfig(k=3, pool_size=5, horizon=6))
    return catalog, user, env


class TestGroundTruthUser:
    def test_deterministic_per_seed(self, setup):
        catalog, _, _ = setup
        a = make_ground_truth_user(catalog, (3, 2, 6), seed=9)
        b = make_ground_truth_user(catalog, (3, 2, 6), seed=9)
        for name, t in named_tensors(a.theta).items():
            assert np.array_equal(t, named_tensors(b.theta)[name])

    def test_choice_distribution_sums_to_one(self, setup):
        catalog, user, env = setup
        state = reset(env, user, seed=3)
        feats = catalog.feature_matrix(state.pool[:3])
        scores = slate_scores(user, state.buffer, feats)
        probs = entropy_choice_probs(scores, user.config)
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_empirical_click_frequencies_match_analytic(self, setup):
        # 1e5 independent first steps against a fixed slate: empirical chosen
        # distribution matches the closed-form choice probabilities (TV <= 0.01)
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=10, horizon=2,
                                          candidate_policy=CandidatePolicy.FULL_CATALOG))
        slate = [1, 2, 3]
        state0 = reset(env, user, seed=1)
        feats = catalog.feature_matrix(slate)
        probs = entropy_choice_probs(slate_scores(user, state0.buffer, feats), user.config)
        counts = np.zeros(4)
        draws = 100_000
        for s in range(draws):
            out = step(env, reset(env, user, seed=s), slate, user)
            slot = slate.index(out.chosen) if out.clicked else 3
            counts[slot] += 1
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        assert tv <= 0.01


class TestReset:
    def test_zero_state(self, setup):
        _, user, env = setup
        state = reset(env, user, seed=5)
        assert state.t == 0
        assert not state.clicked_ids
        assert np.all(state.buffer.matrix == 0.0)

    def test_zero_embedding_with_zero_bias(self, setup):
        _, user, env = setup
        state = reset(env, user, seed=5)
        pw = user.theta.pw
        saved = pw.B.copy()
        pw.B[:] = 0.0
        assert np.all(embed_state(state.buffer, pw) == 0.0)
        pw.B[:] = saved

    def test_same_seed_same_pool(self, setup):
        _, user, env = setup
        assert reset(env, user, seed=7).pool == reset(env, user, seed=7).pool


class TestCandidates:
    def test_full_catalog_returns_everything(self, setup):
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=10, horizon=3,
                                          candidate_policy=CandidatePolicy.FULL_CATALOG))
        state = reset(env, user, seed=1)
        assert state.pool == catalog.item_ids

    def test_excludes_clicked(self, setup):
        catalog, _, env = setup
        clicked = frozenset({1, 2, 3})
        for t in range(20):
            pool = draw_candidates(env, clicked, t, seed=4)
            assert not (set(pool) & clicked)

    def test_pool_exhausted(self, setup):
        catalog, _, env = setup
        clicked = frozenset(catalog.item_ids[:-2])
        with pytest.raises(EnvError, match="pool exhausted"):
            draw_candidates(env, clicked, 0, seed=1)

    def test_inclusion_frequencies_uniform(self, setup):
        # K=10, pool of 5: every item appears with frequency 0.5 +- 0.02
        catalog, _, env = setup
        counts = {i: 0 for i in catalog.item_ids}
        draws = 10_000
        for s in range(draws):
            for i in draw_candidates(env, frozenset(), 0, seed=s):
                counts[i] += 1
        for i, c in counts.items():
            assert abs(c / draws - 0.5) <= 0.02

    def test_deterministic_per_seed_and_t(self, setup):
        _, _, env = setup
        a = draw_candidates(env, frozenset(), 3, seed=11)
        b = draw_candidates(env, frozenset(), 3, seed=11)
        c = draw_candidates(env, frozenset(), 4, seed=11)
        assert a == b
        assert a != c or True  # different t may coincide; equality of (a, b) is the contract


class TestStep:
    def test_dominant_item_gets_clicked(self, setup):
        # a score gap of ~100 makes the favorite all but certain
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=10, horizon=2,
                                          candidate_policy=CandidatePolicy.FULL_CATALOG))
        user.theta.head.v *= 60.0
        try:
            state0 = reset(env, user, seed=1)
            all_scores = slate_scores(user, state0.buffer,
                                      catalog.feature_matrix(catalog.item_ids))[:-1]
            order = np.argsort(-all_scores)
            slate = [catalog.item_ids[order[0]], catalog.item_ids[order[-1]],
                     catalog.item_ids[order[-2]]]
            scores = slate_scores(user, state0.buffer, catalog.feature_matrix(slate))
            assert scores[0] - np.partition(scores, -2)[-2] > 20
            wins = 0
            draws = 10_000
            for s in range(draws):
                out = step(env, reset(env, user, seed=s), slate, user)
                wins += (out.chosen == slate[0])
            assert wins / draws > 0.999
        finally:
            user.theta.head.v /= 60.0

    def test_nonclick_semantics(self, setup):
        catalog, user, env = setup
        found = False
        for s in range(500):
            state = reset(env, user, seed=s)
            slate = list(state.pool[:3])
            out = step(env, state, slate, user)
            if not out.clicked:
                found = True
                assert out.chosen == 0
                assert out.reward == 0.0
                assert np.all(out.next_state.buffer.matrix == 0.0)
                assert out.next_state.clicked_ids == frozenset()
                break
        assert found, "no non-click outcome in 500 episodes"

    def test_click_updates_buffer_and_clicked_set(self, setup):
        catalog, user, env = setup
        for s in range(500):
            state = reset(env, user, seed=s)
            slate = list(state.pool[:3])
            out = step(env, state, slate, user)
            if out.clicked:
                assert out.chosen in slate
                assert np.array_equal(out.next_state.buffer.matrix[:, -1],
                                      catalog.features(out.chosen))
                assert out.chosen in out.next_state.clicked_ids
                assert out.reward == pytest.approx(
                    slate_scores(user, state.buffer,
                                 catalog.feature_matrix(slate))[slate.index(out.chosen)])
                return
        pytest.fail("no click in 500 episodes")

    def test_determinism(self, setup):
        _, user, env = setup
        s1, s2 = reset(env, user, seed=9), reset(env, user, seed=9)
        slate = list(s1.pool[:3])
        a, b = step(env, s1, slate, user), step(env, s2, slate, user)
        assert (a.chosen, a.reward, a.clicked) == (b.chosen, b.reward, b.clicked)
        assert a.next_state.pool == b.next_state.pool

    def test_slate_validation(self, setup):
        _, user, env = setup
        state = reset(env, user, seed=3)
        with pytest.raises(ValueError, match="wrong size"):
            step(env, state, list(state.pool[:2]), user)
        with pytest.raises(ValueError, match="duplicate"):
            step(env, state, [state.pool[0]] * 3, user)
        outside = max(state.pool) + 999
        with pytest.raises(ValueError, match="not in pool"):
            step(env, state, [state.pool[0], state.pool[1], outside], user)


class TestRollout:
    def test_zero_horizon(self, setup):
        _, user, env = setup
        traj, avg, clicks = rollout(env, user, lambda b, p, r: random_slate(p, 3, r),
                                    T=0, seed=1)
        assert len(traj) == 0 and avg == 0.0 and clicks == 0

    def test_uniform_user_ctr_near_k_over_k_plus_one(self, setup):
        # all-equal rewards make the choice uniform over k+1 slots
        catalog, user, _ = setup
        user.theta.head.v = np.zeros_like(user.theta.head.v)
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=5, horizon=10,
                                          exclude_clicked=False))
        clicks = steps = 0
        for u in range(300):
            _, _, c = rollout(env, user, lambda b, p, r: random_slate(p, 3, r),
                              T=10, seed=2 * u + 1)
            clicks += c
            steps += 10
        assert abs(clicks / steps - 0.75) <= 0.03

    def test_greedy_oracle_beats_random(self, setup):
        # the user's own reward ranking is a strong slate policy
        catalog, user, env = setup
        from slatesim.agent import greedy_user_model_policy

        def greedy(buffer, pool, rng):
            return greedy_user_model_policy(user, buffer, pool, 3, catalog)

        rand = lambda b, p, r: random_slate(p, 3, r)
        for seed in range(10):
            g = np.mean([rollout(env, user, greedy, seed=100 * seed + i)[1] for i in range(20)])
            r = np.mean([rollout(env, user, rand, seed=100 * seed + i)[1] for i in range(20)])
            assert g > r

    def test_records_carry_rewards_and_are_serializable(self, setup, tmp_path):
        catalog, user, env = setup
        from slatesim.data import load_trajectories, save_trajectories
        traj, avg, _ = rollout(env, user, lambda b, p, r: random_slate(p, 3, r), seed=5)
        assert all(rec.reward is not None for rec in traj.records)
        path = tmp_path / "roll.txt"
        save_trajectories(catalog, [traj], path, m=3)
        _, loaded = load_trajectories(path)
        assert loaded[0].records[0].reward == pytest.approx(traj.records[0].reward, abs=1e-8)

    def test_rollout_deterministic(self, setup):
        _, user, env = setup
        pol = lambda b, p, r: random_slate(p, 3, r)
        t1, a1, c1 = rollout(env, user, pol, seed=13)
        t2, a2, c2 = rollout(env, user, pol, seed=13)
        assert a1 == a2 and c1 == c2
        assert [r.chosen for r in t1.records] == [r.chosen for r in t2.records]
