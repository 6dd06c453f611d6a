import copy
import dataclasses
import re

import numpy as np
import pytest

import slatesim.env as envlib
from slatesim.agent import PolicyHandle, PolicyKind, make_policy, random_slate
from slatesim.choice import ChoiceConfig, Regularizer
from slatesim.data import NON_CLICK_ID, ItemCatalog, load_trajectories, save_trajectories, synth_catalog
from slatesim.env import (
    _CLICK_STREAM,
    _POLICY_STREAM,
    _POOL_STREAM,
    EnvConfig,
    EpisodeKeys,
    SlateEnv,
    draw_candidates,
    make_ground_truth_user,
    reset,
    rollout,
    rollout_batch,
    slate_scores,
    step,
)
from slatesim.nets import embed_history, head_scores, init_cascade_net, named_tensors

from pools import assert_padded, push_columns


def random_policy(env):
    return make_policy(PolicyHandle(PolicyKind.RANDOM), env.catalog, env.config.k)


def avail_of(catalog, clicked, rows=1):
    """`rows` availability masks over the catalog rows: every real item not in `clicked`."""
    return np.array([[i != 0 and i not in clicked for i in catalog.ids]] * rows)


def pool_rows(pools):
    """Padded pools as one ascending id tuple per row."""
    return [tuple(row[row != NON_CLICK_ID].tolist()) for row in pools]


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
        hists, _, pools = reset(env, user, EpisodeKeys([3], 1))
        feats = catalog.feature_matrix([*pools[0, :3], NON_CLICK_ID])
        scores = slate_scores(user, hists, feats[None])[0]
        probs = user.config.regularizer.probs(scores, user.config.eta)
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_empirical_click_frequencies_match_analytic(self, setup):
        # 1e5 independent first steps against a fixed slate: empirical chosen
        # distribution matches the closed-form choice probabilities (TV <= 0.01)
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=10, horizon=2))
        slate = [1, 2, 3]
        hists, _, _ = reset(env, user, EpisodeKeys([1], 1))
        feats = catalog.feature_matrix([*slate, NON_CLICK_ID])
        scores = slate_scores(user, hists, feats[None])[0]
        probs = user.config.regularizer.probs(scores, user.config.eta)
        draws = 100_000
        keys = EpisodeKeys(range(draws), 1)
        _, chosen, _ = step(env, user, 0, keys, *reset(env, user, keys), [slate] * draws)
        counts = np.bincount([slate.index(c) if c else 3 for c in chosen], minlength=4)
        tv = 0.5 * np.abs(counts / draws - probs).sum()
        assert tv <= 0.01


class TestEpisodeKeys:
    def test_generators_equal_default_rng(self):
        # 837 seeds x 3 streams x 4 steps = 10,044 keys; seeds of one and of two
        # 32-bit words, and the edges of each
        rng = np.random.default_rng(0)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        seeds += rng.integers(0, 2**16, 400).tolist()
        seeds += rng.integers(0, 2**64, 430, dtype=np.uint64).tolist()
        keys = EpisodeKeys(seeds, 4)
        for i, seed in enumerate(seeds):
            for stream in (_POOL_STREAM, _CLICK_STREAM, _POLICY_STREAM):
                for t in range(4):
                    got, want = keys.rng(i, stream, t), np.random.default_rng((seed, stream, t))
                    assert got.bit_generator.state == want.bit_generator.state
                    assert got.random(3).tolist() == want.random(3).tolist()
                    assert got.integers(0, 2**62, 2).tolist() == want.integers(0, 2**62, 2).tolist()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_raises(self, seed):
        with pytest.raises(ValueError, match=re.escape("[0, 2**64)")):
            EpisodeKeys([3, seed], 2)

    def test_zero_horizon_raises(self):
        with pytest.raises(ValueError, match=re.escape("horizon must be >= 1, got 0")):
            EpisodeKeys([3], 0)

    def test_step_beyond_the_horizon_raises(self, setup):
        _, user, env = setup
        keys = EpisodeKeys([3], 2)
        for t in (-1, 2):
            with pytest.raises(ValueError, match=re.escape("outside the keyed steps 0..1")):
                keys.rng(0, _CLICK_STREAM, t)
        hists, avail, pools = reset(env, user, keys)
        for t in range(2):
            step(env, user, t, keys, hists, avail, pools, [pools[0, :3]])
        with pytest.raises(ValueError, match=re.escape("step 2 is outside")):
            step(env, user, 2, keys, hists, avail, pools, [pools[0, :3]])

    def test_step_beyond_the_keys_writes_nothing(self, setup):
        # the click draw refuses the unkeyed step before any click reaches the state
        _, user, env = setup
        keys = EpisodeKeys(range(20), 1)
        hists, avail, pools = reset(env, user, keys)
        hists[...] = np.random.default_rng(0).standard_normal(hists.shape)
        state = hists.copy(), avail.copy(), pools.copy()
        with pytest.raises(ValueError, match="is outside the keyed steps"):
            step(env, user, 1, keys, hists, avail, pools, pools[:, :3])
        for got, want in zip((hists, avail, pools), state):
            assert got.tobytes() == want.tobytes()


class TestReset:
    def test_zero_state(self, setup):
        catalog, user, env = setup
        hists, avail, pools = reset(env, user, EpisodeKeys([5, 6], 1))
        assert hists.shape == (2, catalog.d, user.m)
        assert np.array_equal(avail, avail_of(catalog, (), 2))
        assert np.all(hists == 0.0)
        assert [len(pool) for pool in pool_rows(pools)] == [5, 5]

    def test_zero_embedding_with_zero_bias(self, setup):
        _, user, env = setup
        hists, _, _ = reset(env, user, EpisodeKeys([5], 1))
        pw = user.theta.pw
        saved = pw.B.copy()
        pw.B[:] = 0.0
        assert np.all(embed_history(hists, pw) == 0.0)
        pw.B[:] = saved

    def test_same_seed_same_pool(self, setup):
        _, user, env = setup
        assert pool_rows(reset(env, user, EpisodeKeys([7], 1))[2]) == \
            pool_rows(reset(env, user, EpisodeKeys([7], 1))[2])


class TestCandidates:
    def test_full_catalog_returns_everything(self, setup):
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=10, horizon=3))
        _, _, pools = reset(env, user, EpisodeKeys([1], 1))
        assert pool_rows(pools) == [catalog.item_ids]

    def test_excludes_clicked(self, setup):
        catalog, _, env = setup
        clicked = frozenset({1, 2, 3})
        keys = EpisodeKeys([4], 20)
        for t in range(20):
            (pool,) = pool_rows(draw_candidates(env, avail_of(catalog, clicked), t, keys))
            assert not (set(pool) & clicked)

    def test_mask_short_of_k_gives_a_short_pool_that_slates_refuse(self, setup):
        # no valid world leaves fewer than k items; a hand-made mask gets the padded pool
        catalog, _, env = setup
        clicked = frozenset(catalog.item_ids[:-2])
        pools = draw_candidates(env, avail_of(catalog, clicked), 0, EpisodeKeys([1], 1))
        assert pool_rows(pools) == [catalog.item_ids[-2:]]
        assert pools.shape == (1, env.config.pool_size)
        assert_padded(pools)
        with pytest.raises(ValueError, match=re.escape("pool smaller than k: 2 < 3")):
            random_slate(pools[0], env.config.k, np.random.default_rng(0))

    def test_inclusion_frequencies_uniform(self, setup):
        # K=10, pool of 5: every item appears with frequency 0.5 +- 0.02
        catalog, _, env = setup
        counts = {i: 0 for i in catalog.item_ids}
        draws = 10_000
        keys = EpisodeKeys(range(draws), 1)
        for pool in pool_rows(draw_candidates(env, avail_of(catalog, (), draws), 0, keys)):
            for i in pool:
                counts[i] += 1
        for i, c in counts.items():
            assert abs(c / draws - 0.5) <= 0.02

    def test_deterministic_per_seed_and_t(self, setup):
        catalog, _, env = setup
        a = pool_rows(draw_candidates(env, avail_of(catalog, ()), 3, EpisodeKeys([11], 5)))
        b = pool_rows(draw_candidates(env, avail_of(catalog, ()), 3, EpisodeKeys([11], 5)))
        c = pool_rows(draw_candidates(env, avail_of(catalog, ()), 4, EpisodeKeys([11], 5)))
        assert a == b
        assert a != c or True  # different t may coincide; equality of (a, b) is the contract


def list_scan_pool(env, clicked_ids, t, seed):
    """The pool draw as first written: a Python scan of the catalog for unclicked ids."""
    cfg = env.config
    avail = [i for i in env.catalog.item_ids if i not in clicked_ids]
    size = min(cfg.pool_size, len(avail))
    rng = np.random.default_rng((seed, _POOL_STREAM, t))
    picked = rng.choice(len(avail), size=size, replace=False)
    return tuple(sorted(avail[i] for i in picked))


class TestPoolDrawMatchesListScan:
    @pytest.fixture(scope="class")
    def gappy_catalog(self, tmp_path_factory):
        # ids with gaps, read back from a data file as the CLI would
        ids = [2, 5, 6, 11, 17, 23, 40, 41, 57, 90, 91, 300]
        rng = np.random.default_rng(3)
        path = tmp_path_factory.mktemp("cat") / "data.txt"
        save_trajectories(ItemCatalog([(i, rng.standard_normal(3)) for i in ids], d=3), [], path)
        catalog, _ = load_trajectories(path)
        assert catalog.item_ids == tuple(ids)
        return catalog

    @pytest.mark.parametrize("config", [  # 12 items leave k=3 for a slate up to a horizon of 9
        EnvConfig(k=3, pool_size=5, horizon=9),
        EnvConfig(k=3, pool_size=12, horizon=9),
        EnvConfig(k=2, pool_size=4),
    ])
    def test_same_pools(self, gappy_catalog, config):
        env = SlateEnv(gappy_catalog, config)
        ids = gappy_catalog.item_ids
        rng = np.random.default_rng(4)
        for trial in range(60):
            n_clicked = trial % 10  # 0 to 9 of the 12 ids
            clicked = frozenset(int(i) for i in rng.choice(ids, size=n_clicked, replace=False))
            if trial % 7 == 0:
                clicked |= {999}  # an id outside the catalog changes nothing
            pools = draw_candidates(env, avail_of(gappy_catalog, clicked), trial % 5, EpisodeKeys([trial], 5))
            assert pool_rows(pools) == [list_scan_pool(env, clicked, trial % 5, trial)]
            assert pools.shape == (1, config.pool_size)
            assert_padded(pools)


class TestStep:
    SEEDS = range(500)

    def _first_step(self, env, user, seeds=SEEDS):
        """Each seed's step 0 against the first 3 items of its pool: the state before, the
        slates, and step's slates, chosen ids and rewards, with the state after in place."""
        keys = EpisodeKeys(seeds, 1)
        hists, avail, pools = reset(env, user, keys)
        before = hists.copy()
        slates = pools[:, :3].tolist()
        out = step(env, user, 0, keys, hists, avail, pools, slates)
        return before, slates, out, (hists, avail, pools)

    def test_dominant_item_gets_clicked(self, setup):
        # a score gap of ~100 makes the favorite all but certain
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=10, horizon=2))
        user.theta.head.v *= 60.0
        try:
            hists, _, _ = reset(env, user, EpisodeKeys([1], 1))
            all_scores = slate_scores(user, hists, catalog.feature_matrix(catalog.item_ids)[None])[0]
            order = np.argsort(-all_scores)
            slate = [catalog.item_ids[order[0]], catalog.item_ids[order[-1]],
                     catalog.item_ids[order[-2]]]
            scores = slate_scores(user, hists, catalog.feature_matrix([*slate, NON_CLICK_ID])[None])[0]
            assert scores[0] - np.partition(scores, -2)[-2] > 20
            draws = 10_000
            keys = EpisodeKeys(range(draws), 1)
            _, chosen, _ = step(env, user, 0, keys, *reset(env, user, keys), [slate] * draws)
            assert np.count_nonzero(chosen == slate[0]) / draws > 0.999
        finally:
            user.theta.head.v /= 60.0

    def test_nonclick_semantics(self, setup):
        catalog, user, env = setup
        _, _, (_, chosen, rewards), (hists, avail, _) = self._first_step(env, user)
        skipped = [i for i, c in enumerate(chosen) if c == 0]
        assert skipped, "no non-click outcome in 500 episodes"
        for i in skipped:
            assert rewards[i] == 0.0
            assert np.all(hists[i] == 0.0)
            assert np.array_equal(avail[i], avail_of(catalog, ())[0])

    def test_click_updates_buffer_and_clicked_set(self, setup):
        # the paid reward is the clicked slot's score, bit for bit the B=1 score
        catalog, user, env = setup
        before, slates, (_, chosen, rewards), (hists, avail, _) = self._first_step(env, user)
        hit = [i for i, c in enumerate(chosen) if c != 0]
        assert hit, "no click in 500 episodes"
        for i in hit:
            assert chosen[i] in slates[i]
            assert np.array_equal(hists[i][:, -1], catalog.features(chosen[i]))
            assert np.array_equal(avail[i], avail_of(catalog, {chosen[i]})[0])
            slots = catalog.feature_matrix([*slates[i], NON_CLICK_ID])
            scores = slate_scores(user, before[i:i + 1], slots[None])[0]
            assert rewards[i] == scores[slates[i].index(chosen[i])]

    def test_determinism(self, setup):
        _, user, env = setup
        _, _, a, state_a = self._first_step(env, user, [9])
        _, _, b, state_b = self._first_step(env, user, [9])
        assert [o.tolist() for o in a] == [o.tolist() for o in b]
        (hists_a, avail_a, pools_a), (hists_b, avail_b, pools_b) = state_a, state_b
        assert np.array_equal(hists_a, hists_b) and np.array_equal(avail_a, avail_b)
        assert pool_rows(pools_a) == pool_rows(pools_b)

    def test_slate_validation(self, setup):
        _, user, env = setup
        keys = EpisodeKeys([3], 1)
        hists, avail, pools = reset(env, user, keys)
        pool = pools[0]

        def bad(slate):
            return step(env, user, 0, keys, hists, avail, pools, [slate])

        with pytest.raises(ValueError, match="wrong size"):
            bad(list(pool[:2]))
        with pytest.raises(ValueError, match="duplicate"):
            bad([pool[0]] * 3)
        with pytest.raises(ValueError, match="not in pool"):
            bad([pool[0], pool[1], max(pool) + 999])


    @pytest.mark.parametrize("bad, message", [
        (lambda pool: pool[:2], "slate wrong size: got 2, expected 3"),
        (lambda pool: [pool[1]] * 3, "duplicate items in slate"),
        (lambda pool: [pool[0], 999, pool[1]], "slate not in pool: [999]"),
        (lambda pool: [0, pool[0], pool[1]], "slate not in pool: [0]"),
    ], ids=["size", "duplicate", "outside-pool", "non-click-id"])
    def test_first_bad_row_raises_its_message(self, setup, bad, message):
        # row 2 of 4 is bad, row 3 is bad another way: row 2's fault is the one named
        _, user, env = setup
        keys = EpisodeKeys(range(4), 1)
        hists, avail, pools = reset(env, user, keys)
        rows = [list(pool) for pool in pool_rows(pools)]
        slates = [pool[:3] for pool in rows]
        slates[2] = bad(rows[2])
        slates[3] = [rows[3][0]] * 3 if "pool" in message else [rows[3][0], -1, rows[3][1]]
        with pytest.raises(ValueError) as caught:
            step(env, user, 0, keys, hists, avail, pools, slates)
        assert str(caught.value) == message

    def test_padding_is_not_in_the_pool(self, setup):
        # a short pool's padding holds the non-click id, which no slate may show
        _, user, env = setup
        keys = EpisodeKeys([3], 1)
        hists, avail, _ = reset(env, user, keys)
        pools = np.array([[1, 2, 3, NON_CLICK_ID, NON_CLICK_ID]])
        with pytest.raises(ValueError) as caught:
            step(env, user, 0, keys, hists, avail, pools, [[1, 2, 0]])
        assert str(caught.value) == "slate not in pool: [0]"

    def test_batched_state_equals_rows_alone(self, setup):
        # 12 sessions stepped together and each stepped alone: pools,
        # availability, histories, slates, clicks and rewards agree bit for bit at every
        # step, steps where some rows' catalogs run short of the pool size included
        catalog, user, _ = setup
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=5, horizon=7))
        policy, seeds = random_policy(env), list(range(12))

        def play(keys, state, t):
            slates = policy(state[0], state[2], lambda i: keys.rng(i, _POLICY_STREAM, t))
            return step(env, user, t, keys, *state, slates)

        def assert_rows_equal():
            hists, avail, pools = batch
            for i, (_, (h, a, p)) in enumerate(alone):
                for got, want in ((hists, h), (avail, a), (pools, p)):
                    assert got[i].tobytes() == want[0].tobytes()
            assert_padded(pools)
            sizes.add(tuple((pools != NON_CLICK_ID).sum(axis=1).tolist()))

        keys, sizes = EpisodeKeys(seeds, 7), set()
        batch = reset(env, user, keys)
        alone = [(k, reset(env, user, k)) for k in (EpisodeKeys([s], 7) for s in seeds)]
        assert_rows_equal()
        # the clicks as the per-row code kept them: one push per click, one click set per row
        pushed, clicked = np.zeros_like(batch[0]), [set() for _ in seeds]
        for t in range(7):
            out = play(keys, batch, t)
            for i, (row_keys, state) in enumerate(alone):
                assert [o[0].tolist() for o in play(row_keys, state, t)] == [o[i].tolist() for o in out]
            assert_rows_equal()
            for i, c in enumerate(out[1]):
                if c:
                    push_columns(pushed[i], catalog.features(c))
                    clicked[i].add(c)
            assert batch[0].tobytes() == pushed.tobytes()
            assert np.array_equal(batch[1], [avail_of(catalog, c)[0] for c in clicked])
        assert any(min(s) < 5 == max(s) for s in sizes), "no step with ragged pools"


class TestSlateScores:
    @pytest.mark.parametrize("B", [1, 2, 10, 240])
    def test_rows_equal_the_b1_call(self, setup, B):
        # bit for bit, so that a reward does not depend on how many sessions step together
        catalog, user, _ = setup
        rng = np.random.default_rng(B)
        hists = rng.standard_normal((B, catalog.d, user.m))
        feats = rng.standard_normal((B, 4, catalog.d))
        scores = slate_scores(user, hists, feats)
        assert scores.shape == (B, 4)
        for i in range(B):
            assert np.array_equal(scores[i], slate_scores(user, hists[i:i + 1], feats[i:i + 1])[0])

    def test_matches_head_scores(self, setup):
        catalog, user, _ = setup
        rng = np.random.default_rng(3)
        hists = rng.standard_normal((6, catalog.d, user.m))
        feats = rng.standard_normal((6, 3, catalog.d))
        with_nonclick = np.concatenate([feats, np.zeros((6, 1, catalog.d))], axis=1)
        expected = head_scores(user.theta.head, embed_history(hists, user.theta.pw), with_nonclick)
        assert slate_scores(user, hists, with_nonclick).tobytes() == expected.tobytes()


class TestRollout:
    def test_zero_horizon_raises_before_any_draw(self, setup, count_calls):
        _, user, env = setup
        calls = count_calls({envlib: ["draw_candidates"]})
        with pytest.raises(ValueError, match=re.escape("T must be >= 1, got 0")):
            rollout(env, user, random_policy(env), T=0, seed=1)
        assert calls == {"draw_candidates": 0}

    def test_an_episode_of_t_steps_draws_t_pools(self, count_calls):
        # reset draws step 0's pool and each step but the last draws the next one
        catalog = synth_catalog(20, 4, seed=1)
        user = make_ground_truth_user(catalog, (3, 2, 6), seed=2)
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=5, horizon=10))
        calls = count_calls({envlib: ["draw_candidates"]})
        batch = rollout_batch(env, user, random_policy(env), [1, 2, 3], T=10)
        assert calls == {"draw_candidates": 10}
        assert [len(traj) for traj, _, _ in batch] == [10, 10, 10]

    def test_uniform_user_ctr_near_k_over_k_plus_one(self, setup):
        # all-equal rewards make the choice uniform over k+1 slots; 20 items leave a
        # full pool of 5 after 10 clicks
        _, user, _ = setup
        user.theta.head.v = np.zeros_like(user.theta.head.v)
        env = SlateEnv(synth_catalog(20, 4, seed=1), EnvConfig(k=3, pool_size=5, horizon=10))
        clicks = steps = 0
        for u in range(300):
            _, _, c = rollout(env, user, random_policy(env), T=10, seed=2 * u + 1)
            clicks += c
            steps += 10
        assert abs(clicks / steps - 0.75) <= 0.03

    def test_greedy_oracle_beats_random(self, setup):
        # the user's own reward ranking is a strong slate policy
        catalog, user, env = setup
        greedy = make_policy(PolicyHandle(PolicyKind.GREEDY_USER_MODEL, user_model=user), catalog, 3)
        rand = random_policy(env)
        for seed in range(10):
            g = np.mean([rollout(env, user, greedy, seed=100 * seed + i)[1] for i in range(20)])
            r = np.mean([rollout(env, user, rand, seed=100 * seed + i)[1] for i in range(20)])
            assert g > r

    def test_records_carry_rewards_and_are_serializable(self, setup, tmp_path):
        catalog, user, env = setup
        from slatesim.data import load_trajectories, save_trajectories
        traj, avg, _ = rollout(env, user, random_policy(env), seed=5)
        assert all(rec.reward is not None for rec in traj.records)
        path = tmp_path / "roll.txt"
        save_trajectories(catalog, [traj], path, m=3)
        _, loaded = load_trajectories(path)
        assert loaded[0].records[0].reward == pytest.approx(traj.records[0].reward, abs=1e-8)

    def test_rollout_deterministic(self, setup):
        _, user, env = setup
        pol = random_policy(env)
        t1, a1, c1 = rollout(env, user, pol, seed=13)
        t2, a2, c2 = rollout(env, user, pol, seed=13)
        assert a1 == a2 and c1 == c2
        assert [r.chosen for r in t1.records] == [r.chosen for r in t2.records]


class TestWorldRules:
    """The env refuses a world that cannot fill a k-item slate at every step, before any step."""

    def test_zero_horizon_config_raises(self):
        with pytest.raises(ValueError, match=re.escape("horizon must be >= 1, got 0")):
            EnvConfig(horizon=0)

    def test_pool_larger_than_the_catalog_raises(self):
        with pytest.raises(ValueError) as caught:
            SlateEnv(synth_catalog(50, 3), EnvConfig(k=5, pool_size=100, horizon=10))
        assert str(caught.value) == "pool_size 100 exceeds the catalog's 50 items"

    def test_catalog_that_clicks_exhaust_raises(self):
        # 12 items less 10 clicks leave 2 < k
        with pytest.raises(ValueError) as caught:
            SlateEnv(synth_catalog(12, 3), EnvConfig(k=3, pool_size=5, horizon=10))
        assert str(caught.value) == ("a catalog of 12 items minus a horizon of 10 clicks "
                                     "leaves fewer than k=3 items for a slate")

    def test_rollout_beyond_the_horizon_raises_before_any_step(self, setup):
        _, user, env = setup
        calls = []

        def policy(hists, pools, row_rng):
            calls.append(len(hists))
            return pools[:, :env.config.k]

        with pytest.raises(ValueError, match=re.escape("T=7 exceeds the env's horizon 6")):
            rollout(env, user, policy, T=env.config.horizon + 1)
        assert calls == []


class TestRolloutBatch:
    """rollout_batch over B seeds equals each seed run alone."""

    SEEDS = [1, 4, 9, 16, 25, 36, 49]

    def _policies(self, env, user):
        catalog, k = env.catalog, env.config.k
        qnet = init_cascade_net(catalog.d, user.m, 2, 6, k, np.random.default_rng(5))
        return [make_policy(PolicyHandle(PolicyKind.RANDOM), catalog, k),
                make_policy(PolicyHandle(PolicyKind.GREEDY_USER_MODEL, user_model=user), catalog, k),
                make_policy(PolicyHandle(PolicyKind.CDQN, qnet=qnet), catalog, k)]

    def _assert_rows_independent(self, env, user):
        for policy in self._policies(env, user):
            batch = rollout_batch(env, user, policy, self.SEEDS, user_ids=range(len(self.SEEDS)))
            for u, (seed, (traj, avg, clicks)) in enumerate(zip(self.SEEDS, batch)):
                alone, alone_avg, alone_clicks = rollout(env, user, policy, seed=seed, user_id=u)
                assert traj.user_id == alone.user_id == u
                assert [(r.step, r.displayed, r.chosen) for r in traj.records] == \
                    [(r.step, r.displayed, r.chosen) for r in alone.records]
                assert [r.reward for r in traj.records] == [r.reward for r in alone.records]
                assert clicks == alone_clicks
                assert avg == alone_avg

    def test_entropy_user(self, setup):
        _, user, env = setup
        self._assert_rows_independent(env, user)

    def test_l2_user_nonclick_reward(self, setup):
        # the inverse-CDF branch of the row-batched sample_choice, and a non-click paying 0.0
        catalog, user, _ = setup
        l2 = dataclasses.replace(user, config=ChoiceConfig(1.0, Regularizer.L2))
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=5, horizon=6))
        batch = rollout_batch(env, l2, self._policies(env, l2)[0], self.SEEDS)
        assert any(not r.clicked for traj, _, _ in batch for r in traj.records)
        assert all(r.reward == 0.0 for traj, _, _ in batch for r in traj.records if not r.clicked)
        self._assert_rows_independent(env, l2)

    @pytest.mark.parametrize("user_ids, message", [
        ([7], "1 user ids for 3 seeds"),
        ([7, 8, 9, 10], "4 user ids for 3 seeds"),
    ])
    def test_user_ids_unlike_the_seeds_raise_before_reset(self, setup, count_calls, user_ids, message):
        # zip once played three episodes and returned one
        _, user, env = setup
        calls = count_calls({envlib: ["reset"]})
        with pytest.raises(ValueError) as caught:
            rollout_batch(env, user, random_policy(env), [1, 3, 5], user_ids=user_ids)
        assert str(caught.value) == message
        assert calls == {"reset": 0}

    def test_no_seed_raises_before_the_policy_is_called(self, setup):
        # draw_candidates once met no row and raised "min() arg is an empty sequence"
        _, user, env = setup
        called = []
        with pytest.raises(ValueError, match="rollout_batch needs at least one seed"):
            rollout_batch(env, user, lambda *args: called.append(args), [])
        assert called == []

    def test_nan_scores_raise(self, setup):
        catalog, user, env = setup
        broken = copy.deepcopy(user)
        broken.theta.head.v[0] = np.nan
        policy = self._policies(env, user)[0]
        for seeds in (self.SEEDS, [self.SEEDS[0]]):
            with pytest.raises(ValueError, match="NaN or Inf"):
                rollout_batch(env, broken, policy, seeds)

    @pytest.mark.parametrize("bad_slate, message", [
        (lambda pool: pool[:2], "slate wrong size"),
        (lambda pool: (pool[0],) * 3, "duplicate items in slate"),
        (lambda pool: pool[:2] + (max(pool) + 999,), "slate not in pool"),
    ], ids=["size", "duplicate", "outside-pool"])
    def test_slate_checks_name_the_fault(self, setup, bad_slate, message):
        # every row's slate is checked, not only the first
        _, user, env = setup

        def last_row_bad(hists, pools, row_rng):
            rows = pool_rows(pools)
            return [pool[:3] for pool in rows[:-1]] + [bad_slate(rows[-1])]

        with pytest.raises(ValueError, match=message):
            rollout_batch(env, user, last_row_bad, self.SEEDS)
