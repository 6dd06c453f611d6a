"""Every row of a batch is scored bit for bit as if alone (B=1).

nets.head_scores runs its state and item products per row, and the env's
rewards, the greedy and cascade policies and the TD targets all score through
it at the width the pools were drawn at, so none of them depends on which rows
share the call, full pools or short: an evaluation cut into shards or a TD
minibatch scores each row as a run of that row alone does.
"""

import numpy as np
import pytest

from slatesim.agent import cascade_batch, compute_target, greedy_user_model_policy
from slatesim.data import synth_catalog
from slatesim.env import EnvConfig, EpisodeKeys, SlateEnv, make_ground_truth_user, reset, slate_scores, step
from slatesim.nets import embed_history, head_scores, init_cascade_net

from pools import pad_pools

M, N, HIDDEN, K, POOL = 5, 3, 16, 4, 12


def bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.fixture(params=[4, 8, 32], ids=lambda d: f"d{d}")
def world(request):
    d = request.param
    catalog = synth_catalog(40, d, seed=d)
    user = make_ground_truth_user(catalog, (M, N, HIDDEN), seed=d + 1, reward_scale=2.0)
    qnet = init_cascade_net(d, M, N, HIDDEN, K, np.random.default_rng(d + 2))
    return catalog, user, qnet


def states(catalog, B: int, seed: int, short: bool = False):
    """B random histories (B, d, M) and pools (B, POOL) of ascending ids: full, or when
    `short` of K to POOL real ids each, padded as the env's."""
    rng = np.random.default_rng(seed)
    hists = rng.standard_normal((B, catalog.d, M))
    sizes = rng.integers(K, POOL + 1, size=B) if short else np.full(B, POOL)
    pools = pad_pools([rng.choice(catalog.item_ids, size=n, replace=False) for n in sizes], POOL)
    return hists, pools


short_pools = pytest.mark.parametrize("short", [False, True], ids=["full-pools", "short-pools"])


@pytest.mark.parametrize("B", [1, 2, 7, 80])
class TestRowsEqualRowsAlone:
    def test_head_scores(self, world, B):
        catalog, user, _ = world
        hists, pools = states(catalog, B, B)
        S, feats = embed_history(hists, user.theta.pw), catalog.feature_matrix(pools)
        scores = head_scores(user.theta.head, S, feats)
        for i in range(B):
            assert bits(scores[i]) == bits(head_scores(user.theta.head, S[i:i + 1], feats[i:i + 1])[0])
            assert bits(scores[i]) == bits(head_scores(user.theta.head, S[i], feats[i]))

    @short_pools
    def test_cascade_batch(self, world, B, short):
        catalog, _, qnet = world
        hists, pools = states(catalog, B, B + 1, short)
        slates, values = cascade_batch(qnet, embed_history(hists, qnet.pw), pools, catalog)
        for i in range(B):
            alone = cascade_batch(qnet, embed_history(hists[i:i + 1], qnet.pw), pools[i:i + 1], catalog)
            assert bits(slates[i], values[i]) == bits(alone[0][0], alone[1][0])

    @short_pools
    def test_compute_target(self, world, B, short):
        catalog, _, qnet = world
        hists, pools = states(catalog, B, B + 2, short)
        rng = np.random.default_rng(B)
        rewards, terminal = rng.standard_normal(B), rng.random(B) < 0.25
        y = compute_target(rewards, hists, pools, qnet, catalog, 0.9, terminal)
        for i in range(B):
            alone = compute_target(rewards[i:i + 1], hists[i:i + 1], pools[i:i + 1], qnet, catalog, 0.9,
                                   terminal[i:i + 1])
            assert bits(y[i]) == bits(alone[0])

    @short_pools
    def test_greedy_user_model_policy(self, world, B, short):
        catalog, user, _ = world
        hists, pools = states(catalog, B, B + 3, short)
        slates = greedy_user_model_policy(user, hists, pools, K, catalog)
        for i in range(B):
            assert bits(slates[i]) == bits(greedy_user_model_policy(user, hists[i:i + 1], pools[i:i + 1],
                                                                    K, catalog)[0])

    def test_env_step(self, world, B):
        # the step's slot scores, the choice, reward and history each row takes from them, and
        # the next step's pool (two keyed steps, so that step 0 draws it)
        catalog, user, _ = world
        env = SlateEnv(catalog, EnvConfig(k=K, pool_size=POOL, horizon=2))
        seeds = [2 * i + 1 for i in range(B)]
        history = states(catalog, B, B + 4)[0]

        def run(rows):
            keys = EpisodeKeys([seeds[i] for i in rows], 2)
            hists, avail, pools = reset(env, user, keys)
            hists[...] = history[rows]
            slates = pools[:, :K].copy()
            slots = np.concatenate([catalog.feature_matrix(slates), np.zeros((len(rows), 1, catalog.d))],
                                   axis=1)
            scores = slate_scores(user, hists, slots)
            return (scores, *step(env, user, 0, keys, hists, avail, pools, slates), hists, avail, pools)

        batch = run(np.arange(B))
        for i in range(B):
            alone = run(np.array([i]))
            assert bits(*(a[i] for a in batch)) == bits(*(a[0] for a in alone))
