import itertools
import re

import numpy as np
import pytest

from slatesim.agent import (
    CDQNConfig,
    EvalCounter,
    NonFiniteQError,
    PolicyHandle,
    PolicyKind,
    ReplayBatch,
    ReplayMemory,
    RewardMode,
    additive_q_policy,
    additive_target,
    cascade_argmax,
    cascade_batch,
    cascade_plan,
    cascade_slate,
    compute_target,
    constraint_diagnostic,
    greedy_user_model_policy,
    load_policy,
    make_env_factory,
    make_policy,
    net_qeval,
    pad_pools,
    random_slate,
    save_policy,
    train_additive_q,
    train_cdqn,
    TrainingDivergedError,
)
from slatesim.data import synth_catalog
from slatesim import agent
from slatesim.env import EnvConfig, EpisodeKeys, SlateEnv, make_ground_truth_user, reset, rollout, step
from slatesim.nets import embed_history, init_cascade_net, named_tensors


def break_head(qnet, position, value):
    """Give head `position` large positive hidden units and output weights `value`:
    -1e308 overflows every candidate's Q value to -inf, NaN makes it NaN."""
    head = qnet.heads[position - 1]
    head.V[:] = 0.0
    head.b[:] = 1e3
    head.v[:] = value
    return qnet


def one_state(policy_fn, model, hist, pool, k, catalog):
    """A batched policy function run on one (d, m) history and pool: the slate as a list of ids."""
    return policy_fn(model, hist[None], [pool], k, catalog)[0].tolist()


def table_qeval(tables):
    """Wrap per-position {(prefix..., cand): value} dicts as a qeval callable."""

    def qeval(j, prefix, cands):
        return np.array([tables[j - 1][prefix + (a,)] for a in cands])

    return qeval


def build_consistent_tables(rng, items, k):
    """Exhaustive per-position max tables from a random value on ordered slates."""
    qstar = {perm: rng.standard_normal() for perm in itertools.permutations(items, k)}
    tables = [dict() for _ in range(k)]
    for perm, val in qstar.items():
        for j in range(1, k + 1):
            key = perm[:j]
            if key not in tables[j - 1] or val > tables[j - 1][key]:
                tables[j - 1][key] = val
    return qstar, tables


class TestCascadeArgmax:
    def test_k1_is_plain_argmax(self):
        rng = np.random.default_rng(0)
        items = tuple(range(1, 9))
        vals = {(a,): rng.standard_normal() for a in items}
        qeval = table_qeval([vals])
        best = max(items, key=lambda a: vals[(a,)])
        assert cascade_argmax(qeval, items, 1) == [best]

    def test_exact_on_consistent_tables(self):
        # enumeration oracle: with per-position max tables the cascade recovers
        # the global argmax over all ordered slates
        items = tuple(range(1, 9))
        for trial in range(50):
            rng = np.random.default_rng(trial)
            qstar, tables = build_consistent_tables(rng, items, 3)
            counter = EvalCounter()
            slate, values = cascade_plan(table_qeval(tables), items, 3, counter)
            brute = max(qstar.values())
            assert qstar[tuple(slate)] == pytest.approx(brute, abs=1e-12)
            assert values[-1] == pytest.approx(brute, abs=1e-12)
            assert counter.count <= 3 * len(items)

    def test_tie_breaks_to_lowest_id(self):
        items = (4, 2, 9)
        vals = {(a,): 1.0 for a in items}
        assert cascade_argmax(table_qeval([vals]), items, 1) == [2]

    def test_pool_smaller_than_k(self):
        with pytest.raises(ValueError, match="pool smaller"):
            cascade_argmax(table_qeval([{}]), (1, 2), 3)


class TestReplayMemory:
    def _rows(self, ids):
        """One transition per id i: slate (i,), reward i, next pool (i,)."""
        n = len(ids)
        slate = np.array(ids, dtype=int)[:, None]
        return ReplayBatch(hist=np.zeros((n, 1, 1)), slate=slate, reward=slate[:, 0].astype(float),
                           next_hist=np.zeros((n, 1, 1)), next_pool=slate.copy(),
                           next_mask=np.ones((n, 1), dtype=bool), terminal=np.zeros(n, dtype=bool))

    def _memory(self, capacity):
        return ReplayMemory(capacity, (1, 1), 1, 1)

    def test_fifo_eviction_window(self):
        mem = self._memory(100)
        for i in range(1, 151, 10):
            mem.add(self._rows(range(i, i + 10)))
        assert len(mem) == 100
        assert mem.items().slate[:, 0].tolist() == list(range(51, 151))

    def test_more_rows_than_capacity_keep_the_newest(self):
        mem = self._memory(4)
        mem.add(self._rows([1, 2, 3]))
        mem.add(self._rows(range(4, 11)))
        assert mem.items().reward.tolist() == [7.0, 8.0, 9.0, 10.0]

    def test_sampling_deterministic(self):
        mem = self._memory(10)
        mem.add(self._rows(range(10)))
        a = mem.sample(5, np.random.default_rng(3))
        b = mem.sample(5, np.random.default_rng(3))
        assert a.slate.tolist() == b.slate.tolist()
        # the same draws index the rows as a list of transitions would
        idx = np.random.default_rng(3).integers(0, 10, size=5)
        assert a.slate[:, 0].tolist() == idx.tolist()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self._memory(5).sample(1, np.random.default_rng(0))


class TestComputeTarget:
    def _setup(self):
        catalog = synth_catalog(6, 2, seed=2)
        rng = np.random.default_rng(3)
        qnet = init_cascade_net(2, 3, 2, 4, 2, rng)
        return catalog, qnet

    def test_gamma_zero(self):
        catalog, qnet = self._setup()
        y = compute_target([1.5], [np.zeros((2, 3))], *pad_pools([(1, 2, 3)]), qnet, catalog, gamma=0.0)
        assert y.shape == (1,)
        assert y[0] == pytest.approx(1.5)

    def test_terminal(self):
        catalog, qnet = self._setup()
        y = compute_target([-0.7], [np.zeros((2, 3))], *pad_pools([(1, 2, 3)]), qnet, catalog,
                           gamma=0.9, terminal=[True])
        assert y[0] == pytest.approx(-0.7)

    def test_hand_built_deterministic_mdp(self):
        # one-unit heads on an all-positive catalog: every pre-activation is >= 0, where
        # the ELU is the identity, so Q^j is the plain sum of state and prefix feature
        # coordinates and the bootstrap is hand-computable
        from slatesim.data import ItemCatalog
        from slatesim.nets import CascadeQNet, PositionWeightParams, ScorerParams
        catalog = ItemCatalog([(1, [1.0]), (2, [2.0]), (3, [4.0])])
        d, m, n, k = 1, 2, 1, 2
        pw = PositionWeightParams(W=np.zeros((m, n)), B=np.zeros((d, n)))
        heads = [ScorerParams(V=np.ones((1, d * n + d * j)), b=np.zeros(1), v=np.ones(1))
                 for j in (1, 2)]
        qnet = CascadeQNet(pw=pw, heads=heads)
        # embedded state is 0 (zero weights); Q^2(s, a1, a2) = f(a1) + f(a2)
        # greedy cascade over pool {1,2,3}: picks 3 then 2, value 6
        y = compute_target([0.5], [np.zeros((1, 2))], *pad_pools([(1, 2, 3)]), qnet, catalog, gamma=0.5)
        assert y[0] == pytest.approx(0.5 + 0.5 * 6.0)


class TestCascadeBatch:
    def _random_case(self, n_states=1000, k=3):
        catalog = synth_catalog(20, 3, seed=31)
        rng = np.random.default_rng(32)
        qnet = init_cascade_net(3, 4, 2, 6, k, rng)
        hists = [rng.standard_normal((3, 4)) for _ in range(n_states)]
        pools = []
        for _ in range(n_states):
            pool = list(rng.choice(catalog.item_ids, size=int(rng.integers(k, 13)), replace=False))
            if rng.random() < 0.3:  # repeat some ids, in any order
                pool += list(rng.choice(pool, size=int(rng.integers(1, 4))))
            rng.shuffle(pool)
            pools.append(tuple(int(i) for i in pool))
        return catalog, qnet, hists, pools

    def test_matches_cascade_plan_on_random_states(self):
        # ragged pools, duplicate ids and pools of exactly k items, all in one batch
        catalog, qnet, hists, pools = self._random_case()
        assert min(len(set(p)) for p in pools) == qnet.k
        assert any(len(set(p)) != len(p) for p in pools)
        S = np.stack([embed_history(h, qnet.pw) for h in hists])
        slates, values = cascade_batch(qnet, S, *pad_pools(pools), catalog)
        assert slates.shape == values.shape == (len(hists), qnet.k)
        for row, (h, pool) in enumerate(zip(hists, pools)):
            oracle_slate, oracle_values = cascade_plan(
                net_qeval(qnet, embed_history(h, qnet.pw), catalog), pool, qnet.k)
            assert slates[row].tolist() == oracle_slate
            assert np.max(np.abs(values[row] - oracle_values)) <= 1e-12

    def test_tied_features_resolve_to_lowest_id(self):
        # items 2, 3 and 5 share features; unit heads on a zero state and non-negative
        # features keep every pre-activation >= 0, where the ELU is the identity, so
        # Q^j is the exact sum of the prefix features and the scores tie exactly
        from slatesim.data import ItemCatalog
        from slatesim.nets import CascadeQNet, PositionWeightParams, ScorerParams
        catalog = ItemCatalog([(1, [1.0, 0.0]), (2, [2.0, 1.0]), (3, [2.0, 1.0]),
                               (4, [0.0, 1.0]), (5, [2.0, 1.0])])
        pw = PositionWeightParams(W=np.zeros((2, 1)), B=np.zeros((2, 1)))
        heads = [ScorerParams(V=np.ones((1, 2 + 2 * j)), b=np.zeros(1), v=np.ones(1))
                 for j in (1, 2, 3)]
        qnet = CascadeQNet(pw=pw, heads=heads)
        pools = [(5, 4, 3, 1, 2), (4, 5, 1, 3), (1, 2, 3)]
        slates, values = cascade_batch(qnet, np.zeros((3, 2)), *pad_pools(pools), catalog)
        assert slates.tolist() == [[2, 3, 5], [3, 5, 1], [2, 3, 1]]
        assert values.tolist() == [[3.0, 6.0, 9.0], [3.0, 6.0, 7.0], [3.0, 6.0, 7.0]]
        for row, pool in enumerate(pools):
            assert cascade_plan(net_qeval(qnet, np.zeros(2), catalog), pool, 3)[0] == \
                slates[row].tolist()

    @pytest.mark.parametrize("value", [-1e308, np.nan], ids=["overflow", "nan"])
    def test_non_finite_choice_raises(self, value):
        # a first-maximum argmax over all -inf (or NaN) scores picks column 0,
        # which may hold a taken or padded id
        catalog, qnet, hists, pools = self._random_case(n_states=4)
        S = np.stack([embed_history(h, qnet.pw) for h in hists])
        message = "position 2 is not finite in 4 of 4 rows, the first row 0"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteQError, match=message):
            cascade_batch(break_head(qnet, 2, value), S, *pad_pools(pools), catalog)

    @pytest.mark.parametrize("pool", [(1, 2), (2, 1, 2, 1)])
    def test_pool_smaller_than_k(self, pool):
        catalog, qnet, _, _ = self._random_case(n_states=1)
        ids, mask = pad_pools([(1, 2, 3, 4), pool])
        with pytest.raises(ValueError, match="pool smaller than k: 2 < 3"):
            cascade_batch(qnet, np.zeros((2, qnet.pw.d * qnet.pw.n)), ids, mask, catalog)

    def test_pad_pools(self):
        ids, mask = pad_pools([(4, 2, 4), (3, 1, 2, 5)])
        assert ids.tolist() == [[2, 4, 0, 0], [1, 2, 3, 5]]
        assert mask.tolist() == [[True, True, False, False], [True, True, True, True]]

    def test_batched_targets_match_per_row_loop(self):
        catalog, qnet, hists, pools = self._random_case(n_states=200)
        rng = np.random.default_rng(33)
        rewards = rng.standard_normal(len(hists))
        terminal = rng.random(len(hists)) < 0.25
        assert terminal.any() and not terminal.all()
        y = compute_target(rewards, hists, *pad_pools(pools), qnet, catalog, 0.9, terminal)
        for row, (r, h, pool, done) in enumerate(zip(rewards, hists, pools, terminal)):
            if done:
                expected = r
            else:
                _, values = cascade_plan(net_qeval(qnet, embed_history(h, qnet.pw), catalog),
                                         pool, qnet.k)
                expected = r + 0.9 * values[-1]
            assert abs(y[row] - expected) <= 1e-12
        assert np.array_equal(compute_target(rewards, hists, *pad_pools(pools), qnet, catalog, 0.9,
                                             np.ones(len(hists), dtype=bool)), rewards)
        # padding wider than any pool changes no bit
        wide = compute_target(rewards, hists, *pad_pools(pools, 30), qnet, catalog, 0.9, terminal)
        assert np.array_equal(wide, y)

    def test_batched_additive_targets_match_per_row_loop(self):
        catalog, _, hists, pools = self._random_case(n_states=200)
        qnet = init_cascade_net(3, 4, 2, 6, 1, np.random.default_rng(34))
        rng = np.random.default_rng(35)
        rewards = rng.standard_normal(len(hists))
        terminal = rng.random(len(hists)) < 0.25
        y = additive_target(rewards, hists, *pad_pools(pools), qnet, catalog, 0.9, 3, terminal)
        wide = additive_target(rewards, hists, *pad_pools(pools, 30), qnet, catalog, 0.9, 3, terminal)
        assert np.array_equal(wide, y)
        for row, (r, h, pool, done) in enumerate(zip(rewards, hists, pools, terminal)):
            expected = r
            if not done:
                ids = tuple(sorted(set(pool)))
                vals = net_qeval(qnet, embed_history(h, qnet.pw), catalog)(1, (), ids)
                expected = r + 0.9 * np.sort(vals)[::-1][:3].sum()
            assert abs(y[row] - expected) <= 1e-12


class TestPolicies:
    def _setup(self):
        catalog = synth_catalog(12, 4, seed=4)
        user = make_ground_truth_user(catalog, (3, 2, 6), seed=5)
        return catalog, user

    def test_greedy_whole_pool_when_k_equals_pool(self):
        catalog, user = self._setup()
        hist = np.zeros((4, 3))
        pool = (3, 1, 7)
        slate = one_state(greedy_user_model_policy, user, hist, pool, 3, catalog)
        assert sorted(slate) == sorted(pool)

    def test_greedy_matches_sort_oracle(self):
        catalog, user = self._setup()
        from slatesim.nets import head_scores
        rng = np.random.default_rng(6)
        hist = np.zeros((4, 3))
        for _ in range(100):
            pool = tuple(rng.choice(catalog.item_ids, size=8, replace=False))
            slate = one_state(greedy_user_model_policy, user, hist, pool, 3, catalog)
            s = embed_history(hist, user.alpha.pw)
            ids = sorted(set(int(i) for i in pool))
            logits = head_scores(user.alpha.head, s, catalog.feature_matrix(ids))
            oracle = [x for _, x in sorted(zip(-logits, ids))][:3]
            assert slate == oracle

    def test_greedy_ranking_by_decreasing_logits(self):
        # logits strictly decreasing in id => slate is the lowest ids in order
        catalog, user = self._setup()
        from slatesim import nets
        hist = np.zeros((4, 3))
        s = embed_history(hist, user.alpha.pw)
        logits = nets.head_scores(user.alpha.head, s, catalog.feature_matrix(catalog.item_ids))
        order = np.argsort(-logits, kind="stable")
        expected = [catalog.item_ids[i] for i in order[:3]]
        assert one_state(greedy_user_model_policy, user, hist, catalog.item_ids, 3, catalog) == expected

    def test_additive_matches_subset_enumeration(self):
        # top-k of a separable objective is the exact argmax over all C(6,2) subsets
        catalog = synth_catalog(6, 3, seed=7)
        rng = np.random.default_rng(8)
        qnet = init_cascade_net(3, 3, 2, 5, 1, rng)
        hist = np.zeros((3, 3))
        pool = catalog.item_ids
        s = embed_history(hist, qnet.pw)
        single = dict(zip(pool, net_qeval(qnet, s, catalog)(1, (), pool)))
        best_pair = max(itertools.combinations(pool, 2),
                        key=lambda pair: single[pair[0]] + single[pair[1]])
        slate = one_state(additive_q_policy, qnet, hist, pool, 2, catalog)
        assert set(slate) == set(best_pair)

    def test_additive_is_pool_order_invariant(self):
        catalog = synth_catalog(9, 3, seed=9)
        qnet = init_cascade_net(3, 3, 2, 5, 1, np.random.default_rng(10))
        hist = np.zeros((3, 3))
        a = one_state(additive_q_policy, qnet, hist, (1, 2, 3, 4, 5), 3, catalog)
        b = one_state(additive_q_policy, qnet, hist, (5, 3, 1, 4, 2), 3, catalog)
        assert a == b

    @pytest.mark.parametrize("policy_fn", [greedy_user_model_policy, additive_q_policy])
    def test_batched_top_k_matches_rows_alone(self, policy_fn):
        # ragged pools (padding), repeated and shuffled ids: each row of one
        # batched call is the slate that row gets alone
        catalog, user = self._setup()
        model = user if policy_fn is greedy_user_model_policy else \
            init_cascade_net(4, 3, 2, 5, 1, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        hists = rng.standard_normal((40, 4, 3))
        pools = []
        for _ in range(40):
            pool = list(rng.choice(catalog.item_ids, size=rng.integers(3, 12), replace=False))
            pools.append(tuple(pool + pool[:2]) if rng.random() < 0.3 else tuple(pool))
        batch = policy_fn(model, hists, pools, 3, catalog)
        assert batch.shape == (40, 3)
        for row, h, pool in zip(batch, hists, pools):
            assert row.tolist() == one_state(policy_fn, model, h, pool, 3, catalog)
        with pytest.raises(ValueError, match="pool smaller than k"):
            policy_fn(model, hists[:2], [pools[0], (1, 2, 2)], 3, catalog)

    def test_k1_additive_equals_cascade(self):
        catalog = synth_catalog(7, 3, seed=11)
        qnet = init_cascade_net(3, 3, 2, 5, 1, np.random.default_rng(12))
        hist = np.zeros((3, 3))
        pool = catalog.item_ids
        assert one_state(additive_q_policy, qnet, hist, pool, 1, catalog) == \
            cascade_slate(qnet, hist, pool, catalog)

    def test_policy_handles_validate(self):
        with pytest.raises(ValueError, match="needs a qnet"):
            PolicyHandle(PolicyKind.CDQN)
        with pytest.raises(ValueError, match="user model"):
            PolicyHandle(PolicyKind.GREEDY_USER_MODEL)


class TestTrainCdqn:
    def _factory(self, k=3, K=15, horizon=4, seed=0):
        catalog = synth_catalog(K, 4, seed=13)
        user = make_ground_truth_user(catalog, (3, 2, 6), seed=14, reward_scale=2.0)
        env = SlateEnv(catalog, EnvConfig(k=k, pool_size=8, horizon=horizon))
        return make_env_factory(env, user, seed), env, user, catalog

    def test_epsilon_one_matches_uniform_random(self, monkeypatch):
        # with epsilon = 1 every slate the trainer plays is a uniform random
        # k-subset of the pool, at step 0 the whole catalog
        catalog = synth_catalog(8, 4, seed=13)
        user = make_ground_truth_user(catalog, (3, 2, 6), seed=14, reward_scale=2.0)
        env = SlateEnv(catalog, EnvConfig(k=2, pool_size=8, horizon=1))
        factory = make_env_factory(env, user, 0)
        seen = []

        def recording_step(*args):
            slates, chosen, rewards = step(*args)
            seen.extend(slates)
            return slates, chosen, rewards

        monkeypatch.setattr(agent, "step", recording_step)
        cfg = CDQNConfig(epsilon=1.0, iterations=50, horizon=1, batch_users=20,
                         minibatch=4, lr=0.0, seed=5, n=2, hidden=4)
        train_cdqn(factory, cfg)
        assert len(seen) == 1000
        freq = np.zeros(9)
        for slate in seen:
            for i in slate:
                freq[i] += 1
        rates = freq[1:] / len(seen)
        assert np.all(np.abs(rates - 2.0 / 8.0) <= 0.05)

    def test_replay_contents_fifo_in_training(self):
        factory, *_ = self._factory(horizon=2)
        cfg = CDQNConfig(iterations=2, horizon=2, batch_users=3, minibatch=4,
                         lr=0.01, seed=6, n=2, hidden=4, capacity=5)
        qnet = train_cdqn(factory, cfg)
        assert qnet.k == 3

    @pytest.mark.parametrize("train", [train_cdqn, train_additive_q], ids=lambda f: f.__name__)
    def test_training_deterministic(self, train):
        factory, *_ = self._factory()
        cfg = CDQNConfig(iterations=3, horizon=4, batch_users=4, minibatch=8,
                         lr=0.05, seed=7, n=2, hidden=4)
        q1 = train(factory, cfg)
        q2 = train(factory, cfg)
        for name, t in named_tensors(q1).items():
            assert np.array_equal(t, named_tensors(q2)[name])

    def test_no_clicked_items_in_greedy_slates(self):
        factory, env, user, catalog = self._factory()
        cfg = CDQNConfig(iterations=3, horizon=4, batch_users=4, minibatch=8,
                         lr=0.05, seed=8, n=2, hidden=4)
        qnet = train_cdqn(factory, cfg)
        keys = EpisodeKeys([21], 4)
        hists, clicked, pools = reset(env, user, keys)
        for t in range(4):
            slate = cascade_slate(qnet, hists[0], pools[0], catalog)
            assert not (set(slate) & clicked[0])
            step(env, user, t, keys, hists, clicked, pools, [slate])

    def test_non_finite_target_is_divergence(self, monkeypatch):
        # the TD target's cascade meets an overflowing head at the first update
        factory, *_ = self._factory()
        init = agent.nets.init_cascade_net
        monkeypatch.setattr(agent.nets, "init_cascade_net",
                            lambda *args: break_head(init(*args), 2, -1e308))
        cfg = CDQNConfig(iterations=2, horizon=4, batch_users=4, minibatch=8, lr=0.01, seed=7,
                         n=2, hidden=4)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as caught:
            train_cdqn(factory, cfg)
        assert caught.value.iteration == 0
        assert isinstance(caught.value.__cause__, NonFiniteQError)

    @pytest.mark.parametrize("train", [train_cdqn, train_additive_q], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("other", ["env", "user"])
    def test_one_env_per_iteration(self, train, other):
        # the sessions of an iteration step in one env: a factory that changes
        # the env or the user past episode 0 is refused, naming the episode
        factory, env, user, catalog = self._factory()
        swapped = (SlateEnv(catalog, env.config) if other == "env"
                   else make_ground_truth_user(catalog, (3, 2, 6), seed=14, reward_scale=2.0))

        def drifting(episode):
            env_i, user_i, seed = factory(episode)
            if episode == 6:
                return (swapped, user_i, seed) if other == "env" else (env_i, swapped, seed)
            return env_i, user_i, seed

        cfg = CDQNConfig(iterations=3, horizon=2, batch_users=4, minibatch=4, lr=0.01, seed=9,
                         n=2, hidden=4)
        with pytest.raises(ValueError, match=re.escape("env_factory(6)")):
            train(drifting, cfg)

    def test_additive_training_runs(self):
        factory, env, user, catalog = self._factory()
        cfg = CDQNConfig(iterations=3, horizon=4, batch_users=4, minibatch=8,
                         lr=0.01, seed=9, n=2, hidden=4)
        qnet = train_additive_q(factory, cfg)
        assert qnet.k == 1
        hist = np.zeros((4, 3))
        slate = one_state(additive_q_policy, qnet, hist, catalog.item_ids, 3, catalog)
        assert len(slate) == 3


class TestConstraintDiagnostic:
    def test_zero_networks_give_zero_pairs(self):
        catalog = synth_catalog(8, 3, seed=15)
        qnet = init_cascade_net(3, 3, 2, 4, 3, np.random.default_rng(16))
        for j in range(3):
            qnet.heads[j].v[:] = 0.0
        rows = constraint_diagnostic(qnet, [np.zeros((3, 3))] * 4, [catalog.item_ids] * 4,
                                     catalog)
        assert len(rows) == 12
        assert all(qj == 0.0 and qk == 0.0 for _, _, qj, qk in rows)

    def test_row_count(self):
        catalog = synth_catalog(8, 3, seed=17)
        qnet = init_cascade_net(3, 3, 2, 4, 3, np.random.default_rng(18))
        hists = [np.random.default_rng(i).standard_normal((3, 3)) for i in range(7)]
        rows = constraint_diagnostic(qnet, hists, [catalog.item_ids] * 7, catalog)
        assert len(rows) == 7 * 3


class TestPolicyCheckpoint:
    def test_round_trip(self, tmp_path):
        qnet = init_cascade_net(3, 4, 2, 5, 3, np.random.default_rng(19))
        path = tmp_path / "policy.ckpt"
        save_policy(path, qnet, extra_meta={"reward_mode": "learned"})
        loaded = load_policy(path)
        assert loaded.k == 3
        for name, t in named_tensors(qnet).items():
            assert np.array_equal(t, named_tensors(loaded)[name])
