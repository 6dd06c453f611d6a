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
    random_slate,
    save_policy,
    train_cdqn,
    TrainingDivergedError,
)
from slatesim.data import NON_CLICK_ID, ItemCatalog, synth_catalog
from slatesim import agent
from slatesim.env import EnvConfig, EpisodeKeys, SlateEnv, make_ground_truth_user, reset, rollout, step
from slatesim.nets import (CascadeQNet, PositionWeightParams, ScoreBuffers, ScorerParams, embed_history,
                            head_scores, init_cascade_net, named_tensors)

from cascade_oracle import oracle_cascade_plan, oracle_net_qeval
from pools import assert_padded, pad_pools


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
    return policy_fn(model, hist[None], pad_pools([pool]), k, catalog)[0].tolist()


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
        assert cascade_plan(qeval, items, 1)[0] == [best]

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
        assert cascade_plan(table_qeval([vals]), items, 1)[0] == [2]

    def test_pool_smaller_than_k(self):
        with pytest.raises(ValueError, match="pool smaller"):
            cascade_plan(table_qeval([{}]), (1, 2), 3)[0]


def pool_forms(rng, catalog, k):
    """One random pool of at least k distinct ids in one of the forms a caller passes:
    ragged, sometimes with repeats, shuffled, as a list, tuple or integer array."""
    ids = [int(i) for i in catalog.item_ids]
    pool = list(rng.choice(ids, size=int(rng.integers(k, len(ids) + 1)), replace=False))
    if rng.random() < 0.3:
        pool += list(rng.choice(pool, size=int(rng.integers(1, 4))))
    rng.shuffle(pool)
    form = int(rng.integers(0, 5))
    if form == 0:
        return [int(i) for i in pool]
    if form == 1:
        return tuple(int(i) for i in pool)
    if form == 2:
        return pool  # numpy integer scalars
    return np.array(pool, dtype=np.int64 if form == 3 else np.int32)


class TestPerRowCascadeOracle:
    """net_qeval scores each head inline; the head_scores evaluator it replaced is the oracle."""

    def _assert_same_as_oracle(self, qnet, state, pool, catalog):
        counter, oracle_counter = EvalCounter(), EvalCounter()
        slate, values = cascade_plan(net_qeval(qnet, state, catalog), pool, qnet.k, counter)
        oracle_qeval = oracle_net_qeval(qnet, state, catalog)
        oracle_slate, oracle_values = oracle_cascade_plan(oracle_qeval, pool, qnet.k, oracle_counter)
        assert slate == oracle_slate
        assert np.array(values).tobytes() == np.array(oracle_values).tobytes()
        assert counter.count == oracle_counter.count
        # every head's scores of the candidates left at its position, bit for bit
        qeval, remaining = net_qeval(qnet, state, catalog), sorted(int(i) for i in set(pool))
        for j in range(1, qnet.k + 1):
            prefix = tuple(oracle_slate[:j - 1])
            got, want = qeval(j, prefix, tuple(remaining)), oracle_qeval(j, prefix, tuple(remaining))
            assert got.tobytes() == want.tobytes()
            remaining.remove(oracle_slate[j - 1])
        return slate, values

    def test_byte_equal_to_the_head_scores_oracle_on_random_states(self):
        states = 0
        for trial in range(24):
            rng = np.random.default_rng(700 + trial)
            d, m, n, hidden, k = (int(rng.integers(1, hi)) for hi in (7, 6, 5, 13, 6))
            catalog = synth_catalog(int(rng.integers(k, 31)), d, seed=trial)
            qnet = init_cascade_net(d, m, n, hidden, k, rng)
            for _ in range(50):
                hist = rng.standard_normal((d, m)) * rng.choice([0.1, 1.0, 5.0])
                pool = pool_forms(rng, catalog, k)
                slate, _ = self._assert_same_as_oracle(qnet, embed_history(hist, qnet.pw), pool, catalog)
                # the trainer's act: one embedded state, then the same cascade
                assert cascade_slate(qnet, embed_history(hist, qnet.pw), pool, catalog) == slate
                states += 1
        assert states >= 1000

    def test_exact_ties_resolve_to_the_lowest_id(self):
        # small integer features and weights with zero biases keep every pre-activation an
        # exact non-negative integer, where the ELU is the identity: scores tie exactly
        ties = 0
        for trial in range(40):
            rng = np.random.default_rng(800 + trial)
            d, k, hidden = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            size = int(rng.integers(k, 13))
            catalog = ItemCatalog([(i, rng.integers(0, 3, size=d)) for i in range(1, size + 1)], d=d)
            dn = int(rng.integers(1, 5))
            heads = [ScorerParams(V=rng.integers(0, 2, size=(hidden, dn + d * j)).astype(float),
                                  b=np.zeros(hidden), v=rng.integers(1, 3, size=hidden).astype(float))
                     for j in range(1, k + 1)]
            qnet = CascadeQNet(pw=PositionWeightParams(W=np.zeros((2, dn)), B=np.zeros((1, dn))),
                               heads=heads)
            for _ in range(10):
                state = rng.integers(0, 3, size=dn).astype(float)
                pool = pool_forms(rng, catalog, k)
                slate, _ = self._assert_same_as_oracle(qnet, state, pool, catalog)
                qeval, remaining = net_qeval(qnet, state, catalog), sorted(int(i) for i in set(pool))
                for j, chosen in enumerate(slate, start=1):
                    vals = qeval(j, tuple(slate[:j - 1]), tuple(remaining))
                    tied = [i for i, v in zip(remaining, vals) if v == vals.max()]
                    assert chosen == min(tied)
                    ties += len(tied) > 1
                    remaining.remove(chosen)
        assert ties > 100

    def test_overflowing_head_raises_the_oracles_error(self):
        rng = np.random.default_rng(900)
        catalog = synth_catalog(12, 3, seed=9)
        qnet = break_head(init_cascade_net(3, 4, 2, 6, 3, rng), 2, -1e308)
        for _ in range(20):
            state, pool = embed_history(rng.standard_normal((3, 4)), qnet.pw), pool_forms(rng, catalog, 3)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteQError) as oracle_error:
                    oracle_cascade_plan(oracle_net_qeval(qnet, state, catalog), pool, 3)
                with pytest.raises(NonFiniteQError) as error:
                    cascade_plan(net_qeval(qnet, state, catalog), pool, 3)
            assert str(error.value) == str(oracle_error.value)
            assert str(error.value) == ("the chosen Q value of position 2 is not finite in 1 of 1 rows, "
                                        "the first row 0")

    @pytest.mark.parametrize("state_len, d", [(5, 3), (7, 3), (6, 2), (0, 3)])
    def test_shape_mismatch_is_refused(self, state_len, d):
        # the net's state is 6 wide and its items 3; the oracle refuses the same inputs
        qnet = init_cascade_net(3, 4, 2, 6, 3, np.random.default_rng(901))
        catalog, pool = synth_catalog(8, d, seed=3), (1, 2, 3, 4)
        with pytest.raises(ValueError):
            oracle_cascade_plan(oracle_net_qeval(qnet, np.zeros(state_len), catalog), pool, 3)
        with pytest.raises(ValueError, match="incompatible"):
            cascade_plan(net_qeval(qnet, np.zeros(state_len), catalog), pool, 3)


class TestReplayMemory:
    def _rows(self, ids):
        """One transition per id i: slate (i,), reward i, next pool (i,)."""
        n = len(ids)
        slate = np.array(ids, dtype=int)[:, None]
        return ReplayBatch(hist=np.zeros((n, 1, 1)), slate=slate, reward=slate[:, 0].astype(float),
                           next_hist=np.zeros((n, 1, 1)), next_pool=slate.copy(), terminal=np.zeros(n, dtype=bool))

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
        y = compute_target([1.5], [np.zeros((2, 3))], pad_pools([(1, 2, 3)]), qnet, catalog, gamma=0.0,
                           terminal=[False])
        assert y.shape == (1,)
        assert y[0] == pytest.approx(1.5)

    def test_terminal(self):
        catalog, qnet = self._setup()
        y = compute_target([-0.7], [np.zeros((2, 3))], pad_pools([(1, 2, 3)]), qnet, catalog,
                           gamma=0.9, terminal=[True])
        assert y[0] == pytest.approx(-0.7)

    def test_hand_built_deterministic_mdp(self):
        # one-unit heads on an all-positive catalog: every pre-activation is >= 0, where
        # the ELU is the identity, so Q^j is the plain sum of state and prefix feature
        # coordinates and the bootstrap is hand-computable
        from slatesim.data import ItemCatalog
        from slatesim.nets import CascadeQNet, PositionWeightParams, ScorerParams
        catalog = ItemCatalog([(1, [1.0]), (2, [2.0]), (3, [4.0])], d=1)
        d, m, n, k = 1, 2, 1, 2
        pw = PositionWeightParams(W=np.zeros((m, n)), B=np.zeros((d, n)))
        heads = [ScorerParams(V=np.ones((1, d * n + d * j)), b=np.zeros(1), v=np.ones(1))
                 for j in (1, 2)]
        qnet = CascadeQNet(pw=pw, heads=heads)
        # embedded state is 0 (zero weights); Q^2(s, a1, a2) = f(a1) + f(a2)
        # greedy cascade over pool {1,2,3}: picks 3 then 2, value 6
        y = compute_target([0.5], [np.zeros((1, 2))], pad_pools([(1, 2, 3)]), qnet, catalog, gamma=0.5,
                           terminal=[False])
        assert y[0] == pytest.approx(0.5 + 0.5 * 6.0)


    def test_replay_minibatch_rows_equal_their_targets_alone(self):
        # a target does not depend on the rows that share its minibatch, bit for bit
        catalog = synth_catalog(30, 8, seed=5)
        user = make_ground_truth_user(catalog, (4, 3, 16), seed=6, reward_scale=2.0)
        env = SlateEnv(catalog, EnvConfig(k=4, pool_size=10, horizon=5))
        qnet = init_cascade_net(8, 4, 3, 16, 4, np.random.default_rng(7))
        memory = ReplayMemory(200, (8, 4), 4, 10)
        keys = EpisodeKeys(range(10), 5)
        hists, avail, pools = reset(env, user, keys)
        for t in range(5):
            before, slates = hists.copy(), pools[:, :4].copy()
            _, _, rewards = step(env, user, t, keys, hists, avail, pools, slates)
            memory.add(ReplayBatch(before, slates, rewards, hists, pools, np.full(10, t == 4)))
        batch = memory.sample(32, np.random.default_rng(8))
        assert not batch.terminal.all()
        y = compute_target(batch.reward, batch.next_hist, batch.next_pool, qnet, catalog, 0.9,
                           batch.terminal)
        for i in range(32):
            row = ReplayBatch(*(a[i:i + 1] for a in batch))
            alone = compute_target(row.reward, row.next_hist, row.next_pool, qnet, catalog, 0.9,
                                   row.terminal)
            assert y[i:i + 1].tobytes() == alone.tobytes()


class TestCascadeBatch:
    def _random_case(self, n_states=1000, k=3, d=3, m=4, n=2, hidden=6, catalog_size=20, max_pool=12):
        catalog = synth_catalog(catalog_size, d, seed=31)
        rng = np.random.default_rng(32)
        qnet = init_cascade_net(d, m, n, hidden, k, rng)
        hists = [rng.standard_normal((d, m)) for _ in range(n_states)]
        pools = []
        for _ in range(n_states):
            pool = list(rng.choice(catalog.item_ids, size=int(rng.integers(k, max_pool + 1)), replace=False))
            if rng.random() < 0.3:  # repeat some ids, in any order
                pool += list(rng.choice(pool, size=int(rng.integers(1, 4))))
            rng.shuffle(pool)
            pools.append(tuple(int(i) for i in pool))
        return catalog, qnet, hists, pools

    @pytest.mark.parametrize("shapes", [
        {},
        # the README world's shapes, with the pool widths of its training and wide-catalog worlds
        dict(k=5, d=8, m=5, n=4, hidden=16, catalog_size=50, max_pool=20),
        dict(k=5, d=8, m=5, n=4, hidden=16, catalog_size=1000, max_pool=50),
    ], ids=["small", "readme-pool-20", "readme-pool-50"])
    def test_matches_cascade_plan_on_random_states(self, shapes):
        # ragged pools, duplicate ids and pools of exactly k items, all in one batch
        catalog, qnet, hists, pools = self._random_case(**shapes)
        assert min(len(set(p)) for p in pools) == qnet.k
        assert any(len(set(p)) != len(p) for p in pools)
        S = np.stack([embed_history(h, qnet.pw) for h in hists])
        slates, values = cascade_batch(qnet, S, pad_pools(pools), catalog)
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
                               (4, [0.0, 1.0]), (5, [2.0, 1.0])], d=2)
        pw = PositionWeightParams(W=np.zeros((2, 1)), B=np.zeros((2, 1)))
        heads = [ScorerParams(V=np.ones((1, 2 + 2 * j)), b=np.zeros(1), v=np.ones(1))
                 for j in (1, 2, 3)]
        qnet = CascadeQNet(pw=pw, heads=heads)
        pools = [(5, 4, 3, 1, 2), (4, 5, 1, 3), (1, 2, 3)]
        slates, values = cascade_batch(qnet, np.zeros((3, 2)), pad_pools(pools), catalog)
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
            cascade_batch(break_head(qnet, 2, value), S, pad_pools(pools), catalog)
        # the one-state cascade the trainer acts with raises the same error
        for h, pool in zip(hists, pools):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                    NonFiniteQError, match="position 2 is not finite in 1 of 1 rows, the first row 0"):
                cascade_slate(qnet, embed_history(h, qnet.pw), pool, catalog)

    @pytest.mark.parametrize("pool", [(1, 2), (2, 1, 2, 1)])
    def test_pool_smaller_than_k(self, pool):
        catalog, qnet, _, _ = self._random_case(n_states=1)
        S = np.zeros((2, qnet.pw.d * qnet.pw.n))
        with pytest.raises(ValueError, match="pool smaller than k: 2 < 3"):
            cascade_batch(qnet, S, pad_pools([(1, 2, 3, 4), pool]), catalog)

    def test_pad_pools(self):
        ids = pad_pools([(4, 2, 4), (3, 1, 2, 5)], 6)
        assert ids.tolist() == [[2, 4, 0, 0, 0, 0], [1, 2, 3, 5, 0, 0]]
        assert_padded(ids)

    def test_batched_targets_match_per_row_loop(self):
        catalog, qnet, hists, pools = self._random_case(n_states=200)
        rng = np.random.default_rng(33)
        rewards = rng.standard_normal(len(hists))
        terminal = rng.random(len(hists)) < 0.25
        assert terminal.any() and not terminal.all()
        y = compute_target(rewards, hists, pad_pools(pools), qnet, catalog, 0.9, terminal)
        for row, (r, h, pool, done) in enumerate(zip(rewards, hists, pools, terminal)):
            if done:
                expected = r
            else:
                _, values = cascade_plan(net_qeval(qnet, embed_history(h, qnet.pw), catalog),
                                         pool, qnet.k)
                expected = r + 0.9 * values[-1]
            assert abs(y[row] - expected) <= 1e-12
        assert np.array_equal(compute_target(rewards, hists, pad_pools(pools), qnet, catalog, 0.9,
                                             np.ones(len(hists), dtype=bool)), rewards)
        # padding wider than any pool changes no bit
        wide = compute_target(rewards, hists, pad_pools(pools, 30), qnet, catalog, 0.9, terminal)
        assert np.array_equal(wide, y)

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

    def test_batched_top_k_matches_rows_alone(self):
        # ragged pools (padding), repeated and shuffled ids: each row of one
        # batched call is the slate that row gets alone
        catalog, user = self._setup()
        rng = np.random.default_rng(14)
        hists = rng.standard_normal((40, 4, 3))
        pools = []
        for _ in range(40):
            pool = list(rng.choice(catalog.item_ids, size=rng.integers(3, 12), replace=False))
            pools.append(tuple(pool + pool[:2]) if rng.random() < 0.3 else tuple(pool))
        batch = greedy_user_model_policy(user, hists, pad_pools(pools), 3, catalog)
        assert batch.shape == (40, 3)
        for row, h, pool in zip(batch, hists, pools):
            assert row.tolist() == one_state(greedy_user_model_policy, user, h, pool, 3, catalog)
        with pytest.raises(ValueError, match="pool smaller than k"):
            greedy_user_model_policy(user, hists[:2], pad_pools([pools[0], (1, 2, 2)]), 3, catalog)

    def test_policy_handles_validate(self):
        with pytest.raises(ValueError, match="needs a qnet"):
            PolicyHandle(PolicyKind.CDQN)
        with pytest.raises(ValueError, match="user model"):
            PolicyHandle(PolicyKind.GREEDY_USER_MODEL)


class TestKeptScoreBuffers:
    """A scoring policy's kept work arrays give every bit a fresh call gives, whatever ran
    in them before, and spare the call its (B, P, hidden) allocations."""

    def _world(self, k, seed):
        catalog = synth_catalog(40, 3, seed=41)
        rng = np.random.default_rng(seed)
        qnet = init_cascade_net(3, 4, 2, 6, k, rng)
        return catalog, rng, qnet, make_ground_truth_user(catalog, (4, 2, 6), seed=44)

    def _calls(self, k, B, rng, catalog):
        """(hists, pools) of B ragged rows per call, padded past the widest real pool,
        for pool widths that shrink, grow and repeat."""
        calls = []
        for width in (max(w, k) for w in (12, 6, 20, 12, 12)):
            pools = [rng.choice(catalog.item_ids, size=int(rng.integers(k, width + 1)), replace=False)
                     for _ in range(B - 1)]
            pools.insert(int(rng.integers(B)), rng.choice(catalog.item_ids, size=width, replace=False))
            calls.append((rng.standard_normal((B, 3, 4)), pad_pools(pools, width + 2)))
        return calls

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("B", [1, 7, 80])
    def test_cascade_batch_equals_fresh_calls(self, B, k):
        catalog, rng, qnet, _ = self._world(k, 42 + k)
        work, pairs = ScoreBuffers(), []
        for hists, pools in self._calls(k, B, rng, catalog):
            S = embed_history(hists, qnet.pw)
            slates, values = cascade_batch(qnet, S, pools, catalog, work)
            fresh_slates, fresh_values = cascade_batch(qnet, S, pools, catalog)
            assert np.array_equal(slates, fresh_slates)
            assert values.tobytes() == fresh_values.tobytes()
            pairs.append(work.pair)
        # a new width reallocates the pair; the same B and width reuse it
        assert pairs[1] is not pairs[0] and pairs[4] is pairs[3]

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("B", [1, 7, 80])
    @pytest.mark.parametrize("kind", [PolicyKind.CDQN, PolicyKind.GREEDY_USER_MODEL],
                             ids=lambda kind: kind.value)
    def test_policies_equal_fresh_calls(self, kind, B, k):
        catalog, rng, qnet, user = self._world(k, 45 + k)
        policy = make_policy(PolicyHandle(kind, qnet=qnet, user_model=user), catalog, k)
        fresh = {
            PolicyKind.CDQN: lambda hists, pools: cascade_batch(
                qnet, embed_history(hists, qnet.pw), pools, catalog)[0],
            PolicyKind.GREEDY_USER_MODEL: lambda hists, pools: greedy_user_model_policy(
                user, hists, pools, k, catalog),
        }[kind]
        for hists, pools in self._calls(k, B, rng, catalog):
            assert np.array_equal(policy(hists, pools, None), fresh(hists, pools))

    @pytest.mark.parametrize("value", [-1e308, np.nan], ids=["overflow", "nan"])
    def test_call_after_non_finite_error_equals_fresh_call(self, value):
        # the error leaves -inf or NaN in the kept arrays; the next call reads none of it
        catalog, rng, qnet, _ = self._world(3, 49)
        policy = make_policy(PolicyHandle(PolicyKind.CDQN, qnet=qnet), catalog, 3)
        work = ScoreBuffers()
        hists, pools = self._calls(3, 7, rng, catalog)[0]
        S = embed_history(hists, qnet.pw)
        head = qnet.heads[1]
        kept = [t.copy() for t in (head.V, head.b, head.v)]
        break_head(qnet, 2, value)
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (lambda: policy(hists, pools, None),
                         lambda: cascade_batch(qnet, S, pools, catalog, work)):
                with pytest.raises(NonFiniteQError, match="position 2"):
                    call()
        for t, before in zip((head.V, head.b, head.v), kept):
            t[:] = before
        fresh_slates, fresh_values = cascade_batch(qnet, S, pools, catalog)
        assert np.array_equal(policy(hists, pools, None), fresh_slates)
        slates, values = cascade_batch(qnet, S, pools, catalog, work)
        assert np.array_equal(slates, fresh_slates) and values.tobytes() == fresh_values.tobytes()

    @pytest.mark.parametrize("kind", [PolicyKind.CDQN, PolicyKind.GREEDY_USER_MODEL],
                             ids=lambda kind: kind.value)
    def test_second_call_peaks_below_one_score_block(self, kind, peak_alloc):
        # at B 80, P 50 and hidden 16 a fresh (B, P, hidden) pre-activation is 512,000 bytes; a
        # policy's second call at the same shape allocates none (each head's two of them before)
        B, P, hidden, k = 80, 50, 16, 5
        catalog = synth_catalog(200, 8, seed=50)
        rng = np.random.default_rng(51)
        handle = PolicyHandle(kind, qnet=init_cascade_net(8, 5, 4, hidden, k, rng),
                              user_model=make_ground_truth_user(catalog, (5, 4, hidden), seed=52))
        policy = make_policy(handle, catalog, k)
        hists = rng.standard_normal((B, 8, 5))
        pools = np.sort([rng.choice(catalog.item_ids, P, replace=False) for _ in range(B)], axis=1)
        first = policy(hists, pools, None)
        second, peak = peak_alloc(lambda: policy(hists, pools, None))
        assert np.array_equal(first, second)
        assert peak < B * P * hidden * 8


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

    @pytest.mark.parametrize("horizon", [9, 2])
    def test_a_horizon_other_than_the_envs_is_refused_before_any_step(self, monkeypatch, horizon):
        # the world rule (k items outlast the clicks) holds for the env's 5 steps: 9 steps once
        # exhausted the pool mid-run (EnvError), and 2 trained on cut episodes without a word
        catalog = synth_catalog(8, 4, 1)
        user = make_ground_truth_user(catalog, (3, 2, 6), seed=14, reward_scale=2.0)
        env = SlateEnv(catalog, EnvConfig(k=3, pool_size=8, horizon=5))

        def no_step(*args):
            raise AssertionError("env.step was called")

        monkeypatch.setattr(agent, "step", no_step)
        cfg = CDQNConfig(horizon=horizon, iterations=3, batch_users=4, minibatch=4, n=2, hidden=4)
        with pytest.raises(ValueError, match=f"^horizon {horizon} differs from the env's horizon 5$"):
            train_cdqn(make_env_factory(env, user, 0), cfg)

    def test_capacity_below_the_minibatch_is_refused(self):
        # such a memory never fills one minibatch: no SGD step would ever run
        with pytest.raises(ValueError, match="capacity must be >= minibatch, got 10 < 32"):
            CDQNConfig(capacity=10)
        assert CDQNConfig(capacity=32).capacity == 32

    def test_replay_contents_fifo_in_training(self):
        factory, *_ = self._factory(horizon=2)
        cfg = CDQNConfig(iterations=2, horizon=2, batch_users=3, minibatch=4,
                         lr=0.01, seed=6, n=2, hidden=4, capacity=5)
        qnet = train_cdqn(factory, cfg)
        assert qnet.k == 3

    def test_training_deterministic(self):
        factory, *_ = self._factory()
        cfg = CDQNConfig(iterations=3, horizon=4, batch_users=4, minibatch=8,
                         lr=0.05, seed=7, n=2, hidden=4)
        q1 = train_cdqn(factory, cfg)
        q2 = train_cdqn(factory, cfg)
        for name, t in named_tensors(q1).items():
            assert np.array_equal(t, named_tensors(q2)[name])

    def test_no_clicked_items_in_greedy_slates(self):
        factory, env, user, catalog = self._factory()
        cfg = CDQNConfig(iterations=3, horizon=4, batch_users=4, minibatch=8,
                         lr=0.05, seed=8, n=2, hidden=4)
        qnet = train_cdqn(factory, cfg)
        keys = EpisodeKeys([21], 4)
        hists, avail, pools = reset(env, user, keys)
        clicked = set()
        for t in range(4):
            slate = cascade_slate(qnet, embed_history(hists[0], qnet.pw),
                                  pools[0][pools[0] != NON_CLICK_ID], catalog)
            assert not (set(slate) & clicked)
            clicked.update(c for c in step(env, user, t, keys, hists, avail, pools, [slate])[1] if c)

    def _diverge(self, monkeypatch, epsilon):
        """Train on a net whose head 2 overflows; returns the error and the compute_target calls."""
        factory, *_ = self._factory()
        init = agent.nets.init_cascade_net
        monkeypatch.setattr(agent.nets, "init_cascade_net",
                            lambda *args: break_head(init(*args), 2, -1e308))
        targets = []
        real_target = agent.compute_target
        monkeypatch.setattr(agent, "compute_target", lambda *args: targets.append(1) or real_target(*args))
        cfg = CDQNConfig(iterations=2, horizon=4, batch_users=4, minibatch=8, lr=0.01, seed=7,
                         n=2, hidden=4, epsilon=epsilon)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as caught:
            train_cdqn(factory, cfg)
        return caught.value, len(targets)

    def test_non_finite_target_is_divergence(self, monkeypatch):
        # every session explores, so the TD target's cascade meets the overflowing head
        # first, at the first update
        error, targets = self._diverge(monkeypatch, epsilon=1.0)
        assert error.iteration == 0 and targets == 1
        assert isinstance(error.__cause__, NonFiniteQError)

    def test_non_finite_act_is_divergence(self, monkeypatch):
        # no session explores, so the act's cascade meets the overflowing head at the
        # first step, before any update
        error, targets = self._diverge(monkeypatch, epsilon=0.0)
        assert error.iteration == 0 and targets == 0
        assert isinstance(error.__cause__, NonFiniteQError)

    def test_spans_fire_once_per_update_and_greedy_row(self, count_calls):
        # calls counted the way the traced benchmark wraps them, so a span that stops
        # firing (or a caller that bound one early) fails here and not only in a traced run
        from slatesim import nets
        calls = count_calls({agent: ("compute_target", "cascade_slate", "cascade_plan", "random_slate"),
                             nets: ("td_value_and_grad", "sgd_step"), ReplayMemory: ("sample",)})
        factory, *_ = self._factory()
        iterations, horizon, users, minibatch = 3, 4, 4, 8
        cfg = CDQNConfig(iterations=iterations, horizon=horizon, batch_users=users, minibatch=minibatch,
                         epsilon=0.3, lr=0.01, seed=12, n=2, hidden=4)
        stats = []
        train_cdqn(factory, cfg, on_iteration=lambda it, s: stats.append(s))
        # the replay holds (step + 1) * users rows after each step; an update needs a minibatch
        updates = sum((s + 1) * users >= minibatch for s in range(iterations * horizon))
        greedy = iterations * horizon * users - calls.pop("random_slate")
        assert stats[-1]["updates"] == updates and 0 < greedy < iterations * horizon * users
        assert calls == {"compute_target": updates, "td_value_and_grad": updates, "sgd_step": updates,
                         "sample": updates, "cascade_slate": greedy, "cascade_plan": greedy}

    def test_act_embeds_a_steps_greedy_sessions_in_one_call(self, monkeypatch):
        # the run of test_spans_fire_once_per_update_and_greedy_row; the env step, the TD
        # target and the loss embed their own histories, so embed_history calls made inside
        # them are not the act's
        from slatesim import nets
        events, inside = [], [0]

        def spy(owner, name, event=None, nests=False):
            original = getattr(owner, name)

            def wrapped(*args, **kwargs):
                if event and not inside[0]:
                    events.append(event)
                inside[0] += nests
                try:
                    return original(*args, **kwargs)
                finally:
                    inside[0] -= nests

            monkeypatch.setattr(owner, name, wrapped)

        spy(agent, "random_slate", "random")
        spy(nets, "embed_history", "embed")
        spy(agent, "step", "step", nests=True)
        spy(agent, "compute_target", nests=True)
        spy(nets, "td_value_and_grad", nests=True)
        factory, *_ = self._factory()
        iterations, horizon, users = 3, 4, 4
        train_cdqn(factory, CDQNConfig(iterations=iterations, horizon=horizon, batch_users=users, minibatch=8,
                                       epsilon=0.3, lr=0.01, seed=12, n=2, hidden=4))
        per_step, since = [], []  # per step: (greedy sessions, the act's embed_history calls)
        for event in events:
            if event == "step":
                per_step.append((users - since.count("random"), since.count("embed")))
                since = []
            else:
                since.append(event)
        assert len(per_step) == iterations * horizon
        assert any(greedy > 1 for greedy, _ in per_step)  # else once per row is once per step
        assert per_step == [(greedy, int(greedy > 0)) for greedy, _ in per_step]

class TestConstraintDiagnostic:
    def test_zero_networks_give_zero_pairs(self):
        catalog = synth_catalog(8, 3, seed=15)
        qnet = init_cascade_net(3, 3, 2, 4, 3, np.random.default_rng(16))
        for j in range(3):
            qnet.heads[j].v[:] = 0.0
        rows = constraint_diagnostic(qnet, [np.zeros((3, 3))] * 4, pad_pools([catalog.item_ids] * 4),
                                     catalog)
        assert len(rows) == 12
        assert all(qj == 0.0 and qk == 0.0 for _, _, qj, qk in rows)

    def test_row_count(self):
        catalog = synth_catalog(8, 3, seed=17)
        qnet = init_cascade_net(3, 3, 2, 4, 3, np.random.default_rng(18))
        hists = [np.random.default_rng(i).standard_normal((3, 3)) for i in range(7)]
        rows = constraint_diagnostic(qnet, hists, pad_pools([catalog.item_ids] * 7), catalog)
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

    @pytest.mark.parametrize("other", ["additive", "greedy", "random"])
    def test_policy_of_another_kind_is_refused(self, tmp_path, other):
        # every checkpoint records itself as cdqn in its last meta line; one that records
        # another kind (here rewritten by hand) does not load
        path = tmp_path / "policy.ckpt"
        save_policy(path, init_cascade_net(3, 4, 2, 5, 1, np.random.default_rng(19)))
        lines = path.read_text().splitlines()
        assert [line for line in lines if line.startswith("meta ")][-1] == "meta policy_kind cdqn"
        path.write_text("\n".join(line.replace("meta policy_kind cdqn", f"meta policy_kind {other}")
                                  for line in lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: a policy trained as {other}, not cdqn")):
            load_policy(path)

    def test_tensors_of_a_head_beyond_meta_k_are_refused(self, tmp_path):
        # a k=3 net's file relabelled k=2 once loaded two heads and dropped the third unseen
        path = tmp_path / "policy.ckpt"
        save_policy(path, init_cascade_net(3, 4, 2, 5, 3, np.random.default_rng(19)))
        path.write_text(path.read_text().replace("meta k 3\n", "meta k 2\n"))
        with pytest.raises(ValueError) as caught:
            load_policy(path)
        assert str(caught.value) == (f"{path}: tensor 'L3' that no net reads, tensor 'c3' that no "
                                     "net reads, tensor 'q3' that no net reads")
