"""Simulated slate-recommendation environment around a user choice model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import nets
from .choice import ChoiceConfig, Regularizer, sample_choice
from .data import NON_CLICK_ID, ClickRecord, ItemCatalog, Trajectory, push_columns
from .training import UserModel, induced_softmax_alpha

# independent substreams per episode seed
_POOL_STREAM = 101
_CLICK_STREAM = 211
_POLICY_STREAM = 307
_STREAMS = (_POOL_STREAM, _CLICK_STREAM, _POLICY_STREAM)
_M32 = 0xFFFFFFFF


# SeedSequence's hashmix xors in a running constant, advances it and multiplies by
# it; no data enters the constants, so each call's pair is (h[i], h[i + 1]) here
_MIX_H = np.array([0x43B0D7E5 * pow(0x931E8875, i, 2**32) & _M32 for i in range(17)], np.uint32)[:, None]
_OUT_H = np.array([0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _M32 for i in range(9)], np.uint32)[:, None]


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    v = (v ^ h[:-1]) * h[1:]  # uint32 products wrap, as in numpy's C code
    return v ^ (v >> np.uint32(16))


def _seed_states(words: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence(entropy).generate_state(4, np.uint64) for each column of
    `words` (4, N) uint32, the entropy zero-padded to the 4-word pool, as rows (N, 4)."""
    pool = _hashmix(words, _MIX_H[:5])
    for src in range(4):  # each pool word mixes into the three others, in order
        dst = [i for i in range(4) if i != src]
        h = _hashmix(pool[src], _MIX_H[4 + 3 * src:8 + 3 * src])
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * h
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_H).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | (out[1::2] << np.uint64(32))).T)


class _SeedState(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


class EpisodeKeys:
    """The generators of B episodes, hashed for every row, stream and step 0..horizon in one
    array pass and built on demand: row i's for (stream, t) is bit for bit the one
    np.random.default_rng gives the key (seeds[i], stream, t)."""

    def __init__(self, seeds: Sequence[int], horizon: int):
        seeds = [int(s) for s in seeds]
        if any(not 0 <= s < 2**64 for s in seeds) or horizon < 0:
            raise ValueError("episode seeds must lie in [0, 2**64) and the horizon be >= 0")
        self.horizon = horizon
        seed = np.array(seeds, dtype=np.uint64)[:, None, None]
        lo, hi, stream, t = np.broadcast_arrays(seed & np.uint64(_M32), seed >> np.uint64(32),
                                                np.array(_STREAMS, np.uint64)[:, None],
                                                np.arange(horizon + 1, dtype=np.uint64))
        # default_rng cuts each int into 32-bit words, low first, and 0 into one word
        words = np.where(hi > 0, [lo, hi, stream, t], [lo, stream, t, np.zeros_like(t)]).reshape(4, -1)
        self._states = _seed_states(words.astype(np.uint32)).reshape(*lo.shape, 4)

    def __len__(self) -> int:
        return len(self._states)

    def rng(self, row: int, stream: int, t: int) -> np.random.Generator:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"step {t} is outside the keyed steps 0..{self.horizon}")
        state = self._states[row, _STREAMS.index(stream), t]
        return np.random.Generator(np.random.PCG64(_SeedState(state)))


class EnvError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnvConfig:
    k: int = 3
    pool_size: int = 20
    horizon: int = 10
    nonclick_reward: float = 0.0

    def __post_init__(self):
        if self.k < 1 or self.pool_size < self.k:
            raise ValueError("need 1 <= k <= pool_size")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")


@dataclass(frozen=True)
class SlateEnv:
    catalog: ItemCatalog
    config: EnvConfig

    def __post_init__(self):
        if self.config.pool_size > len(self.catalog.item_ids):
            raise ValueError("pool_size exceeds catalog size")


# A policy maps B sessions to B slates in one call: the click histories
# (B, d, m), the candidate pools (B ascending id tuples) and row_rng, where
# row_rng(i) builds row i's policy-stream generator for this step from the
# episode keys (build it only to draw from it), to a (B, k) array of item ids.
RowRng = Callable[[int], np.random.Generator]
Policy = Callable[[np.ndarray, Sequence[tuple[int, ...]], RowRng], np.ndarray]


def make_ground_truth_user(
    catalog: ItemCatalog,
    dims: tuple[int, int, int],
    seed: int,
    reward_scale: float = 1.0,
    eta: float = 1.0,
) -> UserModel:
    """Random self-consistent user: the behavior net is exactly the softmax of its rewards.

    `reward_scale` multiplies the output layer, sharpening or flattening preferences."""
    m, n, hidden = dims
    rng = np.random.default_rng(seed)
    theta = nets.init_scorer_net(catalog.d, m, n, hidden, rng)
    theta.head.v = theta.head.v * reward_scale
    alpha = induced_softmax_alpha(theta, eta)
    return UserModel(theta=theta, alpha=alpha,
                     config=ChoiceConfig(eta, Regularizer.SHANNON_ENTROPY))


def draw_candidates(env: SlateEnv, clicked_ids: frozenset[int], t: int, keys: EpisodeKeys,
                    row: int) -> tuple[int, ...]:
    """Row `row`'s candidate pool for step t: up to pool_size of the items not yet clicked,
    drawn from its (seed, pool stream, t) generator, in ascending id order."""
    cfg = env.config
    avail = env.catalog.item_ids_except(clicked_ids)
    if len(avail) < cfg.k:
        raise EnvError(f"pool exhausted: {len(avail)} items remain, slate needs {cfg.k}")
    size = min(cfg.pool_size, len(avail))
    rng = keys.rng(row, _POOL_STREAM, t)
    picked = rng.choice(len(avail), size=size, replace=False)
    return tuple(sorted(avail[picked].tolist()))


def reset(env: SlateEnv, user: UserModel, keys: EpisodeKeys):
    """Fresh episodes, one per keyed row: zero histories (B, d, m), empty click sets, step-0 pools."""
    if user.d != env.catalog.d:
        raise ValueError("user model feature dimension does not match the catalog")
    B = len(keys)
    return (np.zeros((B, env.catalog.d, user.m)), [frozenset()] * B,
            [draw_candidates(env, frozenset(), 0, keys, i) for i in range(B)])


def slate_scores(user: UserModel, hists: np.ndarray, slate_feats: np.ndarray) -> np.ndarray:
    """User rewards for each slate item plus the zero-feature non-click slot (last).

    B histories (B, d, m) with slate features (B, k, d) give (B, k+1) scores.
    Every product runs per row, so each row's scores are bitwise those of its
    history scored alone (B=1), whatever B is."""
    slate_feats = np.asarray(slate_feats, dtype=float)
    feats = np.concatenate([slate_feats, np.zeros((len(slate_feats), 1, slate_feats.shape[2]))], axis=1)
    head = user.theta.head
    state = nets.embed_history(hists, user.theta.pw)
    dn = state.shape[1]
    z = feats @ head.V[:, dn:].T
    z += state[:, None, :] @ head.V[:, :dn].T
    z += head.b
    return nets.act(z) @ head.v


def step(env: SlateEnv, user: UserModel, t: int, keys: EpisodeKeys, hists: np.ndarray,
         clicked: list[frozenset[int]], pools: list[tuple[int, ...]], slates):
    """Show B sessions their slates at step t, sample each user's choice, pay its reward.

    The rows are the state `reset` starts: episode keys, histories (B, d, m),
    click sets and candidate pools; a single session is B=1. Checks each row's
    slate against its pool, scores every slate plus the non-click slot with
    one slate_scores call, draws each row's choice from its own (seed, click
    stream, t) generator, and pays the clicked item's score or the non-click
    constant (default 0). A click is pushed into its row of `hists` in place;
    `clicked` and `pools` are replaced row by row with the next step's.
    Returns the slates as lists, the chosen ids (0 for no click) and the
    rewards."""
    k, d = env.config.k, env.catalog.d
    slates = slates.tolist() if isinstance(slates, np.ndarray) else [[int(i) for i in s] for s in slates]
    for slate, pool in zip(slates, pools):
        if len(slate) != k:
            raise ValueError(f"slate wrong size: got {len(slate)}, expected {k}")
        if len(set(slate)) != k:
            raise ValueError("duplicate items in slate")
        missing = [i for i in slate if i not in pool]
        if missing:
            raise ValueError(f"slate not in pool: {missing}")
    feats = env.catalog.feature_matrix([i for slate in slates for i in slate]).reshape(len(slates), k, d)
    scores = slate_scores(user, hists, feats)
    idx = sample_choice(scores, user.config, [keys.rng(i, _CLICK_STREAM, t) for i in range(len(slates))])
    chosen, rewards = [], []
    for i, (slate, j, row_scores) in enumerate(zip(slates, idx.tolist(), scores.tolist())):
        if j < k:
            chosen.append(slate[j])
            rewards.append(row_scores[j])
            push_columns(hists[i], feats[i, j])
            clicked[i] = clicked[i] | {slate[j]}
        else:
            chosen.append(NON_CLICK_ID)
            rewards.append(float(env.config.nonclick_reward))
        pools[i] = draw_candidates(env, clicked[i], t + 1, keys, i)
    return slates, chosen, rewards


def rollout_batch(
    env: SlateEnv,
    user: UserModel,
    policy: Policy,
    seeds: Sequence[int],
    T: int | None = None,
    user_ids: Sequence[int] | None = None,
) -> list[tuple[Trajectory, float, int]]:
    """Run one episode per seed for T steps in lockstep, one policy call and one step per t.

    Each row draws its pools, clicks and policy randomness from generators
    keyed (seed, stream, t), so a row's episode is the one that seed gives when
    run alone. Returns one (trajectory with per-step rewards, time-averaged
    reward, clicks) per seed, in order."""
    horizon = env.config.horizon if T is None else T
    keys = EpisodeKeys(seeds, horizon)
    user_ids = [0] * len(keys) if user_ids is None else list(user_ids)
    hists, clicked, pools = reset(env, user, keys)
    records: list[list[ClickRecord]] = [[] for _ in range(len(keys))]
    for t in range(horizon):
        row_rng = lambda i, t=t: keys.rng(i, _POLICY_STREAM, t)
        slates = policy(hists, pools, row_rng)
        slates, chosen, rewards = step(env, user, t, keys, hists, clicked, pools, slates)
        for row, slate, c, r in zip(records, slates, chosen, rewards):
            row.append(ClickRecord(step=t + 1, displayed=tuple(slate), chosen=c, reward=r))
    out = []
    for u, row in zip(user_ids, records):
        total = 0.0
        for rec in row:  # in step order, as the episode pays them (sum() may compensate)
            total += rec.reward
        out.append((Trajectory(user_id=u, records=tuple(row)),
                    total / horizon if horizon > 0 else 0.0, sum(rec.clicked for rec in row)))
    return out


def rollout(
    env: SlateEnv,
    user: UserModel,
    policy: Policy,
    T: int | None = None,
    seed: int = 0,
    user_id: int = 0,
) -> tuple[Trajectory, float, int]:
    """Run T steps; returns (trajectory with per-step rewards, time-averaged reward, clicks)."""
    return rollout_batch(env, user, policy, [seed], T, [user_id])[0]
