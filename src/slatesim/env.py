"""Simulated slate-recommendation environment around a user choice model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import nets
from .choice import ChoiceConfig, Regularizer, sample_choice
from .data import NON_CLICK_ID, ClickRecord, ItemCatalog, Trajectory
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


# each pool word mixes into the three others, in order: (source, the others, its constants)
_MIX_STEPS = [(src, np.array([i for i in range(4) if i != src]), _MIX_H[4 + 3 * src:8 + 3 * src])
              for src in range(4)]
_OUT_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    v = (v ^ h[:-1]) * h[1:]  # uint32 products wrap, as in numpy's C code
    return v ^ (v >> np.uint32(16))


def _seed_states(words: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence(entropy).generate_state(4, np.uint64) for each column of
    `words` (4, N) uint32, the entropy zero-padded to the 4-word pool, as rows (N, 4)."""
    pool = _hashmix(words, _MIX_H[:5])
    for src, dst, consts in _MIX_STEPS:
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * _hashmix(pool[src], consts)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = _hashmix(pool[_OUT_WORDS], _OUT_H).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | (out[1::2] << np.uint64(32))).T)


class _SeedState(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


class EpisodeKeys:
    """The generators of B episodes, hashed for every row, stream and step 0..horizon - 1 in
    one array pass and built on demand: row i's for (stream, t) is bit for bit the one
    np.random.default_rng gives the key (seeds[i], stream, t)."""

    def __init__(self, seeds: Sequence[int], horizon: int):
        seeds = [int(s) for s in seeds]
        if not seeds:  # a batch of no row has no pool to draw
            raise ValueError("an episode batch needs at least one seed")
        if bad := [s for s in seeds if not 0 <= s < 2**64]:
            raise ValueError(f"episode seed {bad[0]} is outside [0, 2**64)")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        seed = np.array(seeds, dtype=np.uint64)
        # default_rng cuts each int of (seed, stream, t) into 32-bit words, low first, and 0
        # into one word: (lo, stream, t, 0), or (lo, hi, stream, t) for a two-word seed
        words = np.zeros((4, len(seeds), len(_STREAMS), horizon), dtype=np.uint32)
        words[0] = seed.astype(np.uint32)[:, None, None]  # the cast keeps the low word
        words[1] = np.array(_STREAMS, dtype=np.uint32)[:, None]
        words[2] = np.arange(horizon, dtype=np.uint32)
        wide = np.flatnonzero(seed >> np.uint64(32))
        words[2:, wide] = words[1:3, wide]
        words[1, wide] = (seed[wide] >> np.uint64(32)).astype(np.uint32)[:, None, None]
        self._states = _seed_states(words.reshape(4, -1)).reshape(*words.shape[1:], 4)

    def __len__(self) -> int:
        return len(self._states)

    def rng(self, row: int, stream: int, t: int) -> np.random.Generator:
        if not 0 <= t < self.horizon:
            raise ValueError(f"step {t} is outside the keyed steps 0..{self.horizon - 1}")
        state = self._states[row, _STREAMS.index(stream), t]
        return np.random.Generator(np.random.PCG64(_SeedState(state)))


@dataclass(frozen=True)
class EnvConfig:
    k: int = 3
    pool_size: int = 20
    horizon: int = 10

    def __post_init__(self):
        if self.k < 1 or self.pool_size < self.k:
            raise ValueError(f"need 1 <= k <= pool_size, got k={self.k} and pool_size={self.pool_size}")
        if self.horizon < 1:  # an episode of no step has no reward or click rate
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class SlateEnv:
    catalog: ItemCatalog
    config: EnvConfig

    def __post_init__(self):
        size, cfg = len(self.catalog.item_ids), self.config
        if cfg.pool_size > size:
            raise ValueError(f"pool_size {cfg.pool_size} exceeds the catalog's {size} items")
        # k items outlast the episode's clicks, so every pool the episode draws holds k
        if size - cfg.horizon < cfg.k:
            raise ValueError(f"a catalog of {size} items minus a horizon of {cfg.horizon} clicks "
                             f"leaves fewer than k={cfg.k} items for a slate")


# A policy maps B sessions to B slates in one call: the click histories (B, d, m), the
# candidate pools as a (B, pool_size) id array (each row's real ids ascending, then the
# non-click id as padding; no real item has that id, so `pools != NON_CLICK_ID` marks the
# real ones) and row_rng, where row_rng(i) builds row i's policy-stream generator for this
# step from the episode keys (build it only to draw from it), to a (B, k) array of item ids.
RowRng = Callable[[int], np.random.Generator]
Policy = Callable[[np.ndarray, np.ndarray, RowRng], np.ndarray]


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


def draw_candidates(env: SlateEnv, avail: np.ndarray, t: int, keys: EpisodeKeys) -> np.ndarray:
    """Every row's candidate pool for step t: up to pool_size of the items its availability
    mask (B, K+1) over the catalog rows leaves, drawn from the row's (seed, pool stream, t)
    generator, as (B, pool_size) ascending ids padded with the non-click id."""
    cfg, catalog = env.config, env.catalog
    picked = []
    for i, row in enumerate(avail):
        items = catalog.id_array[row]
        rng = keys.rng(i, _POOL_STREAM, t)
        picked.append(items[rng.choice(len(items), size=min(len(items), cfg.pool_size), replace=False)])
    if min(map(len, picked)) == cfg.pool_size:
        ids = np.array(picked)
        ids.sort(axis=1)
    else:  # a row runs short: pad every sorted row with the non-click id
        ids = np.full((len(avail), cfg.pool_size), NON_CLICK_ID)
        for row, items in zip(ids, picked):
            row[:len(items)] = np.sort(items)
    return ids


def reset(env: SlateEnv, user: UserModel, keys: EpisodeKeys):
    """Fresh episodes, one per keyed row: zero histories (B, d, m), availability masks
    (B, K+1) over the catalog rows with every real item set, and the step-0 pools."""
    if user.d != env.catalog.d:
        raise ValueError("user model feature dimension does not match the catalog")
    avail = np.repeat(env.catalog.id_array[None] != NON_CLICK_ID, len(keys), axis=0)
    return np.zeros((len(keys), env.catalog.d, user.m)), avail, draw_candidates(env, avail, 0, keys)


def slate_scores(user: UserModel, hists: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """User rewards (B, slots) of B histories (B, d, m) for their slots' features (B, slots, d),
    in `step` a slate's items, then the zero-feature non-click slot. It is nets.head_scores'
    forward, so each row's scores are bit for bit those of its history scored alone (B=1)."""
    return nets.head_scores(user.theta.head, nets.embed_history(hists, user.theta.pw), feats)


def _check_slates(slates, pools: np.ndarray, k: int) -> np.ndarray:
    """The slates as a (B, k) id array. The first row that is the wrong size, repeats an
    item or shows one outside its pool raises ValueError."""
    try:
        arr = np.asarray(slates, dtype=int)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.shape[1:] != (k,):
        got = next(len(slate) for slate in slates if len(slate) != k)
        raise ValueError(f"slate wrong size: got {got}, expected {k}")
    # a slate of k distinct pool items covers k real pool entries; a repeat or an outsider
    # fewer, and a non-click id in the slate matches only padding
    real = pools != NON_CLICK_ID
    covered = np.logical_or.reduce(arr[:, :, None] == pools[:, None, :], axis=1) & real
    if np.count_nonzero(covered) < covered.shape[0] * k:
        row = np.flatnonzero(np.add.reduce(covered, axis=1) < k)[0]
        slate, pool = arr[row].tolist(), set(pools[row][real[row]].tolist())
        if len(set(slate)) != k:
            raise ValueError("duplicate items in slate")
        raise ValueError(f"slate not in pool: {[i for i in slate if i not in pool]}")
    return arr


def step(env: SlateEnv, user: UserModel, t: int, keys: EpisodeKeys, hists: np.ndarray,
         avail: np.ndarray, pools: np.ndarray, slates):
    """Show B sessions their slates at step t, sample each user's choice, pay its reward.

    The rows are the state `reset` starts: episode keys, histories (B, d, m),
    availability masks (B, K+1) and candidate pools; a single session is B=1.
    Checks each row's slate against its pool, scores every slate plus the
    non-click slot with one slate_scores call, draws each row's choice from its
    own (seed, click stream, t) generator, and pays the clicked item's score or
    0.0 for a non-click. In place, a click is pushed into its row of `hists` and
    clears its item in `avail`, and `pools` is overwritten with the next step's
    unless t is the keys' last. Returns the checked slates (B, k), the chosen ids
    (B,) (0 for no click) and the rewards (B,) as arrays."""
    k, catalog = env.config.k, env.catalog
    slates = _check_slates(slates, pools, k)
    rows = np.arange(len(slates))
    # each row's slots, its slate and then the non-click id, and their catalog rows: the
    # non-click slot's is the pseudo-item's zero-feature row, which is never available
    slots = np.full((len(slates), k + 1), NON_CLICK_ID)
    slots[:, :k] = slates
    slot_rows = catalog.id_array.searchsorted(slots)
    scores = slate_scores(user, hists, catalog.matrix[slot_rows])
    idx = sample_choice(scores, user.config, [keys.rng(i, _CLICK_STREAM, t) for i in rows])
    clicked = idx < k
    chosen, chosen_rows = slots[rows, idx], slot_rows[rows, idx]
    rewards = np.where(clicked, scores[rows, idx], 0.0)
    # a click clears its item's row in `avail` and pushes its features into its history; a
    # non-click's history stays
    avail[rows, chosen_rows] = False
    pushed = np.concatenate([hists[..., 1:], catalog.matrix[chosen_rows][..., None]], axis=2)
    np.copyto(hists, pushed, where=clicked[:, None, None])
    if t + 1 < keys.horizon:
        pools[...] = draw_candidates(env, avail, t + 1, keys)
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

    Each row draws its pools, clicks and policy randomness from generators keyed (seed, stream,
    t), so a row's episode is the one that seed gives when run alone. Returns one (trajectory
    with per-step rewards, time-averaged reward, clicks) per seed, in order. A T outside
    1..horizon, no seed or a user id count unlike the seed count raises ValueError before any step."""
    horizon = env.config.horizon if T is None else T
    if horizon < 1:
        raise ValueError(f"T must be >= 1, got {horizon}")
    if horizon > env.config.horizon:  # the env's catalog fills every slate only up to its horizon
        raise ValueError(f"T={horizon} exceeds the env's horizon {env.config.horizon}")
    keys = EpisodeKeys(seeds, horizon)
    user_ids = [0] * len(keys) if user_ids is None else list(user_ids)
    if len(user_ids) != len(keys):  # else zip stops at the shorter list
        raise ValueError(f"{len(user_ids)} user ids for {len(keys)} seeds")
    hists, avail, pools = reset(env, user, keys)
    records: list[list[ClickRecord]] = [[] for _ in range(len(keys))]
    totals, clicks = np.zeros(len(keys)), np.zeros(len(keys), dtype=int)
    for t in range(horizon):
        row_rng = lambda i, t=t: keys.rng(i, _POLICY_STREAM, t)
        slates = policy(hists, pools, row_rng)
        slates, chosen, rewards = step(env, user, t, keys, hists, avail, pools, slates)
        totals += rewards  # each row in step order, as the episode pays them
        clicks += chosen != NON_CLICK_ID
        for row, slate, c, r in zip(records, slates.tolist(), chosen.tolist(), rewards.tolist()):
            row.append(ClickRecord(step=t + 1, displayed=tuple(slate), chosen=c, reward=r))
    return [(Trajectory(user_id=u, records=tuple(row)), avg, c) for u, row, avg, c
            in zip(user_ids, records, (totals / horizon).tolist(), clicks.tolist())]


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
