"""Simulated slate-recommendation environment around a user choice model."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import nets
from .choice import ChoiceConfig, Regularizer, sample_choice
from .data import NON_CLICK_ID, ClickRecord, ItemCatalog, Trajectory, push_columns
from .training import UserModel, induced_softmax_alpha

# independent substreams per episode seed
_POOL_STREAM = 101
_CLICK_STREAM = 211
_POLICY_STREAM = 307


class EnvError(RuntimeError):
    pass


class CandidatePolicy(Enum):
    RANDOM_SUBSET = "random-subset"
    FULL_CATALOG = "full-catalog"


@dataclass(frozen=True)
class EnvConfig:
    k: int = 3
    pool_size: int = 20
    horizon: int = 10
    candidate_policy: CandidatePolicy = CandidatePolicy.RANDOM_SUBSET
    exclude_clicked: bool = True
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

    @property
    def pool_width(self) -> int:
        """The most candidates one pool can hold."""
        if self.config.candidate_policy is CandidatePolicy.FULL_CATALOG:
            return len(self.catalog.item_ids)
        return self.config.pool_size


# A policy maps B sessions to B slates in one call: the click histories
# (B, d, m), the candidate pools (B ascending id tuples) and row_rng, where
# row_rng(i) builds row i's generator for this step (build it only to draw from
# it), to a (B, k) array of item ids.
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


def draw_candidates(env: SlateEnv, clicked_ids: frozenset[int], t: int, seed: int) -> tuple[int, ...]:
    """The candidate pool for step t, deterministic per (seed, t)."""
    cfg = env.config
    avail = env.catalog.item_ids_except(clicked_ids if cfg.exclude_clicked else ())
    if len(avail) < cfg.k:
        raise EnvError(f"pool exhausted: {len(avail)} items remain, slate needs {cfg.k}")
    if cfg.candidate_policy is CandidatePolicy.FULL_CATALOG:
        return tuple(avail.tolist())
    size = min(cfg.pool_size, len(avail))
    rng = np.random.default_rng((seed, _POOL_STREAM, t))
    picked = rng.choice(len(avail), size=size, replace=False)
    return tuple(sorted(avail[picked].tolist()))


def reset(env: SlateEnv, user: UserModel, seeds: Sequence[int]):
    """Fresh episodes, one per seed: zero histories (B, d, m), empty click sets, step-0 pools."""
    if user.d != env.catalog.d:
        raise ValueError("user model feature dimension does not match the catalog")
    hists = np.zeros((len(seeds), env.catalog.d, user.m))
    return hists, [frozenset()] * len(seeds), [draw_candidates(env, frozenset(), 0, s) for s in seeds]


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
    return nets.act(z, head.activation) @ head.v


def step(env: SlateEnv, user: UserModel, t: int, seeds: Sequence[int], hists: np.ndarray,
         clicked: list[frozenset[int]], pools: list[tuple[int, ...]], slates):
    """Show B sessions their slates at step t, sample each user's choice, pay its reward.

    The rows are the state `reset` starts: seeds, histories (B, d, m), click
    sets and candidate pools; a single session is B=1. Checks each row's
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
    idx = sample_choice(scores, user.config,
                        [np.random.default_rng((seed, _CLICK_STREAM, t)) for seed in seeds])
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
        pools[i] = draw_candidates(env, clicked[i], t + 1, seeds[i])
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
    seeds = [int(s) for s in seeds]
    user_ids = [0] * len(seeds) if user_ids is None else list(user_ids)
    hists, clicked, pools = reset(env, user, seeds)
    records: list[list[ClickRecord]] = [[] for _ in seeds]
    for t in range(horizon):
        row_rng = lambda i, t=t: np.random.default_rng((seeds[i], _POLICY_STREAM, t))
        slates = policy(hists, pools, row_rng)
        slates, chosen, rewards = step(env, user, t, seeds, hists, clicked, pools, slates)
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
