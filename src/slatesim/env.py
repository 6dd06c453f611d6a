"""Simulated slate-recommendation environment around a user choice model."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import nets
from .choice import ChoiceConfig, Regularizer, sample_choice
from .data import NON_CLICK_ID, ClickRecord, HistoryBuffer, ItemCatalog, Trajectory
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


@dataclass
class EnvState:
    buffer: HistoryBuffer
    t: int
    clicked_ids: frozenset[int]
    pool: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class StepOutcome:
    chosen: int
    reward: float
    clicked: bool
    next_state: EnvState


@dataclass(frozen=True)
class SlateEnv:
    catalog: ItemCatalog
    config: EnvConfig

    def __post_init__(self):
        if self.config.pool_size > len(self.catalog.item_ids):
            raise ValueError("pool_size exceeds catalog size")


# a policy maps (history buffer, candidate pool, per-step rng) to a slate of k ids
Policy = Callable[[HistoryBuffer, tuple[int, ...], np.random.Generator], Sequence[int]]


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
    if cfg.exclude_clicked:
        avail = [i for i in env.catalog.item_ids if i not in clicked_ids]
    else:
        avail = list(env.catalog.item_ids)
    if len(avail) < cfg.k:
        raise EnvError(f"pool exhausted: {len(avail)} items remain, slate needs {cfg.k}")
    if cfg.candidate_policy is CandidatePolicy.FULL_CATALOG:
        return tuple(avail)
    size = min(cfg.pool_size, len(avail))
    rng = np.random.default_rng((seed, _POOL_STREAM, t))
    picked = rng.choice(len(avail), size=size, replace=False)
    return tuple(sorted(avail[i] for i in picked))


def reset(env: SlateEnv, user: UserModel, seed: int) -> EnvState:
    """Fresh episode: zero history, empty click set, step-0 candidate pool."""
    if user.d != env.catalog.d:
        raise ValueError("user model feature dimension does not match the catalog")
    buffer = HistoryBuffer(user.m, env.catalog.d)
    pool = draw_candidates(env, frozenset(), 0, seed)
    return EnvState(buffer=buffer, t=0, clicked_ids=frozenset(), pool=pool, seed=seed)


def slate_scores(user: UserModel, buffer: HistoryBuffer, slate_feats: np.ndarray) -> np.ndarray:
    """User rewards for each slate row plus the zero-feature non-click slot (last)."""
    s = nets.embed_state(buffer, user.theta.pw)
    feats = np.vstack([slate_feats, np.zeros((1, slate_feats.shape[1]))])
    return nets.head_scores(user.theta.head, s, feats)


def step(env: SlateEnv, state: EnvState, slate: Sequence[int], user: UserModel) -> StepOutcome:
    """Show a slate, sample the user's choice, emit the reward, and advance the state.

    The reward is the user's score of the clicked item; a non-click pays the
    configured constant (default 0) and leaves the history untouched."""
    slate = [int(i) for i in slate]
    if len(slate) != env.config.k:
        raise ValueError(f"slate wrong size: got {len(slate)}, expected {env.config.k}")
    if len(set(slate)) != len(slate):
        raise ValueError("duplicate items in slate")
    pool = set(state.pool)
    missing = [i for i in slate if i not in pool]
    if missing:
        raise ValueError(f"slate not in pool: {missing}")
    feats = env.catalog.feature_matrix(slate)
    scores = slate_scores(user, state.buffer, feats)
    rng = np.random.default_rng((state.seed, _CLICK_STREAM, state.t))
    idx = sample_choice(scores, user.config, rng)
    clicked = idx < len(slate)
    chosen = slate[idx] if clicked else NON_CLICK_ID
    reward = float(scores[idx]) if clicked else float(env.config.nonclick_reward)
    buffer = state.buffer.copy()
    clicked_ids = state.clicked_ids
    if clicked:
        buffer.push(feats[idx])
        clicked_ids = clicked_ids | {chosen}
    pool_next = draw_candidates(env, clicked_ids, state.t + 1, state.seed)
    next_state = EnvState(buffer=buffer, t=state.t + 1, clicked_ids=clicked_ids,
                          pool=pool_next, seed=state.seed)
    return StepOutcome(chosen=chosen, reward=reward, clicked=clicked, next_state=next_state)


def rollout(
    env: SlateEnv,
    user: UserModel,
    policy: Policy,
    T: int | None = None,
    seed: int = 0,
    user_id: int = 0,
) -> tuple[Trajectory, float, int]:
    """Run T steps; returns (trajectory with per-step rewards, time-averaged reward, clicks)."""
    horizon = env.config.horizon if T is None else T
    state = reset(env, user, seed)
    records = []
    total = 0.0
    clicks = 0
    for t in range(1, horizon + 1):
        rng = np.random.default_rng((seed, _POLICY_STREAM, state.t))
        slate = [int(i) for i in policy(state.buffer, state.pool, rng)]
        out = step(env, state, slate, user)
        records.append(ClickRecord(step=t, displayed=tuple(slate), chosen=out.chosen,
                                   reward=out.reward))
        total += out.reward
        clicks += int(out.clicked)
        state = out.next_state
    avg = total / horizon if horizon > 0 else 0.0
    return Trajectory(user_id=user_id, records=tuple(records)), avg, clicks
