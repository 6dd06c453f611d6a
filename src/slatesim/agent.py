"""Cascading Q-networks: linear-time slate argmax, replay training, baseline policies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import nets
from .data import NON_CLICK_ID, ItemCatalog
from .env import EpisodeKeys, Policy, SlateEnv, reset, step
from .nets import CascadeQNet
from .training import UserModel


class ReplayBatch(NamedTuple):
    """Transitions as row-aligned arrays: histories (N, d, m), slates (N, k), rewards,
    next histories, next pools (N, P) padded as the env's, terminal flags."""

    hist: np.ndarray
    slate: np.ndarray
    reward: np.ndarray
    next_hist: np.ndarray
    next_pool: np.ndarray
    terminal: np.ndarray


class ReplayMemory:
    """FIFO transition store of bounded capacity in preallocated ring arrays;
    sampling is i.i.d. with replacement.

    Holds pools of up to `pool_width` ids; once full, the oldest rows are overwritten."""

    def __init__(self, capacity: int, hist_shape: tuple[int, int], k: int, pool_width: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows = ReplayBatch(
            hist=np.zeros((capacity, *hist_shape)), slate=np.zeros((capacity, k), dtype=int),
            reward=np.zeros(capacity), next_hist=np.zeros((capacity, *hist_shape)),
            next_pool=np.zeros((capacity, pool_width), dtype=int),
            terminal=np.zeros(capacity, dtype=bool))
        self._added = 0

    def add(self, rows: ReplayBatch) -> None:
        """Append the rows in order; of more rows than fit, only the newest are kept."""
        n = len(rows.reward)
        keep = min(n, self.capacity)
        at = (self._added + np.arange(n - keep, n)) % self.capacity
        for store, new in zip(self._rows, rows):
            store[at] = new[n - keep:]
        self._added += n

    def _take(self, idx: np.ndarray) -> ReplayBatch:
        """Rows by FIFO position (0 the oldest held), one fancy index per array."""
        at = (self._added - len(self) + idx) % self.capacity
        return ReplayBatch(*(store[at] for store in self._rows))

    def sample(self, size: int, rng: np.random.Generator) -> ReplayBatch:
        if not len(self):
            raise ValueError("cannot sample from an empty memory")
        return self._take(rng.integers(0, len(self), size=size))

    def __len__(self) -> int:
        return min(self._added, self.capacity)


class RewardMode(Enum):
    LEARNED_REWARD = "learned"
    PLUS_MINUS_ONE = "pm1"


class PolicyKind(Enum):
    CDQN = "cdqn"
    GREEDY_USER_MODEL = "greedy"
    RANDOM = "random"


@dataclass
class CDQNConfig:
    gamma: float = 0.9
    epsilon: float = 0.1
    epsilon_final: float | None = None
    iterations: int = 200
    horizon: int = 10
    batch_users: int = 10
    minibatch: int = 32
    lr: float = 0.05
    seed: int = 0
    capacity: int = 10_000
    reward_mode: RewardMode = RewardMode.LEARNED_REWARD
    n: int = 4
    hidden: int = 16

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        for eps in (self.epsilon, self.epsilon_final):
            if eps is not None and not (0.0 <= eps <= 1.0):
                raise ValueError("epsilon must be in [0, 1]")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for name in ("horizon", "batch_users", "minibatch", "n", "hidden", "capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.capacity < self.minibatch:  # else no minibatch is ever drawn and no step taken
            raise ValueError(f"capacity must be >= minibatch, got {self.capacity} < {self.minibatch}")


@dataclass
class PolicyHandle:
    kind: PolicyKind
    qnet: CascadeQNet | None = None
    user_model: UserModel | None = None

    def __post_init__(self):
        if self.kind is PolicyKind.CDQN and self.qnet is None:
            raise ValueError("cdqn policy needs a qnet")
        if self.kind is PolicyKind.GREEDY_USER_MODEL and self.user_model is None:
            raise ValueError("greedy policy needs a user model")


class NonFiniteQError(ValueError):
    """A cascade's chosen Q value is not finite, so its argmax may pick a taken or padded id."""


def _check_finite(chosen: np.ndarray, position: int) -> None:
    bad = np.flatnonzero(~np.isfinite(chosen))
    if len(bad):
        raise NonFiniteQError(f"the chosen Q value of position {position} is not finite in "
                              f"{len(bad)} of {len(chosen)} rows, the first row {bad[0]}")


@dataclass
class EvalCounter:
    count: int = 0


# qeval(j, prefix_ids, candidate_ids) -> array of Q^j values, one per candidate
QEval = Callable[[int, tuple[int, ...], tuple[int, ...]], np.ndarray]


def net_qeval(qnet: CascadeQNet, state_vec: np.ndarray, catalog: ItemCatalog) -> QEval:
    """Vectorized per-position evaluator of a cascade net for one embedded state.

    Head j scores each candidate as the last item after the fixed [s; f_1 .. f_{j-1}]:
    the operations of nets.head_scores in its order, so the same floats, with each
    head's blocks bound and the state's shape checked once here."""
    state_vec, d = np.asarray(state_vec, dtype=float), catalog.d
    blocks = []
    for j, head in enumerate(qnet.heads, start=1):
        dn = head.V.shape[1] - d
        if state_vec.shape != (dn - (j - 1) * d,):
            raise ValueError(f"state shape {state_vec.shape} incompatible with head {j}'s input "
                             f"{head.V.shape[1]} and {d} item features")
        blocks.append((head.V[:, :dn].T, head.V[:, dn:].T, head.b, head.v))

    def qeval(j: int, prefix: tuple[int, ...], cands: tuple[int, ...]) -> np.ndarray:
        Vs, Vc, b, v = blocks[j - 1]
        z = catalog.feature_matrix(cands) @ Vc
        z += np.concatenate([state_vec] + [catalog.features(i) for i in prefix]) @ Vs
        z += b
        return nets.act(z) @ v

    return qeval


def cascade_plan(qeval: QEval, pool: Sequence[int], k: int,
                 counter: EvalCounter | None = None) -> tuple[list[int], list[float]]:
    """Greedy cascade: fix each slate position in turn by a one-position argmax.

    Returns the ordered slate and the per-position achieved values; the last
    value is Q^k at the full slate. Ties break toward the lowest item id. A chosen
    value that is not finite raises NonFiniteQError, as in cascade_batch."""
    remaining = sorted(set(np.asarray(pool, dtype=int).tolist()))
    if len(remaining) < k:
        raise ValueError(f"pool smaller than k: {len(remaining)} < {k}")
    slate: list[int] = []
    values: list[float] = []
    for j in range(1, k + 1):
        vals = np.asarray(qeval(j, tuple(slate), tuple(remaining)), dtype=float)
        if counter is not None:
            counter.count += len(remaining)
        best = int(vals.argmax())  # first maximum wins: lowest id on ties
        value = vals.item(best)
        if not math.isfinite(value):
            _check_finite(vals[best:best + 1], j)
        slate.append(remaining.pop(best))
        values.append(value)
    return slate, values


def cascade_slate(qnet: CascadeQNet, S: np.ndarray, pools: np.ndarray, catalog: ItemCatalog,
                  work: nets.ScoreBuffers | None = None) -> np.ndarray:
    """The (B, k) slates the cascade picks for B embedded states and padded pools, as
    cascade_batch's. One row runs cascade_plan on net_qeval without the padding, which is
    faster for one state (81 against 132 µs in the README shapes); more run cascade_batch."""
    if len(pools) == 1:
        pool = np.asarray(pools[0], dtype=int)
        return np.array([cascade_plan(net_qeval(qnet, S[0], catalog), pool[pool != NON_CLICK_ID], qnet.k)[0]])
    return cascade_batch(qnet, S, pools, catalog, work)[0]


def _real_entries(pools: np.ndarray, k: int) -> np.ndarray:
    """The real (not padding) entries of padded pools; a pool smaller than k raises ValueError."""
    real = pools != NON_CLICK_ID
    sizes = real.sum(axis=1)
    if len(sizes) and sizes.min() < k:
        raise ValueError(f"pool smaller than k: {int(sizes.min())} < {k}")
    return real


def cascade_batch(qnet: CascadeQNet, S: np.ndarray, pools: np.ndarray, catalog: ItemCatalog,
                  work: nets.ScoreBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The greedy cascade of `cascade_plan` for B embedded states at once.

    S: (B, dn) states; pools: (B, P) ascending ids per row, padded as the env's
    (see env.Policy). Head j scores all B x P candidates against each row's
    [s; f_1 .. f_{j-1}]. Returns the slates (B, k) and the achieved per-position values
    (B, k); ties break toward the lowest item id. A chosen value that is not finite
    raises NonFiniteQError. The k heads share `work`, or one of the call's."""
    k = qnet.k
    work = nets.ScoreBuffers() if work is None else work
    pools = np.asarray(pools, dtype=int)
    free = _real_entries(pools, k)
    B = len(pools)
    feats = catalog.feature_matrix(pools)
    rows = np.arange(B)
    prefix = np.asarray(S, dtype=float)
    slates = np.empty((B, k), dtype=int)
    values = np.empty((B, k))
    for j in range(k):
        q = nets.head_scores(qnet.heads[j], prefix, feats, work=work)
        q[~free] = -np.inf
        best = np.argmax(q, axis=1)  # first maximum wins: lowest id on ties
        slates[:, j] = pools[rows, best]
        values[:, j] = q[rows, best]
        _check_finite(values[:, j], j + 1)
        free[rows, best] = False
        prefix = np.concatenate([prefix, feats[rows, best]], axis=1)
    return slates, values


def compute_target(rewards: Sequence[float], next_hists: np.ndarray, next_pools: np.ndarray,
                   qnet: CascadeQNet, catalog: ItemCatalog, gamma: float,
                   terminal: Sequence[bool]) -> np.ndarray:
    """TD targets y = r + gamma * Q^k at the greedy cascade slate of each next state.

    next_hists: (B, d, m); next_pools: (B, P) padded pools (see cascade_batch).
    Terminal rows keep their reward; the live rows go through one cascade_batch."""
    y = np.array(rewards, dtype=float)
    live = np.flatnonzero(~np.asarray(terminal, bool))
    if len(live):
        S = nets.embed_history(np.asarray(next_hists, dtype=float)[live], qnet.pw)
        _, values = cascade_batch(qnet, S, np.asarray(next_pools)[live], catalog)
        y[live] += gamma * values[:, -1]
    return y


# ---------------------------------------------------------------------------
# policies


def greedy_user_model_policy(user_model: UserModel, hists: np.ndarray, pools: np.ndarray, k: int,
                             catalog: ItemCatalog, work: nets.ScoreBuffers | None = None) -> np.ndarray:
    """Per row of histories (B, d, m) and padded pools (see env.Policy), the top-k pool items
    by the behavior logit, scored in `work`'s arrays when given.

    Returns (B, k) ids, best first. Each pool ascends, so the stable sort breaks
    ties toward the lower item id."""
    real = _real_entries(pools, k)
    alpha = user_model.alpha
    scores = nets.head_scores(alpha.head, nets.embed_history(hists, alpha.pw), catalog.feature_matrix(pools),
                              work=work)
    order = np.argsort(-np.where(real, scores, -np.inf), axis=1, kind="stable")[:, :k]
    return np.take_along_axis(pools, order, axis=1)


def random_slate(pool: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct items of a pool's real ids (one padded row of the Policy contract's pools)."""
    pool = pool[pool != NON_CLICK_ID]
    if len(pool) < k:
        raise ValueError(f"pool smaller than k: {len(pool)} < {k}")
    return pool[rng.choice(len(pool), size=k, replace=False)]


def make_policy(handle: PolicyHandle, catalog: ItemCatalog, k: int) -> Policy:
    """Wrap a policy handle as a batched (hists, pools, row_rng) -> (B, k) slates policy; a
    scoring policy keeps its head_scores work arrays (nets.ScoreBuffers) for its lifetime."""
    if handle.kind is PolicyKind.RANDOM:
        return lambda hists, pools, row_rng: np.array(
            [random_slate(ids, k, row_rng(i)) for i, ids in enumerate(pools)], dtype=int)
    work = nets.ScoreBuffers()
    if handle.kind is PolicyKind.GREEDY_USER_MODEL:
        model = handle.user_model
        return lambda hists, pools, row_rng: greedy_user_model_policy(model, hists, pools, k, catalog, work)
    qnet = handle.qnet
    return lambda hists, pools, row_rng: cascade_slate(
        qnet, nets.embed_history(hists, qnet.pw), pools, catalog, work)


# ---------------------------------------------------------------------------
# training loops (batched users, epsilon-greedy, replay, shared TD target)

class TrainingDivergedError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"TD loss became non-finite at iteration {iteration}")
        self.iteration = iteration


class TrainingEnv(NamedTuple):
    """The env and user every training session steps in; episode i is seeded
    base_seed + 2*i, which keeps the seed's parity across episodes."""

    env: SlateEnv
    user: UserModel
    base_seed: int


def make_env_factory(env: SlateEnv, user: UserModel, base_seed: int) -> TrainingEnv:
    return TrainingEnv(env, user, base_seed)


def _epsilon_at(config: CDQNConfig, iteration: int) -> float:
    if config.epsilon_final is None or config.iterations <= 1:
        return config.epsilon
    frac = iteration / (config.iterations - 1)
    return config.epsilon + (config.epsilon_final - config.epsilon) * frac


# act(qnet, hists, pools): the greedy slates (G, k) of G sessions' histories (G, d, m) and pools
Act = Callable[[CascadeQNet, np.ndarray, np.ndarray], np.ndarray]


def _train_replay(world: TrainingEnv, config: CDQNConfig, heads: int, act: Act,
                  target: Callable[[CascadeQNet, ReplayBatch], np.ndarray],
                  loss: Callable[[CascadeQNet, ReplayBatch, np.ndarray], tuple[float, dict[str, np.ndarray]]],
                  on_iteration: Callable[[int, dict], None] | None) -> CascadeQNet:
    """Epsilon-greedy sessions, experience replay and one SGD step per horizon step.

    Each iteration runs its `batch_users` sessions in lockstep in the world's
    env and user. Per horizon step every session in turn draws epsilon
    and, when it explores, a random slate from the one training generator;
    the others play `act`, and one env.step advances all of them. A net of
    `heads` value heads then regresses `loss` on a replay minibatch against
    the bootstrapped targets `target` computes with the current net."""
    env, user, base_seed = world
    if config.horizon != env.config.horizon:  # the world's rule that k items outlast the clicks is the env's
        raise ValueError(f"horizon {config.horizon} differs from the env's horizon {env.config.horizon}")
    catalog, k, B, horizon = env.catalog, env.config.k, config.batch_users, env.config.horizon
    rng = np.random.default_rng(config.seed)
    qnet = nets.init_cascade_net(catalog.d, user.m, config.n, config.hidden, heads, rng)
    capacity = min(config.capacity, max(config.iterations * B * horizon, 1))
    memory = ReplayMemory(capacity, (catalog.d, user.m), k, env.config.pool_size)
    updates = 0
    for it in range(config.iterations):
        eps = _epsilon_at(config, it)
        keys = EpisodeKeys([base_seed + 2 * episode for episode in range(it * B, (it + 1) * B)], horizon)
        hists, avail, pools = reset(env, user, keys)
        losses = []
        try:  # a non-finite Q value met by the act, the target or the loss is divergence
            for t in range(horizon):
                slates = np.empty((B, k), dtype=int)
                greedy = np.ones(B, dtype=bool)
                for i in range(B):
                    if rng.random() < eps:
                        slates[i] = random_slate(pools[i], k, rng)
                        greedy[i] = False
                if greedy.any():
                    slates[greedy] = act(qnet, hists[greedy], pools[greedy])
                before = hists.copy()  # env.step pushes clicks into hists in place
                _, chosen, rewards = step(env, user, t, keys, hists, avail, pools, slates)
                if config.reward_mode is RewardMode.PLUS_MINUS_ONE:
                    rewards = np.where(chosen != NON_CLICK_ID, 1.0, -1.0)
                memory.add(ReplayBatch(before, slates, rewards, hists, pools,
                                       np.full(B, t == horizon - 1)))
                if len(memory) >= config.minibatch:
                    batch = memory.sample(config.minibatch, rng)
                    value, grads = loss(qnet, batch, target(qnet, batch))
                    if not np.isfinite(value):
                        raise TrainingDivergedError(it)
                    nets.sgd_step(qnet, grads, config.lr)
                    updates += 1
                    losses.append(value)
        except NonFiniteQError as exc:
            raise TrainingDivergedError(it) from exc
        if on_iteration is not None:
            on_iteration(it, {"epsilon": eps, "updates": updates,
                              "mean_td_loss": float(np.mean(losses)) if losses else float("nan")})
    return qnet


def train_cdqn(world: TrainingEnv, config: CDQNConfig,
               on_iteration: Callable[[int, dict], None] | None = None) -> CascadeQNet:
    """Cascaded TD learning with experience replay and epsilon-greedy exploration.

    Every position's network regresses on the shared target
    y = r + gamma * Q^k(next state, greedy cascade slate); the reported loss
    is the mean over positions. The act embeds a step's greedy sessions in one
    embed_history call and picks their slates in one cascade_slate call: a lone
    greedy session through the per-row cascade, two or more through cascade_batch."""
    catalog, k = world.env.catalog, world.env.config.k
    return _train_replay(
        world, config, k,
        act=lambda qnet, hists, pools: cascade_slate(
            qnet, nets.embed_history(hists, qnet.pw), pools, catalog),
        target=lambda qnet, batch: compute_target(
            batch.reward, batch.next_hist, batch.next_pool, qnet, catalog, config.gamma, batch.terminal),
        loss=lambda qnet, batch, targets: nets.td_value_and_grad(
            qnet, batch.hist, catalog.feature_matrix(batch.slate), targets),
        on_iteration=on_iteration)


# ---------------------------------------------------------------------------
# diagnostics and checkpoints


def constraint_diagnostic(qnet: CascadeQNet, hists: np.ndarray, pools: np.ndarray,
                          catalog: ItemCatalog) -> list[tuple[int, int, float, float]]:
    """Per state and position: (state_idx, j, Q^j at the greedy prefix, Q^k at the full slate).

    hists (N, d, m) and padded pools (see env.Policy) are the states. For mutually
    consistent networks every pair lies on the diagonal."""
    if len(hists) == 0:
        return []
    S = nets.embed_history(np.asarray(hists), qnet.pw)
    _, values = cascade_batch(qnet, S, pools, catalog)
    return [(idx, j, float(row[j - 1]), float(row[-1]))
            for idx, row in enumerate(values) for j in range(1, qnet.k + 1)]


def save_policy(path, qnet: CascadeQNet, extra_meta: dict[str, str] | None = None) -> None:
    """Write the Q-net with its shape; the last meta line records it as a cdqn policy,
    which load_policy checks."""
    meta = {"k": str(qnet.k), "d": str(qnet.pw.d), "m": str(qnet.pw.m), "n": str(qnet.pw.n),
            "hidden": str(qnet.heads[0].v.shape[0]), "activation": nets.ACTIVATION,
            **(extra_meta or {}), "policy_kind": PolicyKind.CDQN.value}
    nets.save_checkpoint(path, "cascade_policy", meta, {"": qnet})


def load_policy(path, **run: int) -> CascadeQNet:
    """The Q-net of a cdqn policy checkpoint, read as nets.load_checkpoint reads it; one that
    records another policy_kind raises ValueError naming the file."""
    def build(meta: dict[str, str], qnet: CascadeQNet) -> CascadeQNet:
        trained = meta.get("policy_kind", PolicyKind.CDQN.value)  # files written before it was recorded
        if trained != PolicyKind.CDQN.value:
            raise ValueError(f"a policy trained as {trained}, not {PolicyKind.CDQN.value}")
        return qnet

    return nets.load_checkpoint(path, "cascade_policy", {"": CascadeQNet}, build, **run)
