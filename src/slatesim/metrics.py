"""Experiment specs and the repeated-evaluation runner."""

from __future__ import annotations

import ctypes
import mmap
import os
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .agent import NonFiniteQError, PolicyHandle, PolicyKind, load_policy, make_policy
from .data import ItemCatalog, fmt, synth_catalog, write_lines
from .env import EnvConfig, SlateEnv, make_ground_truth_user, rollout_batch
from .training import UserModel, load_user_model


@dataclass
class MetricReport:
    policy: str
    n_users: int
    horizon: int
    repetitions: int
    avg_cumulative_reward: float
    std_cumulative_reward: float
    stderr_cumulative_reward: float
    ctr: float
    std_ctr: float
    stderr_ctr: float

    def __post_init__(self):
        if not (0.0 <= self.ctr <= 1.0):
            raise ValueError(f"ctr out of range: {self.ctr}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class RosterEntry:
    name: str
    kind: PolicyKind
    path: str | None = None


@dataclass
class ExperimentSpec:
    seed: int = 0
    catalog_size: int = 30
    dim: int = 8
    catalog_seed: int = 1
    user_model_path: str | None = None
    gt_m: int = 5
    gt_n: int = 4
    gt_hidden: int = 16
    gt_seed: int = 1
    gt_reward_scale: float = 1.0
    env: EnvConfig = field(default_factory=EnvConfig)
    n_users: int = 20
    repetitions: int = 50
    out_dir: str = "out"
    roster: list[RosterEntry] = field(default_factory=lambda: [RosterEntry("random", PolicyKind.RANDOM)])

    def __post_init__(self):
        if not self.roster:  # else the run evaluates nothing and writes a header-only aggregate.csv
            raise ValueError("roster must name at least one policy")
        names = [entry.name for entry in self.roster]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:  # else its metrics file is written twice and aggregate.csv repeats its row
            raise ValueError(f"roster names {repeated[0]!r} more than once")
        if not (np.isfinite(self.gt_reward_scale) and self.gt_reward_scale > 0):  # else no or reversed taste
            raise ValueError(f"gt_reward_scale must be finite and > 0, got {self.gt_reward_scale}")
        for name in ("catalog_size", "dim", "n_users", "repetitions", "gt_m", "gt_n", "gt_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def eval_env_seed(base_seed: int, user: int, rep: int, n_users: int) -> int:
    """Evaluation episodes live on odd seeds, disjoint from even training seeds."""
    return 2 * (base_seed + rep * n_users + user) + 1


def build_experiment_env(spec: ExperimentSpec, catalog: ItemCatalog | None = None
                         ) -> tuple[SlateEnv, UserModel, ItemCatalog]:
    """The spec's environment, user and catalog; the catalog is synthesised from the spec unless given."""
    if catalog is None:
        catalog = synth_catalog(spec.catalog_size, spec.dim, spec.catalog_seed)
    if spec.user_model_path is not None:
        user = load_user_model(spec.user_model_path, d=catalog.d)
    else:
        user = make_ground_truth_user(catalog, (spec.gt_m, spec.gt_n, spec.gt_hidden),
                                      spec.gt_seed, spec.gt_reward_scale)
    return SlateEnv(catalog=catalog, config=spec.env), user, catalog


def load_experiment(spec: ExperimentSpec):
    """The spec's environment and user, and its roster as (entry, policy) pairs, with
    every checkpoint loaded and checked against the run."""
    env, user, catalog = build_experiment_env(spec)
    policies = []
    for entry in spec.roster:
        if entry.kind is PolicyKind.CDQN:
            if entry.path is None:
                raise ValueError(f"roster policy {entry.name!r} names no checkpoint")
            handle = PolicyHandle(entry.kind, qnet=load_policy(entry.path, k=spec.env.k, d=catalog.d, m=user.m))
        elif entry.kind is PolicyKind.GREEDY_USER_MODEL:
            model = user if entry.path is None else load_user_model(entry.path, d=catalog.d, m=user.m)
            handle = PolicyHandle(entry.kind, user_model=model)
        else:
            handle = PolicyHandle(entry.kind)
        policies.append((entry, make_policy(handle, catalog, spec.env.k)))
    return env, user, policies


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell or cannot fork."""
    can_fork = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def _blas_threads(n: int) -> int | None:
    """Set numpy's OpenBLAS to n threads; returns the count it had, or None where none is found.

    Shard processes must not each keep a pool of spinning BLAS threads on the same CPUs:
    at OpenBLAS's default of one thread per CPU, a sharded evaluation ran slower than one
    process did."""
    try:  # the extension's handle also finds the symbols of the BLAS library it links
        lib = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
            had = getattr(lib, f"{prefix}_get_num_threads{suffix}")()
            getattr(lib, f"{prefix}_set_num_threads{suffix}")(n)
            return had
    return None


def _play(env: SlateEnv, user: UserModel, policies, seeds: list[int], T: int, out: np.ndarray) -> None:
    """Write each policy's (time-averaged reward, click rate) per seed into its rows of out
    (policies, seeds, 2), in roster order, up to the first policy that raises: its rows and
    the later policies' are left as they were. A policy that meets a warning is left
    unwritten too, its warnings unshown. run_experiment replays those over all rows in one
    process, which raises or warns once, as one process does."""
    for (_, policy), rows in zip(policies, out):
        try:
            with warnings.catch_warnings(record=True) as met:
                played = [(r, c / T) for _, r, c in rollout_batch(env, user, policy, seeds, T)]
        except Exception:  # whatever it was, the replay in one process raises it again
            break
        if not met:
            rows[...] = played


def _stats(rows: np.ndarray, reps: int) -> list[float]:
    """Mean, std (ddof 1 when reps > 1) and stderr over the reps of the per-rep means of each
    column of rep-major rows (reps x users, 2): the reward's three, then the click rate's."""
    stats = []
    for column in rows.T:
        per_rep = column.reshape(reps, -1).mean(axis=1)
        std = float(np.std(per_rep, ddof=1 if reps > 1 else 0))
        stats += [float(np.mean(per_rep)), std, std / np.sqrt(reps)]
    return stats


def run_experiment(spec: ExperimentSpec, loaded=None) -> list[MetricReport]:
    """Evaluate every roster policy on the same fixed set of test episodes.

    The n_users x repetitions episode rows are cut into one contiguous shard per usable
    CPU. This process plays the first shard of each policy of `loaded` (load_experiment(spec)
    if not given), and one forked child each other shard, in one rollout_batch per policy.
    Every process writes its rows into one NaN-filled array in shared memory; a policy with
    a row left NaN is replayed here over all rows, so it fails or warns as in one process. Writes
    one per-rollout metrics file per policy plus aggregate.csv; byte output is
    deterministic for a fixed spec."""
    env, user, policies = load_experiment(spec) if loaded is None else loaded
    os.makedirs(spec.out_dir, exist_ok=True)
    T, reps = spec.env.horizon, spec.repetitions
    episodes = [(u, rep) for rep in range(reps) for u in range(spec.n_users)]
    seeds = [eval_env_seed(spec.seed, u, rep, spec.n_users) for u, rep in episodes]
    shards = min(usable_cpus(), len(seeds))
    cuts = [len(seeds) * i // shards for i in range(shards + 1)]
    # (policies, rows, 2) float64s in anonymous pages the forks share, mapped before them
    out = np.frombuffer(mmap.mmap(-1, len(policies) * len(seeds) * 16)).reshape(len(policies), -1, 2)
    out.fill(np.nan)
    children: list[int] = []  # forked, not yet reaped
    blas = _blas_threads(1) if shards > 1 else None  # before the forks, which inherit it
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            pid = os.fork()
            if pid == 0:  # the child never returns: os._exit skips the caller's stack
                try:
                    _play(env, user, policies, seeds[lo:hi], T, out[:, lo:hi])
                finally:
                    os._exit(0)
            children.append(pid)
        _play(env, user, policies, seeds[:cuts[1]], T, out[:, :cuts[1]])
        while children:
            os.waitpid(children[-1], 0)
            children.pop()
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if blas is not None:
            _blas_threads(blas)
    reports = []
    agg_lines = ["policy,n_users,reps,horizon,avg_cum_reward,std_cum_reward,"
                 "stderr_cum_reward,avg_ctr,std_ctr,stderr_ctr"]
    for (entry, policy), rows in zip(policies, out):
        if np.isnan(rows).any():  # a shard could not play it: replay it here, to fail or warn as alone
            try:
                rows[...] = [(r, c / T) for _, r, c in rollout_batch(env, user, policy, seeds, T)]
            except NonFiniteQError as exc:
                raise ValueError(f"{entry.path}: policy {entry.name!r} cannot be evaluated: {exc}") from exc
        lines = ["user_id,rep,cum_reward,ctr"]
        lines += [f"{u},{rep},{fmt(cr)},{fmt(ct)}" for (u, rep), (cr, ct) in zip(episodes, rows.tolist())]
        write_lines(os.path.join(spec.out_dir, f"{entry.name}_metrics.csv"), lines)
        stats = _stats(rows, reps)
        reports.append(MetricReport(entry.name, spec.n_users, T, reps, *stats))
        agg_lines.append(",".join([f"{entry.name},{spec.n_users},{reps},{T}"] + [fmt(x) for x in stats]))
    write_lines(os.path.join(spec.out_dir, "aggregate.csv"), agg_lines)
    return reports
