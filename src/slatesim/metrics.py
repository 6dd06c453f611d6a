"""Experiment specs and the repeated-evaluation runner."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .agent import Q_KINDS, NonFiniteQError, PolicyHandle, PolicyKind, load_policy, make_policy
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
        if self.repetitions < 1 or self.n_users < 1:
            raise ValueError("repetitions and n_users must be >= 1")
        if not (np.isfinite(self.gt_reward_scale) and self.gt_reward_scale > 0):  # else no or reversed taste
            raise ValueError(f"gt_reward_scale must be finite and > 0, got {self.gt_reward_scale}")
        for name in ("gt_m", "gt_n", "gt_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def eval_env_seed(base_seed: int, user: int, rep: int, n_users: int) -> int:
    """Evaluation episodes live on odd seeds, disjoint from even training seeds."""
    return 2 * (base_seed + rep * n_users + user) + 1


def check_fits(path: str, **dims: tuple[int, int]) -> None:
    """Refuse a checkpoint whose dimensions differ from the run's: name=(checkpoint's, run's)."""
    wrong = [f"{name}={have} where the run has {name}={want}"
             for name, (have, want) in dims.items() if have != want]
    if wrong:
        raise ValueError(f"{path} does not fit the run: {', '.join(wrong)}")


def build_experiment_env(spec: ExperimentSpec, catalog: ItemCatalog | None = None
                         ) -> tuple[SlateEnv, UserModel, ItemCatalog]:
    """The spec's environment, user and catalog; the catalog is synthesised from the spec unless given."""
    if catalog is None:
        catalog = synth_catalog(spec.catalog_size, spec.dim, spec.catalog_seed)
    if spec.user_model_path is not None:
        if not os.path.exists(spec.user_model_path):
            raise FileNotFoundError(f"user model checkpoint not found: {spec.user_model_path}")
        user = load_user_model(spec.user_model_path)
        check_fits(spec.user_model_path, d=(user.d, catalog.d))
    else:
        user = make_ground_truth_user(catalog, (spec.gt_m, spec.gt_n, spec.gt_hidden),
                                      spec.gt_seed, spec.gt_reward_scale)
    size, env = len(catalog.item_ids), spec.env
    # refused before any run starts: every step also draws the next step's pool, so k
    # items must outlast `horizon` clicks (draw_candidates raises EnvError mid-run)
    if size - env.horizon < env.k:
        raise ValueError(f"a catalog of {size} items minus a horizon of {env.horizon} clicks "
                         f"leaves fewer than k={env.k} items for a slate")
    return SlateEnv(catalog=catalog, config=env), user, catalog


def load_experiment(spec: ExperimentSpec):
    """The spec's environment and user, and its roster as (entry, policy) pairs, with
    every checkpoint loaded and checked against the run."""
    env, user, catalog = build_experiment_env(spec)
    policies = []
    for entry in spec.roster:
        if entry.kind in Q_KINDS:
            if entry.path is None or not os.path.exists(entry.path):
                raise FileNotFoundError(f"policy checkpoint not found: {entry.path}")
            qnet = load_policy(entry.path, entry.kind)
            # the additive baseline ranks with its single-item head, whatever the slate size
            if entry.kind is PolicyKind.CDQN:
                check_fits(entry.path, k=(qnet.k, spec.env.k))
            check_fits(entry.path, d=(qnet.pw.d, catalog.d), m=(qnet.pw.m, user.m))
            handle = PolicyHandle(entry.kind, qnet=qnet)
        elif entry.kind is PolicyKind.GREEDY_USER_MODEL:
            model = user
            if entry.path is not None:
                if not os.path.exists(entry.path):
                    raise FileNotFoundError(f"user model checkpoint not found: {entry.path}")
                model = load_user_model(entry.path)
                check_fits(entry.path, d=(model.d, catalog.d), m=(model.m, user.m))
            handle = PolicyHandle(entry.kind, user_model=model)
        else:
            handle = PolicyHandle(entry.kind)
        policies.append((entry, make_policy(handle, catalog, spec.env.k)))
    return env, user, policies


def run_experiment(spec: ExperimentSpec, loaded=None) -> list[MetricReport]:
    """Evaluate every roster policy on the same fixed set of test episodes.

    Each policy of `loaded` (load_experiment(spec) if not given) plays all n_users x
    repetitions episodes in one rollout_batch. Writes one per-rollout metrics file per
    policy plus aggregate.csv; byte output is deterministic for a fixed spec."""
    env, user, policies = load_experiment(spec) if loaded is None else loaded
    os.makedirs(spec.out_dir, exist_ok=True)
    T = spec.env.horizon
    if T < 1:
        raise ValueError("experiment horizon must be >= 1")
    reports = []
    agg_lines = ["policy,n_users,reps,horizon,avg_cum_reward,std_cum_reward,"
                 "stderr_cum_reward,avg_ctr,std_ctr,stderr_ctr"]
    episodes = [(u, rep) for rep in range(spec.repetitions) for u in range(spec.n_users)]
    seeds = [eval_env_seed(spec.seed, u, rep, spec.n_users) for u, rep in episodes]
    for entry, policy in policies:
        name = entry.name
        try:
            results = rollout_batch(env, user, policy, seeds, T, [u for u, _ in episodes])
        except NonFiniteQError as exc:
            raise ValueError(f"{entry.path}: policy {name!r} cannot be evaluated: {exc}") from exc
        rows = [(u, rep, avg_reward, clicks / T)
                for (u, rep), (_, avg_reward, clicks) in zip(episodes, results)]
        lines = ["user_id,rep,cum_reward,ctr"]
        lines += [f"{u},{rep},{fmt(cr)},{fmt(ct)}" for u, rep, cr, ct in rows]
        write_lines(os.path.join(spec.out_dir, f"{name}_metrics.csv"), lines)
        # rows are rep-major, so each rep's users are one row of the reshape
        per_rep_reward = np.array([cr for _, _, cr, _ in rows]).reshape(spec.repetitions, -1).mean(axis=1)
        per_rep_ctr = np.array([ct for _, _, _, ct in rows]).reshape(spec.repetitions, -1).mean(axis=1)
        ddof = 1 if spec.repetitions > 1 else 0
        std_r = float(np.std(per_rep_reward, ddof=ddof))
        std_c = float(np.std(per_rep_ctr, ddof=ddof))
        report = MetricReport(
            policy=name,
            n_users=spec.n_users,
            horizon=T,
            repetitions=spec.repetitions,
            avg_cumulative_reward=float(np.mean(per_rep_reward)),
            std_cumulative_reward=std_r,
            stderr_cumulative_reward=std_r / np.sqrt(spec.repetitions),
            ctr=float(np.mean(per_rep_ctr)),
            std_ctr=std_c,
            stderr_ctr=std_c / np.sqrt(spec.repetitions),
        )
        reports.append(report)
        agg_lines.append(
            f"{name},{spec.n_users},{spec.repetitions},{T},"
            f"{fmt(report.avg_cumulative_reward)},{fmt(report.std_cumulative_reward)},"
            f"{fmt(report.stderr_cumulative_reward)},{fmt(report.ctr)},"
            f"{fmt(report.std_ctr)},{fmt(report.stderr_ctr)}"
        )
    write_lines(os.path.join(spec.out_dir, "aggregate.csv"), agg_lines)
    return reports
