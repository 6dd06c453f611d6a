"""Command-line pipelines: data generation, model/policy training, evaluation, diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from enum import EnumMeta

import numpy as np

from . import agent, metrics, nets, training
from .agent import CDQNConfig, PolicyKind, RewardMode
from .choice import Regularizer
from .data import fmt, load_trajectories, read_meta, save_trajectories, split_users, write_lines
from .env import EnvConfig, SlateEnv, rollout_batch
from .metrics import ExperimentSpec, RosterEntry, load_experiment, run_experiment
from .training import InitScheme, TrainConfig, UserModel, save_user_model


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            out[key.strip()] = val.strip()
    return out


def _one_of(choices: tuple[str, ...]):
    """Cast for a string option restricted to `choices` (shared with the argparse flag)."""
    def cast(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"{raw!r} is not one of {', '.join(choices)}")
        return raw
    cast.choices = choices
    return cast


# Every flag of every subcommand, declared once: name -> cast. The cast parses
# the flag and its config-file key alike; an enum flag parses with its
# constructor and offers the enum's values as argparse choices.
_FLAGS = {
    # common
    "seed": int, "out": str, "config": str,
    # catalog
    "data": str, "catalog-size": int, "dim": int, "catalog-seed": int,
    # ground-truth user
    "user-model": str, "gt-seed": int, "gt-m": int, "gt-n": int, "gt-hidden": int,
    "gt-reward-scale": float,
    # env
    "k": int, "pool-size": int, "horizon": int, "nonclick-reward": float,
    # scorer architecture (gen-data, train-user-model, train-policy)
    "m": int, "n": int, "hidden": int,
    # gen-data
    "users": int, "reward-scale": float,
    # train-user-model
    "epochs": int, "batch-size": int, "lr-theta": float, "lr-alpha": float, "eta": float,
    "regularizer": Regularizer, "init-scheme": InitScheme,
    "method": _one_of(("mle", "minimax")), "patience": int,
    # train-policy
    "gamma": float, "epsilon": float, "epsilon-final": float, "iterations": int,
    "batch-users": int, "minibatch": int, "lr": float, "capacity": int,
    "reward-mode": RewardMode, "policy-kind": _one_of(tuple(kind.value for kind in agent.Q_KINDS)),
    # evaluate
    "spec": str, "roster": str, "policy": str, "policy-cdqn": str, "policy-additive": str,
    "greedy-user-model": str, "n-users": int, "reps": int,
    # diagnose-q, gradcheck
    "states": int, "trials": int, "dims-max": int,
}
_COMMON = ("seed", "out", "config")
_CATALOG = ("catalog-size", "dim", "catalog-seed")
_USER = ("user-model", "gt-seed", "gt-m", "gt-n", "gt-hidden", "gt-reward-scale")
_ENV = ("k", "pool-size", "horizon", "nonclick-reward")


class _Options:
    """Merge order: CLI flag beats config-file value beats default.

    Both sources go through the flag's cast from `_FLAGS`, so a bad
    config-file value names the file and the key. A flag the subcommand does
    not take resolves to the default, so one config file can serve every
    stage of a pipeline."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str], path: str | None = None):
        self.args = args
        self.config = config
        self.path = path

    def get(self, name: str, default=None):
        if name not in self.args.flags:
            return default
        cast = _FLAGS[name]
        cli_val = getattr(self.args, name.replace("-", "_"))
        if cli_val is not None:
            return cast(cli_val)
        if name in self.config:
            try:
                return cast(self.config[name])
            except ValueError as exc:
                raise ValueError(f"{self.path}: bad value for key {name!r}: {exc}") from None
        return default

    def fields(self, cls, **given):
        """Build the config dataclass `cls` from the options that are set.

        A field takes its `given` value unless that is None, else the value of
        its flag (field `a_b`, flag `a-b`) when the CLI or the config file sets
        it; every other field keeps the dataclass default."""
        for field in dataclasses.fields(cls):
            if given.get(field.name) is None:
                given[field.name] = self.get(field.name.replace("_", "-"))
        return cls(**{name: value for name, value in given.items() if value is not None})

    def file(self, name: str, required: bool = False) -> str | None:
        """The path flag `name` names, which must exist; None when unset and not required."""
        path = self.get(name)
        if not path:
            if required:
                raise ValueError(f"--{name} is required")
            return None
        if not os.path.exists(path):
            raise FileNotFoundError(f"--{name} file not found: {path}")
        return path


def _load_options(args: argparse.Namespace) -> _Options:
    config: dict[str, str] = {}
    path = args.config
    if path:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        config = parse_config_file(path)
        unknown = [key for key in config if key not in _FLAGS]
        if unknown:
            raise ValueError(f"{path}: unknown key {unknown[0]!r}")
    return _Options(args, config, path)


def _out_dir(opt: _Options) -> str:
    out_dir = opt.get("out", ExperimentSpec.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _horizon(opt: _Options, default: int, needs: str) -> int:
    """The --horizon option, refused below 1 before any output is made."""
    horizon = opt.get("horizon", default)
    if horizon < 1:
        raise ValueError(f"--horizon must be >= 1 {needs}, got {horizon}")
    return horizon


def _world(opt: _Options, **env_fields) -> tuple[ExperimentSpec, SlateEnv, UserModel]:
    """The options' experiment spec (`env_fields` fix EnvConfig fields), its env and its user.

    --data, when given, supplies the catalog in place of the spec's synthetic one."""
    spec = _experiment_spec(opt, **env_fields)
    data_path = opt.file("data")
    catalog = load_trajectories(data_path)[0] if data_path else None
    env, user, _ = metrics.build_experiment_env(spec, catalog)
    return spec, env, user


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    seed = opt.get("seed", 0)
    users = opt.get("users", 50)
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    horizon = _horizon(opt, 20, "to log any record")
    k = opt.get("k", 5)
    pool_size = opt.get("pool-size", 20)
    K = opt.get("catalog-size", 50)
    d = opt.get("dim", 8)
    m = opt.get("m", 5)
    n = opt.get("n", 4)
    hidden = opt.get("hidden", 16)
    reward_scale = opt.get("reward-scale", 1.0)
    spec = ExperimentSpec(catalog_size=K, dim=d, catalog_seed=seed, gt_m=m, gt_n=n, gt_hidden=hidden,
                          gt_seed=seed + 1, gt_reward_scale=reward_scale,
                          env=EnvConfig(k=k, pool_size=pool_size, horizon=horizon))
    out_dir = _out_dir(opt)
    env, user, catalog = metrics.build_experiment_env(spec)
    policy = agent.make_policy(agent.PolicyHandle(PolicyKind.RANDOM), catalog, k)
    results = rollout_batch(env, user, policy, [2 * (seed + u) for u in range(users)],
                            T=horizon, user_ids=range(users))
    trajectories = [traj for traj, _, _ in results]
    _log(f"[gen-data] simulated {users} users")
    data_path = os.path.join(out_dir, "data.txt")
    save_trajectories(catalog, trajectories, data_path, m=m)
    user_path = os.path.join(out_dir, "ground_truth_user.ckpt")
    save_user_model(user_path, user)
    _log(f"[gen-data] wrote {data_path} and {user_path}")
    return 0


def cmd_train_user_model(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    data_path = opt.file("data", required=True)
    _, m, _ = read_meta(data_path)
    catalog, trajectories = load_trajectories(data_path)
    if not trajectories:
        raise ValueError(f"{data_path}: the log holds no click record to fit")
    # --m falls back to the history length the data file was written with
    config = opt.fields(TrainConfig, m=opt.get("m", m if m > 0 else None))
    out_dir = _out_dir(opt)
    split = split_users([t.user_id for t in trajectories], seed=config.seed)
    train = [t for t in trajectories if t.user_id in split.train]
    valid = [t for t in trajectories if t.user_id in split.valid]
    test = [t for t in trajectories if t.user_id in split.test]
    _log(f"[train-user-model] users: {len(train)} train / {len(valid)} valid / {len(test)} test")
    log_lines = ["epoch,train_nll,valid_nll,prec1"]

    def on_epoch(epoch: int, stats: dict) -> None:
        train_nll = stats.get("train_nll", stats.get("objective", float("nan")))
        log_lines.append(",".join([str(epoch)] + [fmt(x) for x in (
            train_nll, stats.get("valid_nll", float("nan")), stats.get("prec1", float("nan")))]))
        _log(f"[train-user-model] epoch={epoch} " +
             " ".join(f"{k}={v:.5g}" for k, v in stats.items()))

    method = opt.get("method", "minimax" if config.regularizer is Regularizer.L2 else "mle")
    if method == "mle":
        model = training.train_mle(catalog, train, config, valid=valid, on_epoch=on_epoch)
    else:
        model = training.train_minimax(catalog, train, config, valid=valid, on_epoch=on_epoch)
    ckpt = os.path.join(out_dir, "user_model.ckpt")
    save_user_model(ckpt, model)
    write_lines(os.path.join(out_dir, "train_log.csv"), log_lines)
    if test:
        test_examples = training.build_examples(catalog, test, config.m)
        prec1 = training.precision_at_k(model, test_examples, 1)
        loglik = training.heldout_loglik(model, test_examples)
        _log(f"[train-user-model] test prec@1={prec1:.4f} heldout_loglik={loglik:.4f}")
    _log(f"[train-user-model] wrote {ckpt}")
    return 0


def cmd_train_policy(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    _, env, user = _world(opt)
    # the two defaults of this command that differ from CDQNConfig's
    epsilon, iterations = opt.get("epsilon", 0.2), opt.get("iterations", 150)
    config = opt.fields(CDQNConfig, horizon=env.config.horizon, epsilon=epsilon, iterations=iterations)
    out_dir = _out_dir(opt)
    # training episodes stay on even seeds; evaluation uses odd ones
    world = agent.make_env_factory(env, user, 2 * config.seed)

    def on_iteration(it: int, stats: dict) -> None:
        if (it + 1) % max(1, config.iterations // 10) == 0:
            _log(f"[train-policy] iter={it + 1}/{config.iterations} "
                 f"td_loss={stats['mean_td_loss']:.5g} eps={stats['epsilon']:.3f}")

    kind = PolicyKind(opt.get("policy-kind", PolicyKind.CDQN.value))
    if kind is PolicyKind.ADDITIVE_Q:
        qnet = agent.train_additive_q(world, config, on_iteration=on_iteration)
    else:
        qnet = agent.train_cdqn(world, config, on_iteration=on_iteration)
    ckpt = os.path.join(out_dir, "policy.ckpt")
    agent.save_policy(ckpt, qnet, kind, extra_meta={"reward_mode": config.reward_mode.value})
    _log(f"[train-policy] wrote {ckpt}")
    return 0


def _roster(opt: _Options) -> list[RosterEntry] | None:
    names = opt.get("roster")
    if names is None:
        return None
    roster = []
    for name in filter(None, (name.strip() for name in names.split(","))):
        try:
            kind = PolicyKind(name)
        except ValueError:
            choices = sorted(member.value for member in PolicyKind)
            raise ValueError(f"unknown roster policy {name!r}; choose from {choices}") from None
        path = None
        if kind in agent.Q_KINDS:
            path = opt.get(f"policy-{name}") or opt.get("policy")
            if path is None:
                raise ValueError(f"roster policy {name!r} needs a checkpoint: "
                                 f"pass --policy-{name} or --policy")
        elif kind is PolicyKind.GREEDY_USER_MODEL:
            path = opt.get("greedy-user-model")
        roster.append(RosterEntry(name, kind, path))
    return roster


def _experiment_spec(opt: _Options, **env_fields) -> ExperimentSpec:
    return opt.fields(ExperimentSpec, env=opt.fields(EnvConfig, **env_fields), roster=_roster(opt),
                      user_model_path=opt.get("user-model"), out_dir=opt.get("out"),
                      repetitions=opt.get("reps"))


def cmd_evaluate(args: argparse.Namespace) -> int:
    spec_path = args.spec
    if spec_path and args.config:
        raise ValueError(f"--config {args.config} and --spec {spec_path} are both given; "
                         "pass one of them")
    if spec_path:
        if not os.path.exists(spec_path):
            raise FileNotFoundError(f"spec file not found: {spec_path}")
        args.config = spec_path
    opt = _load_options(args)
    spec = _experiment_spec(opt)
    loaded = load_experiment(spec)
    _log(f"[evaluate] {len(spec.roster)} policies x {spec.repetitions} reps x {spec.n_users} users")
    reports = run_experiment(spec, loaded=loaded)
    for rep in reports:
        print(f"{rep.policy}: avg_cum_reward={rep.avg_cumulative_reward:.6g} "
              f"(+-{rep.stderr_cumulative_reward:.3g}) ctr={rep.ctr:.4f} "
              f"(+-{rep.stderr_ctr:.3g})")
    _log(f"[evaluate] wrote metrics to {spec.out_dir}")
    return 0


def cmd_diagnose_q(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    policy_path = opt.file("policy", required=True)
    qnet = agent.load_policy(policy_path, PolicyKind.CDQN)
    _horizon(opt, EnvConfig.horizon, "to visit states")
    spec, env, user = _world(opt, k=qnet.k)
    metrics.check_fits(policy_path, d=(qnet.pw.d, env.catalog.d), m=(qnet.pw.m, user.m))
    out_dir = _out_dir(opt)
    try:
        hists, pools = collect_states(env, user, qnet, opt.get("states", 500), spec.seed)
        rows = agent.constraint_diagnostic(qnet, hists, pools, env.catalog)
    except agent.NonFiniteQError as exc:
        raise ValueError(f"{policy_path}: policy cannot be diagnosed: {exc}") from exc
    lines = ["state_idx,j,qj,qk"]
    lines += [f"{idx},{j},{fmt(qj)},{fmt(qk)}" for idx, j, qj, qk in rows]
    path = os.path.join(out_dir, "q_constraints.csv")
    write_lines(path, lines)
    for j in range(1, qnet.k + 1):
        qj = np.array([r[2] for r in rows if r[1] == j])
        qk = np.array([r[3] for r in rows if r[1] == j])
        corr = pearson(qj, qk)
        print(f"j={j} pearson={corr:.4f}")
    _log(f"[diagnose-q] wrote {path}")
    return 0


def collect_states(env: SlateEnv, user, qnet, n_states: int, seed: int):
    """Gather visited (history, pool) pairs by rolling the greedy cascade on odd seeds.

    Episode e runs on seed 2 * (seed + e) + 1, and its states are taken in
    step order, episode after episode, until n_states are in hand. The
    episodes play make_policy's cdqn policy through one rollout_batch, which
    records every step's histories and pools before it acts. Returns the
    histories (N, d, m) and the padded pools as an (ids, mask) pair of (N, P) arrays."""
    horizon = env.config.horizon
    if n_states <= 0:
        return [], ([], [])
    if horizon < 1:
        raise ValueError(f"--horizon must be >= 1 to visit states, got {horizon}")
    seeds = [2 * (seed + e) + 1 for e in range(-(-n_states // horizon))]
    cascade = agent.make_policy(agent.PolicyHandle(PolicyKind.CDQN, qnet=qnet), env.catalog, qnet.k)
    visited = []

    def recording(hists, pools, row_rng):
        visited.append((hists.copy(), *(a.copy() for a in pools)))
        return cascade(hists, pools, row_rng)

    rollout_batch(env, user, recording, seeds, T=min(horizon, n_states))
    # each recorded array stacked (episodes, steps, ...) and read episode after episode
    hists, ids, mask = (np.stack(arrays, axis=1).reshape(-1, *arrays[0].shape[1:])[:n_states]
                        for arrays in zip(*visited))
    return hists, (ids, mask)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    sx, sy = np.std(x), np.std(y)
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def cmd_gradcheck(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    seed = opt.get("seed", 0)
    trials = opt.get("trials", 100)
    err = nets.run_gradient_check(seed=seed, trials=trials, dims_max=opt.get("dims-max", 6))
    print(f"max relative error {err:.3e}")
    return 0 if err <= 1e-4 else 1


# ---------------------------------------------------------------------------
# argument wiring


_COMMANDS = {
    "gen-data": (cmd_gen_data, "simulate click logs from a synthetic user",
                 _COMMON + ("users", "horizon", "k", "pool-size", "catalog-size", "dim",
                            "m", "n", "hidden", "reward-scale")),
    "train-user-model": (cmd_train_user_model, "fit the choice model from a click log",
                         _COMMON + ("data", "epochs", "batch-size", "lr-theta", "lr-alpha", "eta",
                                    "regularizer", "init-scheme", "method", "m", "n", "hidden",
                                    "patience")),
    "train-policy": (cmd_train_policy, "train a slate policy against a user model",
                     _COMMON + ("data",) + _CATALOG + _USER + _ENV
                     + ("gamma", "epsilon", "epsilon-final", "iterations", "batch-users",
                        "minibatch", "lr", "capacity", "n", "hidden", "reward-mode",
                        "policy-kind")),
    "evaluate": (cmd_evaluate, "evaluate a policy roster on fixed test episodes",
                 _COMMON + ("spec", "roster", "policy", "policy-cdqn", "policy-additive",
                            "greedy-user-model") + _CATALOG + _USER + _ENV
                 + ("n-users", "reps")),
    "diagnose-q": (cmd_diagnose_q, "export per-position cascade values for a policy",
                   _COMMON + ("policy", "data") + _CATALOG + _USER
                   + ("pool-size", "horizon", "states")),
    "gradcheck": (cmd_gradcheck, "finite-difference check of all analytic gradients",
                  _COMMON + ("trials", "dims-max")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slatesim",
                                     description="Simulated slate recommendation pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in flags:
            cast = _FLAGS[name]
            if isinstance(cast, EnumMeta):
                p.add_argument(f"--{name}", choices=[member.value for member in cast])
            elif hasattr(cast, "choices"):
                p.add_argument(f"--{name}", choices=cast.choices)
            else:
                p.add_argument(f"--{name}", type=cast)
        p.set_defaults(func=func, flags=frozenset(flags))
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Exit codes: 0 success, 1 runtime failure, 2 argument/input errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        _log(f"error: {exc}")
        return 2
    except Exception as exc:  # runtime failure
        _log(f"runtime error: {type(exc).__name__}: {exc}")
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
