"""Command-line pipelines: data generation, model/policy training, evaluation, diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from enum import EnumMeta

import numpy as np

from . import agent, metrics, nets, training
from .agent import CDQNConfig, PolicyKind, RewardMode
from .choice import Regularizer
from .data import fmt, load_trajectories, read_lines, read_meta, save_trajectories, split_users, write_lines
from .env import EnvConfig, SlateEnv, rollout_batch
from .metrics import ExperimentSpec, RosterEntry, load_experiment, run_experiment
from .training import InitScheme, TrainConfig, UserModel, save_user_model


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        out[key.strip()] = val.strip()
    return out


def _seed(raw: str) -> int:
    """Cast for a seed option: an integer >= 0, as numpy's generators take."""
    seed = int(raw)
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {seed}")
    return seed


_seed.__name__ = "non-negative seed"  # argparse's error reads "invalid non-negative seed value"


# Every flag of every subcommand, declared once: name -> cast. The cast parses
# the flag and its config-file key alike; an enum flag parses with its
# constructor and offers the enum's values as argparse choices.
_FLAGS = {
    # common
    "seed": _seed, "out": str, "config": str,
    # catalog
    "data": str, "catalog-size": int, "dim": int, "catalog-seed": _seed,
    # ground-truth user
    "user-model": str, "gt-seed": _seed, "gt-m": int, "gt-n": int, "gt-hidden": int,
    "gt-reward-scale": float,
    # env
    "k": int, "pool-size": int, "horizon": int,
    # scorer architecture (train-user-model, train-policy)
    "m": int, "n": int, "hidden": int,
    # gen-data
    "users": int,
    # train-user-model
    "epochs": int, "batch-size": int, "lr-theta": float, "lr-alpha": float, "eta": float,
    "regularizer": Regularizer, "init-scheme": InitScheme, "patience": int,
    # train-policy
    "gamma": float, "epsilon": float, "epsilon-final": float, "iterations": int,
    "batch-users": int, "minibatch": int, "lr": float, "capacity": int,
    "reward-mode": RewardMode,
    # evaluate
    "roster": str, "policy": str, "greedy-user-model": str, "n-users": int, "reps": int,
    # diagnose-q, gradcheck
    "states": int, "trials": int, "dims-max": int,
}
_COMMON = ("seed", "out", "config")
_CATALOG = ("catalog-size", "dim", "catalog-seed")
_USER = ("user-model", "gt-seed", "gt-m", "gt-n", "gt-hidden", "gt-reward-scale")
_ENV = ("k", "pool-size", "horizon")


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
        """The path flag `name` names, for its reader to open; None when unset and not required."""
        path = self.get(name)
        if not path and required:
            raise ValueError(f"--{name} is required")
        return path or None


def _load_options(args: argparse.Namespace) -> _Options:
    config: dict[str, str] = {}
    path = args.config
    if path:
        config = parse_config_file(path)
        unknown = [key for key in config if key not in _FLAGS]
        if unknown:
            raise ValueError(f"{path}: unknown key {unknown[0]!r}")
    return _Options(args, config, path)


def _out_dir(opt: _Options) -> str:
    out_dir = opt.get("out", ExperimentSpec.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _episode_seeds(seed: int, episodes: int, parity: int) -> None:
    """Refuse --seed before any output is made when the last of `episodes` episode
    seeds 2 * (seed + i) + parity reaches 2**64, which the rollouts refuse mid-run."""
    last = 2 * (seed + episodes - 1) + parity
    if episodes > 0 and last >= 2**64:
        raise ValueError(f"--seed {seed} is too large for {episodes} episodes: "
                         f"episode seed {last} reaches 2**64")


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
    users = opt.get("users", 50)
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    # gen-data's own world: 50 items, k 5, pool 20; its catalog seeded --seed, its user --seed + 1
    seed = opt.get("seed", 0)
    env_config = opt.fields(EnvConfig, k=opt.get("k", 5), horizon=opt.get("horizon", 20))
    spec = opt.fields(ExperimentSpec, catalog_size=opt.get("catalog-size", 50), catalog_seed=seed,
                      gt_seed=seed + 1, env=env_config)
    _episode_seeds(seed, users, 0)
    env, user, catalog = metrics.build_experiment_env(spec)
    out_dir = _out_dir(opt)
    policy = agent.make_policy(agent.PolicyHandle(PolicyKind.RANDOM), catalog, spec.env.k)
    results = rollout_batch(env, user, policy, [2 * (seed + u) for u in range(users)],
                            user_ids=range(users))
    trajectories = [traj for traj, _, _ in results]
    _log(f"[gen-data] simulated {users} users")
    data_path = os.path.join(out_dir, "data.txt")
    save_trajectories(catalog, trajectories, data_path, m=user.m)
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
    # the entropy rule's inner maximum is closed-form, so its minimax fit is maximum likelihood;
    # train_log.csv's columns are the per-epoch stats the estimator reports
    fit, columns = training.train_mle, ("train_nll", "valid_nll", "prec1")
    if config.regularizer is Regularizer.L2:
        fit, columns = training.train_minimax, ("objective", "valid_nll")
    out_dir = _out_dir(opt)
    split = split_users([t.user_id for t in trajectories], seed=config.seed)
    train, valid, test = ([t for t in trajectories if t.user_id in users] for users in split)
    _log(f"[train-user-model] users: {len(train)} train / {len(valid)} valid / {len(test)} test")
    log_lines = [",".join(("epoch",) + columns)]

    def on_epoch(epoch: int, stats: dict) -> None:
        # prec1 is nan when the scored split has no click
        log_lines.append(",".join([str(epoch)] + [fmt(stats.get(name, float("nan"))) for name in columns]))
        _log(f"[train-user-model] epoch={epoch} " + " ".join(f"{k}={v:.5g}" for k, v in stats.items()))

    with warnings.catch_warnings(record=True) as caught:  # the fit's warnings, each shown once
        warnings.simplefilter("always")
        try:
            model = fit(catalog, train, config, valid=valid, on_epoch=on_epoch)
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                _log(f"[train-user-model] warning: {message}")
    ckpt = os.path.join(out_dir, "user_model.ckpt")
    save_user_model(ckpt, model)
    write_lines(os.path.join(out_dir, "train_log.csv"), log_lines)
    if test:
        test_examples = training.build_examples(catalog, test, config.m)
        # a test split without a click has no prec@1, as the per-epoch stats skip it
        prec1 = (f" prec@1={training.precision_at_k(model, test_examples, 1):.4f}"
                 if test_examples.clicked.any() else "")
        with warnings.catch_warnings(record=True) as caught:  # an L2 model's clamped records
            warnings.simplefilter("always")
            loglik = training.heldout_loglik(model, test_examples)
        notes = [str(w.message) for w in caught]
        uniform = float(np.mean(-np.log(test_examples.slots[test_examples.rows])))  # p = 1/slots a record
        notes += [f"no better than a uniform guess, {uniform:.4f}"] if loglik <= uniform else []
        _log(f"[train-user-model] test{prec1} heldout_loglik={loglik:.4f}" + "".join(f" ({n})" for n in notes))
    _log(f"[train-user-model] wrote {ckpt}")
    return 0


def cmd_train_policy(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    _, env, user = _world(opt)
    # the two defaults of this command that differ from CDQNConfig's
    epsilon, iterations = opt.get("epsilon", 0.2), opt.get("iterations", 150)
    config = opt.fields(CDQNConfig, horizon=env.config.horizon, epsilon=epsilon, iterations=iterations)
    _episode_seeds(config.seed, config.iterations * config.batch_users, 0)
    out_dir = _out_dir(opt)
    # training episodes stay on even seeds; evaluation uses odd ones
    world = agent.make_env_factory(env, user, 2 * config.seed)

    def on_iteration(it: int, stats: dict) -> None:
        if (it + 1) % max(1, config.iterations // 10) == 0:
            _log(f"[train-policy] iter={it + 1}/{config.iterations} "
                 f"td_loss={stats['mean_td_loss']:.5g} eps={stats['epsilon']:.3f}")

    qnet = agent.train_cdqn(world, config, on_iteration=on_iteration)
    ckpt = os.path.join(out_dir, "policy.ckpt")
    agent.save_policy(ckpt, qnet, extra_meta={"reward_mode": config.reward_mode.value})
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
        if kind is PolicyKind.CDQN:
            path = opt.get("policy")
            if path is None:
                raise ValueError(f"roster policy {name!r} needs a checkpoint: pass --policy")
        elif kind is PolicyKind.GREEDY_USER_MODEL:
            path = opt.get("greedy-user-model")
        roster.append(RosterEntry(name, kind, path))
    if not roster:
        raise ValueError(f"--roster names no policy: {names!r}")
    return roster


def _experiment_spec(opt: _Options, **env_fields) -> ExperimentSpec:
    return opt.fields(ExperimentSpec, env=opt.fields(EnvConfig, **env_fields), roster=_roster(opt),
                      user_model_path=opt.get("user-model"), out_dir=opt.get("out"),
                      repetitions=opt.get("reps"))


def cmd_evaluate(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    spec = _experiment_spec(opt)
    _episode_seeds(spec.seed, spec.n_users * spec.repetitions, 1)
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
    n_states = opt.get("states", 500)
    if n_states < 1:  # else every correlation is NaN over no state
        raise ValueError(f"states must be >= 1, got {n_states}")
    policy_path = opt.file("policy", required=True)
    qnet = agent.load_policy(policy_path)
    spec, env, user = _world(opt, k=qnet.k)
    nets.check_fits(policy_path, qnet, d=env.catalog.d, m=user.m)
    _episode_seeds(spec.seed, -(-n_states // env.config.horizon), 1)
    out_dir = _out_dir(opt)
    try:
        hists, pools = collect_states(env, user, qnet, n_states, spec.seed)
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
    histories (N, d, m) and the padded pools (N, P) (see env.Policy)."""
    horizon = env.config.horizon
    if n_states <= 0:
        return [], []
    seeds = [2 * (seed + e) + 1 for e in range(-(-n_states // horizon))]
    cascade = agent.make_policy(agent.PolicyHandle(PolicyKind.CDQN, qnet=qnet), env.catalog, qnet.k)
    visited = []

    def recording(hists, pools, row_rng):
        visited.append((hists.copy(), pools.copy()))
        return cascade(hists, pools, row_rng)

    rollout_batch(env, user, recording, seeds, T=min(horizon, n_states))
    # each recorded array stacked (episodes, steps, ...) and read episode after episode
    hists, pools = (np.stack(arrays, axis=1).reshape(-1, *arrays[0].shape[1:])[:n_states]
                    for arrays in zip(*visited))
    return hists, pools


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
                            "gt-m", "gt-n", "gt-hidden", "gt-reward-scale")),
    "train-user-model": (cmd_train_user_model, "fit the choice model from a click log",
                         _COMMON + ("data", "epochs", "batch-size", "lr-theta", "lr-alpha", "eta",
                                    "regularizer", "init-scheme", "m", "n", "hidden",
                                    "patience")),
    "train-policy": (cmd_train_policy, "train a slate policy against a user model",
                     _COMMON + ("data",) + _CATALOG + _USER + _ENV
                     + ("gamma", "epsilon", "epsilon-final", "iterations", "batch-users",
                        "minibatch", "lr", "capacity", "n", "hidden", "reward-mode")),
    "evaluate": (cmd_evaluate, "evaluate a policy roster on fixed test episodes",
                 _COMMON + ("roster", "policy", "greedy-user-model") + _CATALOG + _USER + _ENV
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
        # allow_abbrev=False: a flag has one name, as its config-file key does
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in flags:
            cast = _FLAGS[name]
            if isinstance(cast, EnumMeta):
                p.add_argument(f"--{name}", choices=[member.value for member in cast])
            else:
                p.add_argument(f"--{name}", type=cast)
        p.set_defaults(func=func, flags=frozenset(flags))
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Exit codes: 0 success, 1 runtime failure, 2 argument/input errors: a bad value,
    unreadable input, or a path that is missing, of the wrong kind or not permitted."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        _log(f"error: {exc}")
        return 2
    except Exception as exc:  # runtime failure
        _log(f"runtime error: {type(exc).__name__}: {exc}")
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
