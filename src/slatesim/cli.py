"""Command-line pipelines: data generation, model/policy training, evaluation, diagnostics."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import agent, metrics, nets, training
from .agent import CDQNConfig, PolicyKind, RewardMode
from .choice import Regularizer
from .data import load_trajectories, read_meta, save_trajectories, split_users, synth_catalog
from .env import EnvConfig, SlateEnv, make_ground_truth_user, reset, rollout, step
from .metrics import ExperimentSpec, RosterEntry, run_experiment
from .training import InitScheme, TrainConfig, load_user_model, save_user_model


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
    return cast


_METHODS = ("mle", "minimax")
_POLICY_KINDS = ("cdqn", "additive")


class _Options:
    """Merge order: CLI flag beats config-file value beats default.

    Both sources go through `cast`, so an enum option parses with its
    constructor and a bad config-file value names the file and the key."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str], path: str | None = None):
        self.args = args
        self.config = config
        self.path = path

    def get(self, name: str, cast, default=None):
        cli_val = getattr(self.args, name.replace("-", "_"), None)
        if cli_val is not None:
            return cast(cli_val)
        if name in self.config:
            raw = self.config[name]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            try:
                return cast(raw)
            except ValueError as exc:
                raise ValueError(f"{self.path}: bad value for key {name!r}: {exc}") from None
        return default


def _load_options(args: argparse.Namespace) -> _Options:
    config: dict[str, str] = {}
    path = getattr(args, "config", None)
    if path:
        if not os.path.exists(path):
            raise FileNotFoundError(f"config file not found: {path}")
        config = parse_config_file(path)
    return _Options(args, config, path)


def _catalog_from_options(opt: _Options):
    data_path = opt.get("data", str)
    if data_path:
        if not os.path.exists(data_path):
            raise FileNotFoundError(f"data file not found: {data_path}")
        catalog, _ = load_trajectories(data_path)
        return catalog
    K = opt.get("catalog-size", int, 30)
    d = opt.get("dim", int, 8)
    seed = opt.get("catalog-seed", int, 1)
    return synth_catalog(K, d, seed)


def _user_from_options(opt: _Options, catalog):
    path = opt.get("user-model", str)
    if path:
        if not os.path.exists(path):
            raise FileNotFoundError(f"user model checkpoint not found: {path}")
        return load_user_model(path)
    dims = (opt.get("gt-m", int, 5), opt.get("gt-n", int, 4), opt.get("gt-hidden", int, 16))
    return make_ground_truth_user(catalog, dims, opt.get("gt-seed", int, 1),
                                  opt.get("gt-reward-scale", float, 1.0))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    out_dir = opt.get("out", str, "out")
    seed = opt.get("seed", int, 0)
    users = opt.get("users", int, 50)
    horizon = opt.get("horizon", int, 20)
    k = opt.get("k", int, 5)
    pool_size = opt.get("pool-size", int, 20)
    K = opt.get("catalog-size", int, 50)
    d = opt.get("dim", int, 8)
    m = opt.get("m", int, 5)
    n = opt.get("n", int, 4)
    hidden = opt.get("hidden", int, 16)
    reward_scale = opt.get("reward-scale", float, 1.0)
    os.makedirs(out_dir, exist_ok=True)
    catalog = synth_catalog(K, d, seed)
    user = make_ground_truth_user(catalog, (m, n, hidden), seed + 1, reward_scale)
    env = SlateEnv(catalog, EnvConfig(k=k, pool_size=pool_size, horizon=horizon))
    policy = lambda buffer, pool, rng: agent.random_slate(pool, k, rng)
    trajectories = []
    for u in range(users):
        traj, _, _ = rollout(env, user, policy, T=horizon, seed=2 * (seed + u), user_id=u)
        trajectories.append(traj)
        if (u + 1) % max(1, users // 10) == 0:
            _log(f"[gen-data] simulated {u + 1}/{users} users")
    data_path = os.path.join(out_dir, "data.txt")
    save_trajectories(catalog, trajectories, data_path, m=m)
    user_path = os.path.join(out_dir, "ground_truth_user.ckpt")
    save_user_model(user_path, user)
    _log(f"[gen-data] wrote {data_path} and {user_path}")
    return 0


def cmd_train_user_model(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    data_path = opt.get("data", str)
    if not data_path or not os.path.exists(data_path):
        raise FileNotFoundError(f"data file not found: {data_path}")
    out_dir = opt.get("out", str, "out")
    os.makedirs(out_dir, exist_ok=True)
    d, m, _k = read_meta(data_path)
    catalog, trajectories = load_trajectories(data_path)
    seed = opt.get("seed", int, 0)
    reg = opt.get("regularizer", Regularizer, Regularizer.SHANNON_ENTROPY)
    scheme = opt.get("init-scheme", InitScheme, InitScheme.FRESH)
    config = TrainConfig(
        eta=opt.get("eta", float, 1.0),
        lr_alpha=opt.get("lr-alpha", float, 0.05),
        lr_theta=opt.get("lr-theta", float, 0.05),
        batch_size=opt.get("batch-size", int, 64),
        epochs=opt.get("epochs", int, 50),
        regularizer=reg,
        init_scheme=scheme,
        seed=seed,
        m=opt.get("m", int, m if m > 0 else 5),
        n=opt.get("n", int, 4),
        hidden=opt.get("hidden", int, 16),
        patience=opt.get("patience", int, 10),
    )
    split = split_users([t.user_id for t in trajectories], seed=seed)
    train = [t for t in trajectories if t.user_id in split.train]
    valid = [t for t in trajectories if t.user_id in split.valid]
    test = [t for t in trajectories if t.user_id in split.test]
    _log(f"[train-user-model] users: {len(train)} train / {len(valid)} valid / {len(test)} test")
    log_lines = ["epoch,train_nll,valid_nll,prec1"]

    def on_epoch(epoch: int, stats: dict) -> None:
        train_nll = stats.get("train_nll", stats.get("objective", float("nan")))
        line = (f"{epoch},{train_nll:.9g},{stats.get('valid_nll', float('nan')):.9g},"
                f"{stats.get('prec1', float('nan')):.9g}")
        log_lines.append(line)
        _log(f"[train-user-model] epoch={epoch} " +
             " ".join(f"{k}={v:.5g}" for k, v in stats.items()))

    method = opt.get("method", _one_of(_METHODS), "minimax" if reg is Regularizer.L2 else "mle")
    if method == "mle":
        model = training.train_mle(catalog, train, config, valid=valid, on_epoch=on_epoch)
    else:
        model = training.train_minimax(catalog, train, config, valid=valid, on_epoch=on_epoch)
    ckpt = os.path.join(out_dir, "user_model.ckpt")
    save_user_model(ckpt, model)
    with open(os.path.join(out_dir, "train_log.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(log_lines) + "\n")
    if test:
        test_examples = training.build_examples(catalog, test, config.m)
        prec1 = training.precision_at_k(model, test_examples, 1)
        loglik = training.heldout_loglik(model, test_examples)
        _log(f"[train-user-model] test prec@1={prec1:.4f} heldout_loglik={loglik:.4f}")
    _log(f"[train-user-model] wrote {ckpt}")
    return 0


def cmd_train_policy(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    out_dir = opt.get("out", str, "out")
    os.makedirs(out_dir, exist_ok=True)
    catalog = _catalog_from_options(opt)
    user = _user_from_options(opt, catalog)
    seed = opt.get("seed", int, 0)
    env = SlateEnv(catalog, EnvConfig(
        k=opt.get("k", int, 3),
        pool_size=opt.get("pool-size", int, 20),
        horizon=opt.get("horizon", int, 10),
        nonclick_reward=opt.get("nonclick-reward", float, 0.0),
    ))
    mode = opt.get("reward-mode", RewardMode, RewardMode.LEARNED_REWARD)
    config = CDQNConfig(
        gamma=opt.get("gamma", float, 0.9),
        epsilon=opt.get("epsilon", float, 0.2),
        epsilon_final=opt.get("epsilon-final", float),
        iterations=opt.get("iterations", int, 150),
        horizon=env.config.horizon,
        batch_users=opt.get("batch-users", int, 10),
        minibatch=opt.get("minibatch", int, 32),
        lr=opt.get("lr", float, 0.05),
        seed=seed,
        capacity=opt.get("capacity", int, 10_000),
        reward_mode=mode,
        n=opt.get("n", int, 4),
        hidden=opt.get("hidden", int, 16),
    )
    # training episodes stay on even seeds; evaluation uses odd ones
    factory = agent.make_env_factory(env, user, 2 * seed)

    def on_iteration(it: int, stats: dict) -> None:
        if (it + 1) % max(1, config.iterations // 10) == 0:
            _log(f"[train-policy] iter={it + 1}/{config.iterations} "
                 f"td_loss={stats['mean_td_loss']:.5g} eps={stats['epsilon']:.3f}")

    kind = opt.get("policy-kind", _one_of(_POLICY_KINDS), "cdqn")
    if kind == "additive":
        qnet = agent.train_additive_q(factory, config, on_iteration=on_iteration)
    else:
        qnet = agent.train_cdqn(factory, config, on_iteration=on_iteration)
    ckpt = os.path.join(out_dir, "policy.ckpt")
    agent.save_policy(ckpt, qnet, extra_meta={"reward_mode": mode.value, "policy_kind": kind})
    _log(f"[train-policy] wrote {ckpt}")
    return 0


_ROSTER_KINDS = {
    "random": PolicyKind.RANDOM,
    "greedy": PolicyKind.GREEDY_USER_MODEL,
    "cdqn": PolicyKind.CDQN,
    "additive": PolicyKind.ADDITIVE_Q,
}


def _experiment_spec(opt: _Options) -> ExperimentSpec:
    roster = []
    for name in opt.get("roster", str, "random").split(","):
        name = name.strip()
        if not name:
            continue
        if name not in _ROSTER_KINDS:
            raise ValueError(f"unknown roster policy {name!r}; choose from {sorted(_ROSTER_KINDS)}")
        kind = _ROSTER_KINDS[name]
        path = None
        if kind in (PolicyKind.CDQN, PolicyKind.ADDITIVE_Q):
            path = opt.get(f"policy-{name}", str) or opt.get("policy", str)
        elif kind is PolicyKind.GREEDY_USER_MODEL:
            path = opt.get("greedy-user-model", str)
        roster.append(RosterEntry(name, kind, path))
    env = EnvConfig(
        k=opt.get("k", int, 3),
        pool_size=opt.get("pool-size", int, 20),
        horizon=opt.get("horizon", int, 10),
        nonclick_reward=opt.get("nonclick-reward", float, 0.0),
    )
    return ExperimentSpec(
        seed=opt.get("seed", int, 0),
        catalog_size=opt.get("catalog-size", int, 30),
        dim=opt.get("dim", int, 8),
        catalog_seed=opt.get("catalog-seed", int, 1),
        user_model_path=opt.get("user-model", str),
        gt_m=opt.get("gt-m", int, 5),
        gt_n=opt.get("gt-n", int, 4),
        gt_hidden=opt.get("gt-hidden", int, 16),
        gt_seed=opt.get("gt-seed", int, 1),
        gt_reward_scale=opt.get("gt-reward-scale", float, 1.0),
        env=env,
        n_users=opt.get("n-users", int, 20),
        repetitions=opt.get("reps", int, 50),
        out_dir=opt.get("out", str, "out"),
        roster=roster,
    )


def cmd_evaluate(args: argparse.Namespace) -> int:
    spec_path = getattr(args, "spec", None)
    if spec_path:
        if not os.path.exists(spec_path):
            raise FileNotFoundError(f"spec file not found: {spec_path}")
        args.config = spec_path
    opt = _load_options(args)
    spec = _experiment_spec(opt)
    _log(f"[evaluate] {len(spec.roster)} policies x {spec.repetitions} reps x {spec.n_users} users")
    reports = run_experiment(spec)
    for rep in reports:
        print(f"{rep.policy}: avg_cum_reward={rep.avg_cumulative_reward:.6g} "
              f"(+-{rep.stderr_cumulative_reward:.3g}) ctr={rep.ctr:.4f} "
              f"(+-{rep.stderr_ctr:.3g})")
    _log(f"[evaluate] wrote metrics to {spec.out_dir}")
    return 0


def cmd_diagnose_q(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    policy_path = opt.get("policy", str)
    if not policy_path or not os.path.exists(policy_path):
        raise FileNotFoundError(f"policy checkpoint not found: {policy_path}")
    out_dir = opt.get("out", str, "out")
    os.makedirs(out_dir, exist_ok=True)
    qnet = agent.load_policy(policy_path)
    catalog = _catalog_from_options(opt)
    user = _user_from_options(opt, catalog)
    n_states = opt.get("states", int, 500)
    seed = opt.get("seed", int, 0)
    env = SlateEnv(catalog, EnvConfig(
        k=qnet.k,
        pool_size=opt.get("pool-size", int, 20),
        horizon=opt.get("horizon", int, 10),
    ))
    hists, pools = collect_states(env, user, qnet, n_states, seed)
    rows = agent.constraint_diagnostic(qnet, hists, pools, catalog)
    lines = ["state_idx,j,qj,qk"]
    lines += [f"{idx},{j},{format(qj, '.9g')},{format(qk, '.9g')}" for idx, j, qj, qk in rows]
    path = os.path.join(out_dir, "q_constraints.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    for j in range(1, qnet.k + 1):
        qj = np.array([r[2] for r in rows if r[1] == j])
        qk = np.array([r[3] for r in rows if r[1] == j])
        corr = pearson(qj, qk)
        print(f"j={j} pearson={corr:.4f}")
    _log(f"[diagnose-q] wrote {path}")
    return 0


def collect_states(env: SlateEnv, user, qnet, n_states: int, seed: int):
    """Gather visited (history, pool) pairs by rolling the greedy policy on odd seeds."""
    hists, pools = [], []
    episode = 0
    while len(hists) < n_states:
        state = reset(env, user, 2 * (seed + episode) + 1)
        for _ in range(env.config.horizon):
            hists.append(state.buffer.matrix.copy())
            pools.append(state.pool)
            if len(hists) >= n_states:
                break
            slate = agent.cascade_slate(qnet, state.buffer, state.pool, env.catalog)
            state = step(env, state, slate, user).next_state
        episode += 1
    return hists, pools


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    sx, sy = np.std(x), np.std(y)
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def cmd_gradcheck(args: argparse.Namespace) -> int:
    opt = _load_options(args)
    seed = opt.get("seed", int, 0)
    trials = opt.get("trials", int, 100)
    err = nets.run_gradient_check(seed=seed, trials=trials, dims_max=opt.get("dims-max", int, 6))
    print(f"max relative error {err:.3e}")
    return 0 if err <= 1e-4 else 1


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slatesim",
                                     description="Simulated slate recommendation pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="simulate click logs from a synthetic user")
    _add_common(p)
    p.add_argument("--users", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--catalog-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--reward-scale", type=float)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-user-model", help="fit the choice model from a click log")
    _add_common(p)
    p.add_argument("--data", type=str)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr-theta", type=float)
    p.add_argument("--lr-alpha", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--regularizer", choices=[r.value for r in Regularizer])
    p.add_argument("--init-scheme", choices=[s.value for s in InitScheme])
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--patience", type=int)
    p.set_defaults(func=cmd_train_user_model)

    p = sub.add_parser("train-policy", help="train a slate policy against a user model")
    _add_common(p)
    p.add_argument("--data", type=str)
    p.add_argument("--catalog-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--catalog-seed", type=int)
    p.add_argument("--user-model", type=str)
    p.add_argument("--gt-seed", type=int)
    p.add_argument("--gt-m", type=int)
    p.add_argument("--gt-n", type=int)
    p.add_argument("--gt-hidden", type=int)
    p.add_argument("--gt-reward-scale", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nonclick-reward", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--epsilon-final", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-users", type=int)
    p.add_argument("--minibatch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--capacity", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--reward-mode", choices=[r.value for r in RewardMode])
    p.add_argument("--policy-kind", choices=_POLICY_KINDS)
    p.set_defaults(func=cmd_train_policy)

    p = sub.add_parser("evaluate", help="evaluate a policy roster on fixed test episodes")
    _add_common(p)
    p.add_argument("--spec", type=str)
    p.add_argument("--roster", type=str)
    p.add_argument("--policy", type=str)
    p.add_argument("--policy-cdqn", type=str)
    p.add_argument("--policy-additive", type=str)
    p.add_argument("--greedy-user-model", type=str)
    p.add_argument("--user-model", type=str)
    p.add_argument("--catalog-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--catalog-seed", type=int)
    p.add_argument("--gt-seed", type=int)
    p.add_argument("--gt-m", type=int)
    p.add_argument("--gt-n", type=int)
    p.add_argument("--gt-hidden", type=int)
    p.add_argument("--gt-reward-scale", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nonclick-reward", type=float)
    p.add_argument("--n-users", type=int)
    p.add_argument("--reps", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose-q", help="export per-position cascade values for a policy")
    _add_common(p)
    p.add_argument("--policy", type=str)
    p.add_argument("--data", type=str)
    p.add_argument("--catalog-size", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--catalog-seed", type=int)
    p.add_argument("--user-model", type=str)
    p.add_argument("--gt-seed", type=int)
    p.add_argument("--gt-m", type=int)
    p.add_argument("--gt-n", type=int)
    p.add_argument("--gt-hidden", type=int)
    p.add_argument("--gt-reward-scale", type=float)
    p.add_argument("--pool-size", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--states", type=int)
    p.set_defaults(func=cmd_diagnose_q)

    p = sub.add_parser("gradcheck", help="finite-difference check of all analytic gradients")
    _add_common(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--dims-max", type=int)
    p.set_defaults(func=cmd_gradcheck)

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
