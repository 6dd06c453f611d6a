"""What each subcommand resolves from its flags, config file and defaults.

The stage entry points are replaced by stubs that record their arguments and
stop the command, so these tests see the exact TrainConfig, CDQNConfig,
EnvConfig and ExperimentSpec a command builds, plus its catalog and user."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slatesim
from slatesim import agent, cli, training
from slatesim.agent import CDQNConfig, PolicyKind, RewardMode, save_policy
from slatesim.choice import Regularizer
from slatesim.cli import cli_main
from slatesim.data import load_trajectories, synth_catalog
from slatesim.env import EnvConfig, make_ground_truth_user
from slatesim.metrics import ExperimentSpec, RosterEntry
from slatesim.nets import init_cascade_net
from slatesim.training import InitScheme, TrainConfig, load_user_model, save_user_model


class Stopped(Exception):
    """Raised by a stub once it has recorded its call."""


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A click log (d=3, m=3), its ground-truth user and two k=2 policy checkpoints."""
    root = tmp_path_factory.mktemp("world")
    assert cli_main(["gen-data", "--users", "4", "--horizon", "3", "--k", "2",
                     "--pool-size", "4", "--catalog-size", "8", "--dim", "3", "--m", "3",
                     "--n", "2", "--hidden", "4", "--seed", "1", "--out", str(root)]) == 0
    for name, seed, kind in (("policy.ckpt", 0, PolicyKind.CDQN), ("additive.ckpt", 1, PolicyKind.ADDITIVE_Q)):
        save_policy(root / name, init_cascade_net(3, 3, 2, 4, 2, np.random.default_rng(seed)), kind)
    return {"data": str(root / "data.txt"), "user": str(root / "ground_truth_user.ckpt"),
            "policy": str(root / "policy.ckpt"), "additive": str(root / "additive.ckpt")}


@pytest.fixture
def calls(monkeypatch, tmp_path):
    """Stub every stage entry point; run each command from an empty directory."""
    seen = {}

    def stub(name):
        def record(*args, **kwargs):
            seen[name] = args
            raise Stopped
        return record

    for owner, name in ((training, "train_mle"), (training, "train_minimax"),
                        (agent, "train_cdqn"), (agent, "train_additive_q"),
                        (cli, "run_experiment"), (cli, "collect_states")):
        monkeypatch.setattr(owner, name, stub(name))
    monkeypatch.chdir(tmp_path)
    return seen


def run(argv, calls, entry, cfg=None, tmp_path=None):
    """Run one command to its stubbed entry point and return that call's arguments."""
    if cfg is not None:
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in cfg.items()))
        argv = argv + ["--config", str(path)]
    assert cli_main(argv) == 1
    assert list(calls) == [entry]
    return calls[entry]


def user_bytes(user, path) -> bytes:
    save_user_model(path, user)
    return Path(path).read_bytes()


def assert_world(env, user, catalog, expected_user, tmp_path):
    assert env.catalog.ids == catalog.ids
    assert np.array_equal(env.catalog.matrix, catalog.matrix)
    assert user_bytes(user, tmp_path / "got.ckpt") == user_bytes(expected_user, tmp_path / "want.ckpt")


def default_catalog_and_user():
    catalog = synth_catalog(30, 8, 1)
    return catalog, make_ground_truth_user(catalog, (5, 4, 16), 1, 1.0)


def env_config(k=3, pool_size=20, horizon=10, nonclick_reward=0.0):
    return EnvConfig(k=k, pool_size=pool_size, horizon=horizon, nonclick_reward=nonclick_reward)


def train_config(**set_values):
    values = dict(eta=1.0, lr_alpha=0.05, lr_theta=0.05, batch_size=64, epochs=50,
                  regularizer=Regularizer.SHANNON_ENTROPY, init_scheme=InitScheme.FRESH, seed=0,
                  m=5, n=4, hidden=16, patience=10, init_epochs=None)
    return TrainConfig(**{**values, **set_values})


def cdqn_config(**set_values):
    values = dict(gamma=0.9, epsilon=0.2, epsilon_final=None, iterations=150, horizon=10,
                  batch_users=10, minibatch=32, lr=0.05, seed=0, capacity=10_000,
                  reward_mode=RewardMode.LEARNED_REWARD, n=4, hidden=16)
    return CDQNConfig(**{**values, **set_values})


def experiment_spec(**set_values):
    values = dict(seed=0, catalog_size=30, dim=8, catalog_seed=1, user_model_path=None,
                  gt_m=5, gt_n=4, gt_hidden=16, gt_seed=1, gt_reward_scale=1.0,
                  env=env_config(), n_users=20, repetitions=50, out_dir="out",
                  roster=[RosterEntry("random", PolicyKind.RANDOM, None)])
    return ExperimentSpec(**{**values, **set_values})


class TestResolvedConfigs:
    def test_train_user_model_minimal(self, world, calls):
        # --m falls back to the m in the data file's header
        catalog, train, config = run(["train-user-model", "--data", world["data"]],
                                     calls, "train_mle")
        assert config == train_config(m=3)
        assert os.path.isdir("out")

    def test_train_user_model_l2_defaults_to_minimax(self, world, calls):
        _, _, config = run(["train-user-model", "--data", world["data"], "--regularizer", "l2"],
                           calls, "train_minimax")
        assert config == train_config(m=3, regularizer=Regularizer.L2)

    def test_train_user_model_config_file(self, world, calls, tmp_path):
        cfg = {"data": world["data"], "out": tmp_path / "o", "seed": 7, "epochs": 2,
               "batch-size": 16, "lr-theta": 0.01, "lr-alpha": 0.02, "eta": 0.5,
               "regularizer": "l2", "init-scheme": "entropy", "method": "mle", "m": 2, "n": 3,
               "hidden": 5, "patience": 4, "k": 9, "gamma": 0.1}  # k, gamma: other stages' keys
        _, _, config = run(["train-user-model", "--hidden", "6"], calls, "train_mle", cfg, tmp_path)
        assert config == train_config(eta=0.5, lr_alpha=0.02, lr_theta=0.01, batch_size=16,
                                      epochs=2, regularizer=Regularizer.L2,
                                      init_scheme=InitScheme.ENTROPY_INIT, seed=7, m=2, n=3,
                                      hidden=6, patience=4)
        assert (tmp_path / "o").is_dir()

    @pytest.mark.parametrize("kind, entry", [("cdqn", "train_cdqn"), ("additive", "train_additive_q")])
    def test_train_policy_minimal(self, calls, tmp_path, kind, entry):
        argv = ["train-policy"] + (["--policy-kind", kind] if kind == "additive" else [])
        factory, config = run(argv, calls, entry)
        env, user, seed = factory
        assert config == cdqn_config()
        assert env.config == env_config()
        assert seed == 0
        assert_world(env, user, *default_catalog_and_user(), tmp_path)
        assert os.path.isdir("out")

    @pytest.mark.parametrize("kind, entry", [("cdqn", "train_cdqn"), ("additive", "train_additive_q")])
    def test_train_policy_config_file_with_data(self, world, calls, tmp_path, kind, entry):
        cfg = {"data": world["data"], "catalog-size": 99, "gt-seed": 5, "gt-m": 2, "gt-n": 3,
               "gt-hidden": 4, "gt-reward-scale": 2.5, "k": 2, "pool-size": 4, "horizon": 3,
               "nonclick-reward": -0.5, "gamma": 0.8, "epsilon": 0.4, "epsilon-final": 0.05,
               "iterations": 7, "batch-users": 3, "minibatch": 5, "lr": 0.01, "capacity": 99,
               "n": 2, "hidden": 5, "reward-mode": "pm1", "seed": 3, "out": tmp_path / "o",
               "policy-kind": kind, "epochs": 4, "states": 8}  # epochs, states: other stages' keys
        factory, config = run(["train-policy", "--lr", "0.03"], calls, entry, cfg, tmp_path)
        env, user, seed = factory
        assert config == cdqn_config(gamma=0.8, epsilon=0.4, epsilon_final=0.05, iterations=7,
                                     horizon=3, batch_users=3, minibatch=5, lr=0.03, seed=3,
                                     capacity=99, reward_mode=RewardMode.PLUS_MINUS_ONE, n=2,
                                     hidden=5)
        assert env.config == env_config(k=2, pool_size=4, horizon=3, nonclick_reward=-0.5)
        assert seed == 6
        catalog, _ = load_trajectories(world["data"])
        assert_world(env, user, catalog, make_ground_truth_user(catalog, (2, 3, 4), 5, 2.5), tmp_path)
        assert (tmp_path / "o").is_dir()

    def test_train_policy_config_file_with_user_model(self, world, calls, tmp_path):
        cfg = {"user-model": world["user"], "catalog-size": 12, "dim": 3, "catalog-seed": 4,
               "gt-m": 2, "k": 2, "pool-size": 4}
        factory, config = run(["train-policy"], calls, "train_cdqn", cfg, tmp_path)
        env, user, _ = factory
        assert config == cdqn_config()
        assert env.config == env_config(k=2, pool_size=4)
        assert_world(env, user, synth_catalog(12, 3, 4), load_user_model(world["user"]), tmp_path)

    def test_evaluate_minimal(self, calls):
        (spec,) = run(["evaluate"], calls, "run_experiment")
        assert spec == experiment_spec()

    @pytest.mark.parametrize("how", ["--config", "--spec"])
    def test_evaluate_config_file(self, world, calls, tmp_path, how):
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"seed=4\ncatalog-size=10\ndim=3\ncatalog-seed=2\nuser-model={world['user']}\n"
            "gt-m=2\ngt-n=3\ngt-hidden=4\ngt-seed=6\ngt-reward-scale=1.5\n"
            "k=2\npool-size=5\nhorizon=4\nnonclick-reward=-1\nn-users=3\nreps=2\n"
            f"out={tmp_path / 'o'}\nroster=random, greedy,cdqn,,additive\n"
            f"policy={world['policy']}\npolicy-additive={world['additive']}\n"
            f"greedy-user-model={world['user']}\nlr=0.5\n")
        (spec,) = run(["evaluate", how, str(path), "--reps", "3"], calls, "run_experiment")
        assert spec == experiment_spec(
            seed=4, catalog_size=10, dim=3, catalog_seed=2, user_model_path=world["user"],
            gt_m=2, gt_n=3, gt_hidden=4, gt_seed=6, gt_reward_scale=1.5,
            env=env_config(k=2, pool_size=5, horizon=4, nonclick_reward=-1.0), n_users=3,
            repetitions=3, out_dir=str(tmp_path / "o"),
            roster=[RosterEntry("random", PolicyKind.RANDOM, None),
                    RosterEntry("greedy", PolicyKind.GREEDY_USER_MODEL, world["user"]),
                    RosterEntry("cdqn", PolicyKind.CDQN, world["policy"]),
                    RosterEntry("additive", PolicyKind.ADDITIVE_Q, world["additive"])])

    def test_diagnose_q_minimal(self, world, calls, tmp_path):
        # a k=2 policy on the default world's d=8 features and m=5 clicks of history
        policy = tmp_path / "fits.ckpt"
        save_policy(policy, init_cascade_net(8, 5, 2, 4, 2, np.random.default_rng(0)))
        env, user, qnet, n_states, seed = run(["diagnose-q", "--policy", str(policy)],
                                              calls, "collect_states")
        assert env.config == env_config(k=2)
        assert qnet.k == 2 and (n_states, seed) == (500, 0)
        assert_world(env, user, *default_catalog_and_user(), tmp_path)
        assert os.path.isdir("out")

    def test_diagnose_q_config_file_with_data(self, world, calls, tmp_path):
        cfg = {"policy": world["policy"], "data": world["data"], "user-model": world["user"],
               "pool-size": 4, "horizon": 3, "states": 7, "seed": 2, "out": tmp_path / "o",
               "k": 5, "nonclick-reward": -1}  # diagnose-q takes k from the policy
        env, user, _, n_states, seed = run(["diagnose-q", "--states", "9"], calls,
                                           "collect_states", cfg, tmp_path)
        assert env.config == env_config(k=2, pool_size=4, horizon=3)
        assert (n_states, seed) == (9, 2)
        catalog, _ = load_trajectories(world["data"])
        assert_world(env, user, catalog, load_user_model(world["user"]), tmp_path)
        assert (tmp_path / "o").is_dir()

    def test_diagnose_q_config_file_ground_truth(self, world, calls, tmp_path):
        policy = tmp_path / "fits.ckpt"  # k=2, on this world's d=2 and gt-m=2
        save_policy(policy, init_cascade_net(2, 2, 2, 4, 2, np.random.default_rng(0)))
        cfg = {"policy": policy, "catalog-size": 12, "dim": 2, "catalog-seed": 3,
               "gt-seed": 8, "gt-m": 2, "gt-n": 2, "gt-hidden": 3, "gt-reward-scale": 4,
               "pool-size": 5}
        env, user, _, n_states, seed = run(["diagnose-q"], calls, "collect_states", cfg, tmp_path)
        assert env.config == env_config(k=2, pool_size=5)
        assert (n_states, seed) == (500, 0)
        catalog = synth_catalog(12, 2, 3)
        assert_world(env, user, catalog, make_ground_truth_user(catalog, (2, 2, 3), 8, 4.0), tmp_path)


def edit_first_values(edit):
    """A mutation that rewrites the value line of a checkpoint's first tensor."""
    def mutate(lines, meta_key):
        i = next(i for i, line in enumerate(lines) if line.startswith("tensor ")) + 1
        return lines[:i] + [" ".join(edit(lines[i].split()))] + lines[i + 1:]
    return mutate


# mutation of a checkpoint's lines (given the meta key it may drop), and what the error says
MALFORMED = {
    "truncated": (lambda lines, meta_key: lines[:-1], "has 0 values"),
    "missing_tensor": (lambda lines, meta_key: lines[:-2], "missing entry"),
    "missing_meta": (lambda lines, meta_key: [line for line in lines
                                              if not line.startswith(f"meta {meta_key} ")],
                     "missing entry"),
    "short_row": (edit_first_values(lambda vals: vals[:-1]), "of shape"),
    "bad_float": (edit_first_values(lambda vals: ["1.5x"] + vals[1:]),
                  "could not convert string to float: '1.5x'"),
    "bad_activation": (lambda lines, meta_key: [line.replace("meta activation elu", "meta activation elux")
                                                for line in lines], "'elux'"),
    "relu_activation": (lambda lines, meta_key: [line.replace("meta activation elu", "meta activation relu")
                                                 for line in lines], "activation 'relu' is not supported"),
}


class TestMalformedCheckpoints:
    """A broken checkpoint exits 2 with an error that names the file."""

    def write_broken(self, source, case, meta_key, tmp_path):
        mutate, says = MALFORMED[case]
        lines = Path(source).read_text().splitlines()
        broken = tmp_path / f"{case}.ckpt"
        broken.write_text("\n".join(mutate(lines, meta_key)) + "\n")
        return str(broken), says

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_diagnose_q_policy(self, world, tmp_path, capsys, case):
        path, says = self.write_broken(world["policy"], case, "k", tmp_path)
        code = cli_main(["diagnose-q", "--policy", path, "--data", world["data"],
                         "--pool-size", "4", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {path}") and says in err
        assert not (tmp_path / "o" / "q_constraints.csv").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_train_policy_user_model(self, world, tmp_path, capsys, case):
        path, says = self.write_broken(world["user"], case, "eta", tmp_path)
        code = cli_main(["train-policy", "--user-model", path, "--data", world["data"],
                         "--k", "2", "--pool-size", "4", "--iterations", "1",
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {path}") and says in err
        assert not (tmp_path / "o" / "policy.ckpt").exists()


# Config fields no flag of the same name sets, each with the reason it still exists.
NOT_FLAGS = {
    # filled in by a stage from other flags
    "env": "EnvConfig built from the env flags",
    "user_model_path": "--user-model",
    "out_dir": "--out",
    "repetitions": "--reps",
    # set by the benchmark's L2 fit, which trains its entropy init for fewer epochs
    "init_epochs": "benchmarks/workloads.py",
}


def test_every_config_field_is_a_flag_or_named_here():
    """A config setting that only tests set doubles what they must cover, for no run."""
    for cls in (EnvConfig, TrainConfig, CDQNConfig, ExperimentSpec):
        for field in dataclasses.fields(cls):
            flag = field.name.replace("_", "-")
            assert (flag in cli._FLAGS) != (field.name in NOT_FLAGS), f"{cls.__name__}.{field.name}"
    fields = {field.name for cls in (EnvConfig, TrainConfig, CDQNConfig, ExperimentSpec)
              for field in dataclasses.fields(cls)}
    assert set(NOT_FLAGS) <= fields


class TestRequiredFlags:
    @pytest.mark.parametrize("command, flag", [("train-user-model", "data"),
                                               ("diagnose-q", "policy")])
    def test_missing_flag_exits_2_and_names_it(self, tmp_path, monkeypatch, capsys, command, flag):
        monkeypatch.chdir(tmp_path)
        assert cli_main([command]) == 2
        assert f"--{flag} is required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_in_config_file_counts(self, world, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={world['data']}\nepochs=1\n")
        assert cli_main(["train-user-model", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "user_model.ckpt").exists()


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    # importing the package must not import slatesim.cli ahead of `python -m slatesim.cli`
    src = str(Path(slatesim.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "slatesim.cli", "gradcheck",
         "--trials", "1"],
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "max relative error" in proc.stdout


@pytest.mark.parametrize("argv, field", [
    (["train-policy", "--lr", "nan"], "lr"),
    (["train-policy", "--lr", "inf"], "lr"),
    (["train-policy", "--lr", "-0.05"], "lr"),
    (["train-user-model", "--lr-theta", "nan"], "lr_theta"),
    (["train-user-model", "--lr-theta", "inf"], "lr_theta"),
    (["train-user-model", "--eta", "nan"], "eta"),
    (["evaluate", "--roster", "random", "--nonclick-reward", "nan"], "nonclick_reward"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_numeric_option_exits_2_and_names_the_field(world, tmp_path, monkeypatch, capsys, argv, field):
    # a non-finite or negative rate, or a non-finite reward, is refused before any run starts
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train-user-model":
        argv = argv + ["--data", world["data"]]
    assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, field", [
    (["gen-data", "--users", "0"], "users"),
    (["gen-data", "--users", "-3"], "users"),
    (["train-policy", "--n", "0"], "n"),
    (["train-policy", "--hidden", "0"], "hidden"),
    (["train-policy", "--capacity", "0"], "capacity"),
    (["train-policy", "--batch-users", "0"], "batch_users"),
    (["train-policy", "--minibatch", "0"], "minibatch"),
    (["train-policy", "--horizon", "0"], "horizon"),
    (["evaluate", "--horizon", "0"], "horizon"),
    (["train-user-model", "--m", "0"], "m"),
    (["train-user-model", "--n", "0"], "n"),
    (["train-user-model", "--hidden", "0"], "hidden"),
    (["train-user-model", "--batch-size", "0"], "batch_size"),
    (["train-user-model", "--patience", "0"], "patience"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_size_below_one_exits_2_and_names_the_field(world, tmp_path, monkeypatch, capsys, argv, field):
    # refused before --out is made; gen-data once failed with "min() arg is an empty sequence"
    # and train-policy with "inconsistent head shapes", both after making it
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train-user-model":
        argv = argv + ["--data", world["data"]]
    assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {field} must be >= 1, got {argv[2]}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, field", [
    (["train-policy", "--iterations", "-1"], "iterations"),
    (["train-user-model", "--epochs", "-1"], "epochs"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_negative_count_exits_2_and_names_the_field(world, tmp_path, monkeypatch, capsys, argv, field):
    # zero iterations or epochs is a valid no-op run; a negative count is not
    monkeypatch.chdir(tmp_path)
    if argv[0] == "train-user-model":
        argv = argv + ["--data", world["data"]]
    assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {field} must be >= 0, got {argv[2]}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--roster", "random", "--gt-reward-scale", "-3"], "gt_reward_scale must be finite and > 0"),
    (["evaluate", "--roster", "random", "--gt-reward-scale", "0"], "gt_reward_scale must be finite and > 0"),
    (["evaluate", "--roster", "random", "--gt-reward-scale", "nan"], "gt_reward_scale must be finite and > 0"),
    (["evaluate", "--gt-m", "0"], "gt_m must be >= 1"),
    (["evaluate", "--gt-n", "0"], "gt_n must be >= 1"),
    (["evaluate", "--gt-hidden", "0"], "gt_hidden must be >= 1"),
    (["gen-data", "--reward-scale", "-1"], "gt_reward_scale must be finite and > 0"),
    (["gen-data", "--reward-scale", "inf"], "gt_reward_scale must be finite and > 0"),
    (["gen-data", "--m", "0"], "gt_m must be >= 1"),
    (["gen-data", "--n", "0"], "gt_n must be >= 1"),
    (["gen-data", "--hidden", "0"], "gt_hidden must be >= 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_ground_truth_user_exits_2_and_names_the_field(tmp_path, monkeypatch, capsys, argv, message):
    # a scale <= 0 flattens or reverses the user's preferences; m = 0 makes it memoryless
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
