import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slatesim
from slatesim import metrics
from slatesim.agent import PolicyKind, save_policy
from slatesim.cli import cli_main, parse_config_file
from slatesim.data import synth_catalog
from slatesim.env import EnvConfig, make_ground_truth_user
from slatesim.metrics import (
    ExperimentSpec,
    RosterEntry,
    run_experiment,
    eval_env_seed,
)
from slatesim.nets import init_cascade_net
from slatesim.training import save_user_model

GOLDEN = Path(__file__).parent / "golden" / "eval_criterion9"


class TestMetricFunctions:
    def test_seed_parity(self):
        # evaluation episodes must land on odd seeds
        for base in (0, 3, 17):
            for u in range(4):
                for rep in range(3):
                    assert eval_env_seed(base, u, rep, 4) % 2 == 1


def small_spec(out_dir, roster=None, reps=3):
    return ExperimentSpec(
        seed=2,
        catalog_size=12,
        dim=4,
        catalog_seed=3,
        gt_m=3, gt_n=2, gt_hidden=6, gt_seed=4, gt_reward_scale=2.0,
        env=EnvConfig(k=3, pool_size=6, horizon=4),
        n_users=4,
        repetitions=reps,
        out_dir=str(out_dir),
        roster=roster or [RosterEntry("random", PolicyKind.RANDOM)],
    )


class TestRunExperiment:
    def test_files_written_and_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_experiment(small_spec(out1))
        r2 = run_experiment(small_spec(out2))
        assert (out1 / "random_metrics.csv").exists()
        assert (out1 / "aggregate.csv").exists()
        assert (out1 / "random_metrics.csv").read_bytes() == (out2 / "random_metrics.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
        assert r1[0].avg_cumulative_reward == r2[0].avg_cumulative_reward

    def test_aggregate_recomputable_from_per_user_file(self, tmp_path):
        spec = small_spec(tmp_path / "out", reps=4)
        report = run_experiment(spec)[0]
        lines = (tmp_path / "out" / "random_metrics.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        cum = {}
        ctr = {}
        for u, rep, cr, ct in rows:
            cum.setdefault(int(rep), []).append(float(cr))
            ctr.setdefault(int(rep), []).append(float(ct))
        per_rep_cum = [np.mean(cum[r]) for r in sorted(cum)]
        per_rep_ctr = [np.mean(ctr[r]) for r in sorted(ctr)]
        assert np.mean(per_rep_cum) == pytest.approx(report.avg_cumulative_reward, abs=1e-7)
        assert np.mean(per_rep_ctr) == pytest.approx(report.ctr, abs=1e-7)
        assert np.std(per_rep_cum, ddof=1) == pytest.approx(report.std_cumulative_reward, rel=1e-6)

    def test_greedy_beats_random(self, tmp_path):
        roster = [
            RosterEntry("random", PolicyKind.RANDOM),
            RosterEntry("greedy", PolicyKind.GREEDY_USER_MODEL),
        ]
        spec = small_spec(tmp_path / "out", roster=roster, reps=5)
        reports = {r.policy: r for r in run_experiment(spec)}
        assert reports["greedy"].avg_cumulative_reward > reports["random"].avg_cumulative_reward

    def test_stderr_shrinks_with_reps(self, tmp_path):
        spec10 = small_spec(tmp_path / "r10", reps=10)
        spec40 = small_spec(tmp_path / "r40", reps=40)
        se10 = run_experiment(spec10)[0].stderr_cumulative_reward
        se40 = run_experiment(spec40)[0].stderr_cumulative_reward
        ratio = se40 / se10
        assert 0.25 <= ratio <= 0.85  # ~ sqrt(10/40) = 0.5

    @pytest.mark.parametrize("name", ["aggregate.csv", "random_metrics.csv",
                                      "greedy_metrics.csv", "cdqn_metrics.csv"])
    def test_metric_files_match_golden_bytes(self, tmp_path, name):
        # written by the one-episode-at-a-time evaluator in the criterion-9 world;
        # a change to the random-number layout or to any slate changes these bytes
        run_experiment(criterion9_spec(tmp_path, tmp_path / "out"))
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_missing_checkpoint_rejected_before_running(self, tmp_path):
        roster = [RosterEntry("cdqn", PolicyKind.CDQN, path=str(tmp_path / "nope.ckpt"))]
        with pytest.raises(FileNotFoundError, match="nope.ckpt"):
            run_experiment(small_spec(tmp_path / "out", roster=roster))


def criterion9_spec(tmp_path, out_dir, cdqn=None):
    """The golden files' world: 4 users x 3 reps = 12 rows, roster random, greedy, cdqn.
    `cdqn` replaces the roster's seeded net."""
    policy = tmp_path / "cdqn_policy.ckpt"
    save_policy(policy, cdqn or init_cascade_net(4, 3, 2, 6, 3, np.random.default_rng(7)))
    return ExperimentSpec(
        seed=5, catalog_size=15, dim=4, catalog_seed=3,
        gt_m=3, gt_n=2, gt_hidden=6, gt_seed=4, gt_reward_scale=2.0,
        env=EnvConfig(k=3, pool_size=8, horizon=5),
        n_users=4, repetitions=3, out_dir=str(out_dir),
        roster=[RosterEntry("random", PolicyKind.RANDOM),
                RosterEntry("greedy", PolicyKind.GREEDY_USER_MODEL),
                RosterEntry("cdqn", PolicyKind.CDQN, str(policy))])


def written(out_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(out_dir).iterdir())}


class Interrupt(BaseException):
    """Stands for a KeyboardInterrupt without pytest's handling of one."""


class TestShardedEvaluation:
    """run_experiment plays its rows in one contiguous shard per usable CPU, the first in
    this process and each other in a forked child. The tests force the shard count, so
    they behave alike on a machine of any size."""

    @pytest.fixture
    def shards(self, monkeypatch):
        return lambda n: monkeypatch.setattr(metrics, "usable_cpus", lambda: n)

    @pytest.fixture
    def failing(self, monkeypatch):
        """failing(policy, where, exc): rollout_batch raises exc on `policy` in this process
        (where="parent") or in the children ("child"); a child given SystemExit dies unsent."""
        parent, real = os.getpid(), metrics.rollout_batch

        def install(policy, where, exc):
            def rollout(env, user, played, seeds, T):
                if played is policy and (os.getpid() == parent) == (where == "parent"):
                    if exc is SystemExit:
                        os._exit(1)
                    raise exc
                return real(env, user, played, seeds, T)

            monkeypatch.setattr(metrics, "rollout_batch", rollout)
        return install

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40],
                             ids=["1", "2", "3", "5-uneven", "12-one-row-each", "40-more-than-rows"])
    def test_metric_files_match_golden_bytes(self, tmp_path, shards, n):
        shards(n)
        run_experiment(criterion9_spec(tmp_path, tmp_path / "out"))
        assert written(tmp_path / "out") == written(GOLDEN)

    def test_forks_once_per_extra_shard_not_per_policy(self, tmp_path, shards, monkeypatch):
        forked, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        shards(3)
        run_experiment(criterion9_spec(tmp_path, tmp_path / "out"))
        assert len(forked) == 2
        assert written(tmp_path / "out") == written(GOLDEN)

    def test_without_fork_one_shard_runs_here(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert metrics.usable_cpus() == 1
        run_experiment(criterion9_spec(tmp_path, tmp_path / "out"))
        assert written(tmp_path / "out") == written(GOLDEN)

    def test_shards_run_one_blas_thread_each_and_the_count_is_restored(self, tmp_path, shards, monkeypatch):
        # a pool of BLAS threads per shard process oversubscribes the CPUs
        original = metrics._blas_threads(2)  # a known count for the run to restore
        seen, real = [], metrics.rollout_batch

        def rollout(*args):
            seen.append(metrics._blas_threads(1))  # the count in this process, set again unchanged
            return real(*args)

        monkeypatch.setattr(metrics, "rollout_batch", rollout)
        shards(2)
        run_experiment(criterion9_spec(tmp_path, tmp_path / "out"))
        assert seen == [None if original is None else 1] * 3
        assert metrics._blas_threads(original or 1) == (None if original is None else 2)

    def test_usable_cpus_is_the_affinity_set(self):
        assert metrics.usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_overflowing_policy_fails_as_in_one_process(self, tmp_path, shards, n):
        # every position-2 Q value overflows to -inf: no row can be played
        qnet = init_cascade_net(4, 3, 2, 6, 3, np.random.default_rng(7))
        qnet.heads[1].V[:] = 0.0
        qnet.heads[1].b[:] = 1e3
        qnet.heads[1].v[:] = -1e308
        outcomes = []
        for count, out in ((1, "one"), (n, "many")):
            shards(count)
            spec = criterion9_spec(tmp_path, tmp_path / out, cdqn=qnet)
            spec.roster = [spec.roster[0], spec.roster[2], spec.roster[1]]  # cdqn before greedy
            with np.errstate(over="ignore"), pytest.raises(ValueError) as info:
                run_experiment(spec)
            outcomes.append((str(info.value), written(tmp_path / out)))
        assert outcomes[0] == outcomes[1]
        message, files = outcomes[1]
        # the row counts are all rows', as one process gives them, not a shard's
        assert message == (f"{tmp_path / 'cdqn_policy.ckpt'}: policy 'cdqn' cannot be evaluated: "
                           "the chosen Q value of position 2 is not finite in 12 of 12 rows, "
                           "the first row 0")
        assert list(files) == ["random_metrics.csv"]

    @pytest.mark.parametrize("exc", [RuntimeError("lost"), SystemExit],
                             ids=["raises", "dies-before-sending"])
    def test_a_child_that_fails_is_replayed_here(self, tmp_path, shards, failing, exc):
        spec = criterion9_spec(tmp_path, tmp_path / "out")
        loaded = metrics.load_experiment(spec)
        failing(loaded[2][2][1], "child", exc)  # the roster's cdqn policy
        shards(3)
        run_experiment(spec, loaded=loaded)
        assert written(tmp_path / "out") == written(GOLDEN)

    def test_children_are_reaped_when_this_process_raises(self, tmp_path, shards, failing):
        spec = criterion9_spec(tmp_path, tmp_path / "out")
        loaded = metrics.load_experiment(spec)
        failing(loaded[2][2][1], "parent", Interrupt())
        shards(3)
        with pytest.raises(Interrupt):
            run_experiment(spec, loaded=loaded)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert written(tmp_path / "out") == {}  # files are written once every shard is in


class TestConfigParsing:
    def test_key_value_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nseed=4\nk = 3\nroster=random,greedy\n\n")
        cfg = parse_config_file(str(path))
        assert cfg == {"seed": "4", "k": "3", "roster": "random,greedy"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("justaword\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(str(path))


class TestCli:
    def test_missing_spec_exits_2_and_names_path(self, tmp_path, capsys):
        code = cli_main(["evaluate", "--spec", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_swapped_log_lines_exit_2_and_name_file_and_user(self, tmp_path, capsys):
        assert cli_main(["gen-data", "--users", "2", "--horizon", "3", "--k", "2",
                         "--pool-size", "4", "--catalog-size", "6", "--dim", "2",
                         "--seed", "1", "--out", str(tmp_path)]) == 0
        path = tmp_path / "data.txt"
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("rec 0 1 "))
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli_main(["train-user-model", "--data", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        # the step-2 record now comes first, on 1-based line first + 1
        assert f"{path}: line {first + 1}: trajectory for user 0 must start at step 1" in err

    def test_gradcheck_succeeds(self, capsys):
        code = cli_main(["gradcheck", "--seed", "7", "--trials", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max relative error" in out

    def test_unknown_command_exits_2(self):
        assert cli_main(["no-such-command"]) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("train-policy", "policy-kind", "Additive"),
        ("train-policy", "reward-mode", "PM1"),
        ("train-user-model", "regularizer", "L2"),
        ("train-user-model", "init-scheme", "Entropy"),
        ("train-user-model", "method", "MLE"),
    ])
    def test_bad_config_value_exits_2_and_names_file_and_key(self, tmp_path, capsys,
                                                             command, key, value):
        # config-file values are not checked by argparse; a near miss must not fall back silently
        assert cli_main(["gen-data", "--users", "3", "--horizon", "2", "--k", "2",
                         "--pool-size", "3", "--catalog-size", "5", "--dim", "2", "--m", "2",
                         "--n", "2", "--hidden", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"k=2\npool-size=3\nhorizon=3\niterations=1\nepochs=1\n{key} = {value}\n")
        out = tmp_path / "out"
        capsys.readouterr()
        code = cli_main([command, "--config", str(cfg), "--data", str(tmp_path / "data.txt"),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.cfg" in err and repr(key) in err and repr(value) in err
        assert not list(out.glob("*.ckpt"))

    def test_unknown_config_key_exits_2_and_names_file_and_key(self, tmp_path, capsys):
        # keys use dashes like the flags; a key no subcommand takes must not be dropped silently
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"pool_size=6\nout={tmp_path / 'out'}\n")
        code = cli_main(["evaluate", "--spec", str(cfg)])
        assert code == 2
        assert "typo.cfg: unknown key 'pool_size'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_with_spec_exits_2_and_names_both_files(self, tmp_path, capsys):
        # evaluate reads its options from one file; the second must not be dropped silently
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text(f"out={tmp_path / 'A'}\n")
        b.write_text(f"out={tmp_path / 'B'}\n")
        code = cli_main(["evaluate", "--config", str(a), "--spec", str(b)])
        err = capsys.readouterr().err
        assert code == 2
        assert "a.cfg" in err and "b.cfg" in err
        assert not (tmp_path / "A").exists() and not (tmp_path / "B").exists()

    def test_unknown_roster_policy_exits_2(self, tmp_path, capsys):
        code = cli_main(["evaluate", "--roster", "random,bogus", "--out", str(tmp_path)])
        assert code == 2
        assert ("unknown roster policy 'bogus'; choose from "
                "['additive', 'cdqn', 'greedy', 'random']") in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cdqn", "additive"])
    def test_roster_entry_without_checkpoint_exits_2_naming_the_flags(self, tmp_path, capsys, name):
        code = cli_main(["evaluate", "--roster", name, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--policy-{name} or --policy" in err
        assert "[evaluate]" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, file, mismatch", [
        (["evaluate", "--roster", "cdqn", "--policy", "P", "--k", "3"], "P", "k=5 where the run has k=3"),
        (["evaluate", "--roster", "cdqn", "--policy", "P", "--k", "5", "--dim", "6"], "P",
         "d=8 where the run has d=6"),
        (["evaluate", "--roster", "cdqn", "--policy", "P", "--k", "5", "--gt-m", "3"], "P",
         "m=5 where the run has m=3"),
        (["evaluate", "--roster", "additive", "--policy-additive", "P", "--dim", "6"], "P",
         "d=8 where the run has d=6"),
        (["diagnose-q", "--policy", "P", "--dim", "6"], "P", "d=8 where the run has d=6"),
        (["evaluate", "--roster", "greedy", "--greedy-user-model", "U", "--dim", "6"], "U",
         "d=8 where the run has d=6"),
        (["evaluate", "--roster", "greedy", "--greedy-user-model", "U", "--gt-m", "4"], "U",
         "m=5 where the run has m=4"),
        (["evaluate", "--roster", "random", "--user-model", "U", "--dim", "6"], "U",
         "d=8 where the run has d=6"),
        (["train-policy", "--user-model", "U", "--dim", "6"], "U", "d=8 where the run has d=6"),
    ])
    def test_checkpoint_that_does_not_fit_exits_2_naming_the_file(self, tmp_path, capsys,
                                                                   argv, file, mismatch):
        # a k=5 policy of the kind the run plays and a user model, both on d=8 features
        # and m=5 clicks of history
        paths = {"P": str(tmp_path / "policy.ckpt"), "U": str(tmp_path / "user.ckpt")}
        save_policy(paths["P"], init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)),
                    PolicyKind.ADDITIVE_Q if "--policy-additive" in argv else PolicyKind.CDQN)
        save_user_model(paths["U"], make_ground_truth_user(synth_catalog(10, 8), (5, 4, 16), seed=1))
        out = tmp_path / "out"
        code = cli_main([paths.get(arg, arg) for arg in argv]
                        + ["--n-users", "2", "--reps", "1"] * (argv[0] == "evaluate")
                        + ["--out", str(out)])
        assert code == 2
        assert f"{paths[file]} does not fit the run: {mismatch}" in capsys.readouterr().err
        assert not out.exists()

    def test_misfitting_policy_fails_before_the_header(self, tmp_path, capsys):
        path = str(tmp_path / "policy.ckpt")
        save_policy(path, init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)))
        code = cli_main(["evaluate", "--roster", "random,cdqn", "--policy", path, "--k", "3",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path} does not fit the run: k=5 where the run has k=3" in err
        assert "[evaluate]" not in err

    @pytest.mark.parametrize("command, args", [
        ("evaluate", ["--k", "3", "--n-users", "5", "--reps", "2", "--gt-reward-scale", "3"]),
        ("gen-data", ["--k", "3", "--users", "5"]),
        ("train-policy", ["--k", "3", "--iterations", "2"]),
        ("diagnose-q", ["--policy", "POLICY"]),  # k=3 from the policy
    ])
    def test_exhaustible_catalog_exits_2_before_the_header(self, tmp_path, capsys, command, args):
        # ten clicks can leave fewer than k=3 of 8 items for the next pool; this once
        # failed mid-run with exit 1 and "EnvError: pool exhausted"
        policy = str(tmp_path / "policy.ckpt")
        save_policy(policy, init_cascade_net(8, 5, 4, 16, 3, np.random.default_rng(0)))
        code = cli_main([command, "--catalog-size", "8", "--pool-size", "5", "--horizon", "10",
                         *[policy if a == "POLICY" else a for a in args],
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: a catalog of 8 items minus a horizon of 10 clicks leaves "
                       "fewer than k=3 items for a slate\n")

    @pytest.mark.parametrize("command, args, says, output", [
        ("evaluate", ["--roster", "random,cdqn", "--k", "5", "--n-users", "2", "--reps", "1"],
         "policy 'cdqn' cannot be evaluated", "aggregate.csv"),
        ("diagnose-q", ["--states", "20"], "policy cannot be diagnosed", "q_constraints.csv"),
    ], ids=["evaluate", "diagnose-q"])
    def test_overflowing_policy_exits_2_naming_the_file(self, tmp_path, capsys, command, args, says,
                                                       output):
        # every position-2 Q value overflows to -inf: no slate can be chosen
        path = str(tmp_path / "policy.ckpt")
        qnet = init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0))
        qnet.heads[1].V[:] = 0.0
        qnet.heads[1].b[:] = 1e3
        qnet.heads[1].v[:] = -1e308
        save_policy(path, qnet)
        with np.errstate(over="ignore"):
            code = cli_main([command, "--policy", path, *args, "--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {path}: {says}: the chosen Q value of "
                "position 2 is not finite") in capsys.readouterr().err
        assert not (tmp_path / "out" / output).exists()

    @pytest.mark.parametrize("trained, k, argv", [
        (None, 5, ["evaluate", "--roster", "additive", "--policy-additive", "P"]),
        ("additive", 1, ["evaluate", "--roster", "cdqn", "--policy-cdqn", "P", "--k", "1"]),
        ("additive", 1, ["diagnose-q", "--policy", "P"]),
    ], ids=["cdqn-as-additive", "additive-as-cdqn", "additive-diagnosed"])
    def test_policy_trained_as_another_kind_exits_2_naming_the_file(self, tmp_path, capsys,
                                                                  trained, k, argv):
        # the checkpoints fit the run's d, m and k; only their recorded policy_kind differs.
        # None saves with save_policy's default kind, as a net saved from the library is
        path = str(tmp_path / "policy.ckpt")
        qnet = init_cascade_net(8, 5, 4, 16, k, np.random.default_rng(0))
        if trained is None:
            save_policy(path, qnet)
            trained = "cdqn"
        else:
            save_policy(path, qnet, PolicyKind(trained))
        played = "cdqn" if trained == "additive" else "additive"
        code = cli_main([path if arg == "P" else arg for arg in argv]
                        + ["--n-users", "2", "--reps", "1"] * (argv[0] == "evaluate")
                        + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert (f"error: {path}: a policy trained as {trained}, not {played}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_end_to_end_pipeline(self, tmp_path, capsys):
        out = str(tmp_path)
        # 1. generate a tiny synthetic click log
        assert cli_main([
            "gen-data", "--users", "8", "--horizon", "6", "--k", "3",
            "--pool-size", "6", "--catalog-size", "12", "--dim", "4",
            "--m", "3", "--n", "2", "--hidden", "6", "--reward-scale", "2",
            "--seed", "1", "--out", out,
        ]) == 0
        data = os.path.join(out, "data.txt")
        assert os.path.exists(data)
        # 2. fit a user model on it
        assert cli_main([
            "train-user-model", "--data", data, "--epochs", "3",
            "--batch-size", "32", "--n", "2", "--hidden", "6",
            "--seed", "1", "--out", out,
        ]) == 0
        user_ckpt = os.path.join(out, "user_model.ckpt")
        assert os.path.exists(user_ckpt)
        assert os.path.exists(os.path.join(out, "train_log.csv"))
        # 3. train a small policy against the fitted model
        assert cli_main([
            "train-policy", "--user-model", user_ckpt,
            "--catalog-size", "12", "--dim", "4", "--catalog-seed", "1",
            "--k", "3", "--pool-size", "6", "--horizon", "4",
            "--iterations", "4", "--batch-users", "4", "--minibatch", "8",
            "--lr", "0.02", "--n", "2", "--hidden", "6",
            "--seed", "1", "--out", out,
        ]) == 0
        policy_ckpt = os.path.join(out, "policy.ckpt")
        assert os.path.exists(policy_ckpt)
        # 4. evaluate random vs greedy vs the trained policy
        assert cli_main([
            "evaluate", "--roster", "random,greedy,cdqn",
            "--policy-cdqn", policy_ckpt, "--user-model", user_ckpt,
            "--catalog-size", "12", "--dim", "4", "--catalog-seed", "1",
            "--k", "3", "--pool-size", "6", "--horizon", "4",
            "--n-users", "3", "--reps", "2", "--seed", "1", "--out", out,
        ]) == 0
        assert os.path.exists(os.path.join(out, "aggregate.csv"))
        assert os.path.exists(os.path.join(out, "cdqn_metrics.csv"))
        # 5. constraint diagnostics on the trained policy
        assert cli_main([
            "diagnose-q", "--policy", policy_ckpt, "--user-model", user_ckpt,
            "--catalog-size", "12", "--dim", "4", "--catalog-seed", "1",
            "--pool-size", "6", "--horizon", "4", "--states", "30",
            "--seed", "1", "--out", out,
        ]) == 0
        diag = os.path.join(out, "q_constraints.csv")
        assert os.path.exists(diag)
        lines = open(diag).read().splitlines()
        assert lines[0] == "state_idx,j,qj,qk"
        assert len(lines) == 1 + 30 * 3

    def test_gen_data_bit_reproducible(self, tmp_path):
        args = ["gen-data", "--users", "5", "--horizon", "4", "--k", "3",
                "--pool-size", "6", "--catalog-size", "10", "--dim", "3",
                "--m", "3", "--n", "2", "--hidden", "4", "--seed", "9"]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("data.txt", "ground_truth_user.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diagnose_prints_per_position_correlation(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main([
            "gen-data", "--users", "4", "--horizon", "4", "--k", "2",
            "--pool-size", "5", "--catalog-size", "8", "--dim", "3",
            "--m", "3", "--n", "2", "--hidden", "4", "--seed", "2", "--out", out,
        ]) == 0
        assert cli_main([
            "train-policy", "--user-model", f"{out}/ground_truth_user.ckpt",
            "--catalog-size", "8", "--dim", "3", "--catalog-seed", "2",
            "--k", "2", "--pool-size", "5", "--horizon", "3",
            "--iterations", "3", "--batch-users", "3", "--minibatch", "6",
            "--lr", "0.02", "--n", "2", "--hidden", "4", "--seed", "2", "--out", out,
        ]) == 0
        capsys.readouterr()
        assert cli_main([
            "diagnose-q", "--policy", f"{out}/policy.ckpt",
            "--user-model", f"{out}/ground_truth_user.ckpt",
            "--catalog-size", "8", "--dim", "3", "--catalog-seed", "2",
            "--pool-size", "5", "--horizon", "3", "--states", "12",
            "--seed", "2", "--out", out,
        ]) == 0
        printed = capsys.readouterr().out
        assert "j=1 pearson=" in printed and "j=2 pearson=" in printed

    def test_diagnose_zero_horizon_exits_2_naming_the_flag(self, tmp_path):
        # an episode of zero steps visits no state; run in a child process with a
        # timeout because collecting states this way once looped forever
        policy = tmp_path / "policy.ckpt"
        save_policy(policy, init_cascade_net(3, 5, 4, 16, 2, np.random.default_rng(0)))
        src = str(Path(slatesim.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "from slatesim.cli import main; main()", "diagnose-q",
             "--policy", str(policy), "--catalog-size", "8", "--dim", "3", "--pool-size", "5",
             "--horizon", "0", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "--horizon" in proc.stderr
        assert not (tmp_path / "q_constraints.csv").exists()

    def test_gen_data_zero_horizon_exits_2_naming_the_flag(self, tmp_path, capsys):
        # it once wrote a data.txt with k=0 in its header and no record
        code = cli_main(["gen-data", "--users", "2", "--horizon", "0", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: --horizon must be >= 1 to log any record, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_log_without_records_exits_2_naming_the_file(self, tmp_path, capsys):
        # it once failed with "error: empty user set", naming neither the file nor the cause
        path = tmp_path / "data.txt"
        path.write_text("meta d=1 m=0 k=0\nitem 1 0.5\nitem 2 0.25\n")
        code = cli_main(["train-user-model", "--data", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: the log holds no click record to fit\n"
        assert not (tmp_path / "out").exists()

    def test_config_file_merging_cli_wins(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "catalog_size=12\n"  # ignored: config keys use dashes like the flags
        )
        cfg.write_text(
            "catalog-size=12\ndim=4\ncatalog-seed=3\nk=3\npool-size=6\nhorizon=4\n"
            "n-users=2\nreps=2\ngt-m=3\ngt-n=2\ngt-hidden=6\ngt-seed=4\n"
            f"out={tmp_path / 'cfg_out'}\nroster=random\nseed=5\n"
        )
        assert cli_main(["evaluate", "--spec", str(cfg)]) == 0
        assert (tmp_path / "cfg_out" / "aggregate.csv").exists()
        # CLI flag overrides the file
        assert cli_main(["evaluate", "--spec", str(cfg), "--out", str(tmp_path / "cli_out")]) == 0
        assert (tmp_path / "cli_out" / "aggregate.csv").exists()
