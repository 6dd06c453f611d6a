import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import slatesim
from slatesim import metrics, training
from slatesim.agent import PolicyKind, load_policy, save_policy
from slatesim.cli import cli_main, parse_config_file
from slatesim.data import Trajectory, load_trajectories, save_trajectories, split_users, synth_catalog
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
PIPELINE_DIGESTS = Path(__file__).parent / "golden" / "pipeline_digests.json"


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

    @pytest.mark.parametrize("reps", [1, 4])
    def test_aggregate_recomputable_from_per_user_file(self, tmp_path, reps):
        # each column's mean, std (ddof 1 over several reps, 0 over one) and stderr of the
        # per-rep means, recomputed from the per-user file's 9-digit numbers
        spec = small_spec(tmp_path / "out", reps=reps)
        report = run_experiment(spec)[0]
        lines = (tmp_path / "out" / "random_metrics.csv").read_text().splitlines()[1:]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        assert len(rows) == reps * spec.n_users
        stats = [report.avg_cumulative_reward, report.std_cumulative_reward,
                 report.stderr_cumulative_reward, report.ctr, report.std_ctr, report.stderr_ctr]
        for column, (mean, std, stderr) in ((2, stats[:3]), (3, stats[3:])):
            per_rep = [np.mean(rows[rows[:, 1] == rep, column]) for rep in range(reps)]
            want_std = np.std(per_rep, ddof=1 if reps > 1 else 0)
            assert mean == pytest.approx(np.mean(per_rep), abs=1e-7)
            assert std == pytest.approx(want_std, rel=1e-6, abs=1e-12)
            assert (std > 0) == (reps > 1)
            assert stderr == pytest.approx(want_std / np.sqrt(reps), rel=1e-6, abs=1e-12)
        aggregate = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
        head = ["random", str(spec.n_users), str(reps), str(spec.env.horizon)]
        assert aggregate[1].split(",") == head + [format(x, ".9g") for x in stats]

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

    @pytest.mark.parametrize("n", [2, 3, 5, 12], ids=["2", "3", "5-uneven", "12-one-row-each"])
    def test_short_pools_give_the_one_shard_bytes(self, tmp_path, shards, n):
        # pools of 8 from 12 items over 9 steps: as clicks take items, late steps draw
        # pools of 5 to 8 real ids, so the rows a shard holds differ in their real widths
        spec = criterion9_spec(tmp_path, tmp_path / "one")
        spec.catalog_size, spec.env = 12, EnvConfig(k=3, pool_size=8, horizon=9)
        runs = []
        for count, out in ((1, "one"), (n, "many")):
            shards(count)
            spec.out_dir = str(tmp_path / out)
            run_experiment(spec)
            runs.append(written(tmp_path / out))
        assert runs[1] == runs[0]

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

    @pytest.fixture
    def run_warning(self, monkeypatch):
        """run(spec, loaded=None): run_experiment with warnings printed to sys.stderr, where
        capfd reads this process's and the children's alike (pytest otherwise records this
        process's), each location once per run."""
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        monkeypatch.setattr(warnings, "showwarning", show)

        def run(spec, loaded=None):
            with warnings.catch_warnings():
                warnings.simplefilter("default")  # a fresh registry: no location shown yet
                run_experiment(spec, loaded)
        return run

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_overflow_warnings_print_once_as_in_one_process(self, tmp_path, shards, run_warning, capfd, n):
        qnet = init_cascade_net(4, 3, 2, 6, 3, np.random.default_rng(7))
        qnet.heads[1].V[:] = 0.0
        qnet.heads[1].b[:] = 1e3
        qnet.heads[1].v[:] = -1e308
        errs = []
        for count, out in ((1, "one"), (n, "many")):
            shards(count)
            with pytest.raises(ValueError, match="cannot be evaluated"):
                run_warning(criterion9_spec(tmp_path, tmp_path / out, cdqn=qnet))
            errs.append(capfd.readouterr().err)
        assert "RuntimeWarning: overflow encountered" in errs[0]
        assert errs[1] == errs[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_a_policy_that_warns_writes_the_one_process_files(self, tmp_path, shards, run_warning, capfd,
                                                               monkeypatch, n):
        spec = criterion9_spec(tmp_path, tmp_path / "out")
        loaded = metrics.load_experiment(spec)
        cdqn, real = loaded[2][2][1], metrics.rollout_batch

        def rollout(env, user, played, seeds, T):
            if played is cdqn:
                warnings.warn("cdqn rows played", RuntimeWarning)
            return real(env, user, played, seeds, T)

        monkeypatch.setattr(metrics, "rollout_batch", rollout)
        shards(n)
        run_warning(spec, loaded)
        assert written(tmp_path / "out") == written(GOLDEN)
        assert capfd.readouterr().err.count("RuntimeWarning: cdqn rows played") == 1

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


def pipeline_stages(out: Path) -> list[list[str]]:
    """A tiny run of the README pipeline: gen-data, train-user-model, train-policy,
    evaluate and diagnose-q, each writing into `out`."""
    data, user_ckpt, policy_ckpt = (str(out / name)
                                    for name in ("data.txt", "user_model.ckpt", "policy.ckpt"))
    world = ["--catalog-size", "12", "--dim", "4", "--catalog-seed", "1"]
    return [
        # 1. generate a tiny synthetic click log
        ["gen-data", "--users", "8", "--horizon", "6", "--k", "3",
         "--pool-size", "6", "--catalog-size", "12", "--dim", "4",
         "--gt-m", "3", "--gt-n", "2", "--gt-hidden", "6", "--gt-reward-scale", "2"],
        # 2. fit a user model on it
        ["train-user-model", "--data", data, "--epochs", "3",
         "--batch-size", "32", "--n", "2", "--hidden", "6"],
        # 3. train a small policy against the fitted model
        ["train-policy", "--user-model", user_ckpt, *world,
         "--k", "3", "--pool-size", "6", "--horizon", "4",
         "--iterations", "4", "--batch-users", "4", "--minibatch", "8",
         "--lr", "0.02", "--n", "2", "--hidden", "6"],
        # 4. evaluate random vs greedy vs the trained policy
        ["evaluate", "--roster", "random,greedy,cdqn",
         "--policy", policy_ckpt, "--user-model", user_ckpt, *world,
         "--k", "3", "--pool-size", "6", "--horizon", "4", "--n-users", "3", "--reps", "2"],
        # 5. constraint diagnostics on the trained policy
        ["diagnose-q", "--policy", policy_ckpt, "--user-model", user_ckpt, *world,
         "--pool-size", "6", "--horizon", "4", "--states", "30"],
    ]


def pipeline_digests(out: Path) -> dict[str, str]:
    """Run pipeline_stages into `out` with --seed 1: the sha256 of every file it
    writes and of its standard output, as golden/pipeline_digests.json records them.

    Its user_model.ckpt and policy.ckpt digests were re-recorded when nets.head_scores
    came to run its products per row: their tensors moved by at most 1.6e-16 of a
    tensor's largest entry (q3 of policy.ckpt); every other file and the standard
    output kept its bytes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for argv in pipeline_stages(out):
            assert cli_main(argv + ["--seed", "1", "--out", str(out)]) == 0, argv[0]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(out))}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


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
    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        code = cli_main(["evaluate", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: [Errno 2] No such file or directory: "
                                           f"'{tmp_path / 'missing.cfg'}'\n")

    @pytest.mark.parametrize("argv, flag", [
        (["train-user-model"], "--data"),
        (["train-policy"], "--data"),
        (["diagnose-q"], "--policy"),
        (["evaluate", "--roster", "cdqn"], "--policy"),
        (["train-policy"], "--user-model"),
        (["evaluate"], "--user-model"),
        (["evaluate", "--roster", "greedy"], "--greedy-user-model"),
        (["gen-data"], "--config"),
    ])
    @pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
    def test_unreadable_input_exits_2_naming_it_before_any_output(self, tmp_path, capsys, argv, flag,
                                                                 unreadable):
        # a directory once exited 1 as a runtime error, and an undecodable checkpoint or
        # config file exited 2 naming no file
        path = tmp_path / "input"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe\n")
        out = tmp_path / "out"
        assert cli_main(argv + [flag, str(path), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(path) in line
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--users", "2", "--horizon", "3", "--k", "2", "--pool-size", "4", "--catalog-size", "8",
         "--dim", "2"],
        ["evaluate", "--n-users", "2", "--reps", "1"],
    ], ids=["gen-data", "evaluate"])
    def test_out_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys, argv):
        # both once exited 1 as a runtime error
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert cli_main(argv + ["--out", str(out)]) == 2
        assert f"error: [Errno 17] File exists: '{out}'" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

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
        ("train-policy", "reward-mode", "PM1"),
        ("train-user-model", "regularizer", "L2"),
        ("train-user-model", "init-scheme", "Entropy"),
    ])
    def test_bad_config_value_exits_2_and_names_file_and_key(self, tmp_path, capsys,
                                                             command, key, value):
        # config-file values are not checked by argparse; a near miss must not fall back silently
        assert cli_main(["gen-data", "--users", "3", "--horizon", "2", "--k", "2",
                         "--pool-size", "3", "--catalog-size", "5", "--dim", "2", "--gt-m", "2",
                         "--gt-n", "2", "--gt-hidden", "3", "--seed", "1", "--out", str(tmp_path)]) == 0
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
        code = cli_main(["evaluate", "--config", str(cfg)])
        assert code == 2
        assert "typo.cfg: unknown key 'pool_size'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_roster_policy_exits_2(self, tmp_path, capsys):
        code = cli_main(["evaluate", "--roster", "random,bogus", "--out", str(tmp_path)])
        assert code == 2
        assert ("unknown roster policy 'bogus'; choose from "
                "['cdqn', 'greedy', 'random']") in capsys.readouterr().err

    @pytest.mark.parametrize("roster", ["", ",", " , "], ids=["empty", "comma", "blank-names"])
    def test_empty_roster_exits_2_naming_the_flag(self, tmp_path, capsys, roster):
        # a run of no policy would write an aggregate.csv of only its header
        code = cli_main(["evaluate", "--roster", roster, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"--roster names no policy: {roster!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("roster, repeated", [("cdqn,random,cdqn", "cdqn"), ("random, random", "random"),
                                                  ("greedy,,cdqn,greedy", "greedy")],
                             ids=["cdqn", "random", "greedy"])
    def test_repeated_roster_name_exits_2_naming_it(self, tmp_path, capsys, roster, repeated):
        # else the policy plays twice, its metrics file is written twice and
        # aggregate.csv holds two rows of it
        path = str(tmp_path / "policy.ckpt")
        save_policy(path, init_cascade_net(8, 5, 4, 16, 3, np.random.default_rng(0)))
        code = cli_main(["evaluate", "--roster", roster, "--policy", path,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: roster names {repeated!r} more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_roster_is_refused_by_the_spec(self):
        with pytest.raises(ValueError, match="roster must name at least one policy"):
            ExperimentSpec(roster=[])

    def test_repeated_roster_name_is_refused_by_the_spec(self):
        # the names, not the kinds, must differ: two random entries of other names may play
        two = [RosterEntry("a", PolicyKind.RANDOM), RosterEntry("b", PolicyKind.RANDOM)]
        assert ExperimentSpec(roster=two).roster == two
        with pytest.raises(ValueError, match="roster names 'a' more than once"):
            ExperimentSpec(roster=two + [RosterEntry("a", PolicyKind.GREEDY_USER_MODEL)])

    def test_roster_entry_without_checkpoint_exits_2_naming_the_flag(self, tmp_path, capsys):
        code = cli_main(["evaluate", "--roster", "cdqn", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "roster policy 'cdqn' needs a checkpoint: pass --policy" in err
        assert "[evaluate]" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, file, mismatch", [
        (["evaluate", "--roster", "cdqn", "--policy", "P", "--k", "3"], "P", "k=5 where the run has k=3"),
        (["evaluate", "--roster", "cdqn", "--policy", "P", "--k", "5", "--dim", "6"], "P",
         "d=8 where the run has d=6"),
        (["evaluate", "--roster", "cdqn", "--policy", "P", "--k", "5", "--gt-m", "3"], "P",
         "m=5 where the run has m=3"),
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
        # a k=5 policy and a user model, both on d=8 features and m=5 clicks of history
        paths = {"P": str(tmp_path / "policy.ckpt"), "U": str(tmp_path / "user.ckpt")}
        save_policy(paths["P"], init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)))
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
        # diagnose-q takes k from the policy, which a smaller pool cannot fill
        code = cli_main(["diagnose-q", "--policy", path, "--pool-size", "4", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: need 1 <= k <= pool_size, got k=5 and pool_size=4\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("argv", [["evaluate", "--roster", "cdqn", "--policy", "P"],
                                      ["diagnose-q", "--policy", "P"]], ids=lambda argv: argv[0])
    def test_policy_trained_as_another_kind_exits_2_naming_the_file(self, tmp_path, capsys, argv):
        # the checkpoint fits the run's d, m and k; only its recorded policy_kind, rewritten
        # by hand, differs
        path = tmp_path / "policy.ckpt"
        save_policy(path, init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)))
        path.write_text(path.read_text().replace("meta policy_kind cdqn", "meta policy_kind additive"))
        code = cli_main([str(path) if arg == "P" else arg for arg in argv]
                        + ["--n-users", "2", "--reps", "1", "--k", "5"] * (argv[0] == "evaluate")
                        + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {path}: a policy trained as additive, not cdqn" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, file, kind", [
        (["evaluate", "--roster", "cdqn", "--policy", "U", "--k", "5"], "U", "cascade_policy"),
        (["diagnose-q", "--policy", "U"], "U", "cascade_policy"),
        (["evaluate", "--roster", "random", "--user-model", "P"], "P", "user_model"),
        (["evaluate", "--roster", "greedy", "--greedy-user-model", "P"], "P", "user_model"),
        (["train-policy", "--user-model", "P", "--iterations", "1"], "P", "user_model"),
    ], ids=["evaluate-policy", "diagnose-q-policy", "evaluate-user-model", "evaluate-greedy-user-model",
            "train-policy-user-model"])
    def test_checkpoint_of_the_wrong_kind_exits_2_naming_the_file(self, tmp_path, capsys, argv, file, kind):
        # a user model where a policy belongs and a policy where a user model belongs, each
        # of the run's d=8 and m=5: only the recorded kind is wrong
        paths = {"P": str(tmp_path / "policy.ckpt"), "U": str(tmp_path / "user.ckpt")}
        save_policy(paths["P"], init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)))
        save_user_model(paths["U"], make_ground_truth_user(synth_catalog(10, 8), (5, 4, 16), seed=1))
        out = tmp_path / "out"
        code = cli_main([paths.get(arg, arg) for arg in argv]
                        + ["--n-users", "2", "--reps", "1"] * (argv[0] == "evaluate")
                        + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[file]}: not a {kind} checkpoint\n"
        assert not out.exists()

    def test_readme_shaped_checkpoints_read_and_written_back_are_byte_identical(self, tmp_path):
        # the README pipeline's shapes: d=8, m=5, n=4, hidden=16, and a k=5 policy
        policy, user = tmp_path / "policy.ckpt", tmp_path / "user.ckpt"
        save_policy(policy, init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(1)),
                    extra_meta={"reward_mode": "learned"})
        save_user_model(user, make_ground_truth_user(synth_catalog(50, 8, 1), (5, 4, 16), seed=2,
                                                     reward_scale=3.0))
        save_policy(tmp_path / "policy2.ckpt", load_policy(policy), extra_meta={"reward_mode": "learned"})
        save_user_model(tmp_path / "user2.ckpt", training.load_user_model(user))
        assert (tmp_path / "policy2.ckpt").read_bytes() == policy.read_bytes()
        assert (tmp_path / "user2.ckpt").read_bytes() == user.read_bytes()

    def test_meta_lines_unlike_the_tensors_exit_2_naming_the_file(self, tmp_path, capsys):
        # a README-shaped policy whose meta d and hidden were rewritten by hand; evaluate in
        # the README world once ran it to exit 0
        path = tmp_path / "policy.ckpt"
        save_policy(path, init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)))
        path.write_text(path.read_text().replace("meta d 8\n", "meta d 9\n")
                        .replace("meta hidden 16\n", "meta hidden 3\n"))
        out = tmp_path / "out"
        code = cli_main(["evaluate", "--roster", "random,cdqn", "--policy", str(path),
                         "--catalog-size", "50", "--dim", "8", "--catalog-seed", "1", "--k", "5",
                         "--pool-size", "20", "--horizon", "10", "--n-users", "2", "--reps", "1",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {path}: meta d 9 where its tensors have d=8, "
                                           "meta hidden 3 where its tensors have hidden=16\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--roster", "cdqn", "--policy", "BAD_POLICY", "--k", "5"],
        ["diagnose-q", "--policy", "BAD_POLICY"],
        ["evaluate", "--roster", "random", "--user-model", "BAD_USER"],
        ["evaluate", "--roster", "greedy", "--greedy-user-model", "BAD_USER"],
        ["diagnose-q", "--policy", "POLICY", "--user-model", "BAD_USER"],
        ["train-policy", "--user-model", "BAD_USER"],
    ], ids=["evaluate-policy", "diagnose-q-policy", "evaluate-user-model", "evaluate-greedy-user-model",
            "diagnose-q-user-model", "train-policy-user-model"])
    def test_head_of_the_wrong_input_width_exits_2_naming_the_file(self, tmp_path, capsys, argv):
        # a policy's head 2 and a user model's reward head one column short of their input
        # [s; f_1 .. f_j]; these once loaded, and the run failed mid-way in a matmul, naming
        # no file, after evaluate had made --out
        paths = {name: str(tmp_path / f"{name}.ckpt") for name in ("POLICY", "BAD_POLICY", "BAD_USER")}
        qnet = init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0))
        save_policy(paths["POLICY"], qnet)
        qnet.heads[1].V = qnet.heads[1].V[:, :-1]
        save_policy(paths["BAD_POLICY"], qnet)
        user = make_ground_truth_user(synth_catalog(10, 8), (5, 4, 16), seed=1)
        user.theta.head.V = user.theta.head.V[:, :-1]
        save_user_model(paths["BAD_USER"], user)
        bad = next(arg for arg in argv if arg.startswith("BAD"))
        says = {"BAD_POLICY": "tensor L2 of shape (16, 47) needs d*n + 2*d = 48 columns",
                "BAD_USER": "tensor theta_V of shape (16, 39) needs d*n + d = 40 columns"}[bad]
        out = tmp_path / "out"
        code = cli_main([paths.get(arg, arg) for arg in argv]
                        + ["--n-users", "2", "--reps", "1"] * (argv[0] == "evaluate")
                        + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {paths[bad]}: {says}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--roster", "cdqn", "--policy", "BAD_POLICY", "--k", "5"],
        ["diagnose-q", "--policy", "BAD_POLICY"],
        ["evaluate", "--roster", "random", "--user-model", "BAD_USER"],
        ["diagnose-q", "--policy", "POLICY", "--user-model", "BAD_USER"],
    ], ids=["evaluate-policy", "diagnose-q-policy", "evaluate-user-model", "diagnose-q-user-model"])
    def test_zero_d_head_tensor_exits_2_naming_the_file(self, tmp_path, capsys, argv):
        # a policy's L1 and a user model's theta_V rewritten as 0-d tensors of one value; these
        # once failed reading the head's shape, as an IndexError naming no file
        paths = {name: tmp_path / f"{name}.ckpt" for name in ("POLICY", "BAD_POLICY", "BAD_USER")}
        for name in ("POLICY", "BAD_POLICY"):
            save_policy(paths[name], init_cascade_net(8, 5, 4, 16, 5, np.random.default_rng(0)))
        save_user_model(paths["BAD_USER"], make_ground_truth_user(synth_catalog(10, 8), (5, 4, 16), seed=1))
        for name, tensor in (("BAD_POLICY", "L1"), ("BAD_USER", "theta_V")):
            lines = paths[name].read_text().splitlines()
            at = next(i for i, line in enumerate(lines) if line.startswith(f"tensor {tensor} "))
            lines[at:at + 2] = [f"tensor {tensor} 0", "0.5"]
            paths[name].write_text("\n".join(lines) + "\n")
        bad = paths[next(arg for arg in argv if arg.startswith("BAD"))]
        out = tmp_path / "out"
        code = cli_main([str(paths.get(arg, arg)) for arg in argv]
                        + ["--n-users", "2", "--reps", "1"] * (argv[0] == "evaluate")
                        + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {bad}: head tensors V, b, v need 2, 1, 1 "
                                           "dimensions, got 0, 1, 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("eta", ["inf", "nan"])
    def test_non_finite_eta_exits_2_naming_the_file(self, tmp_path, capsys, eta):
        # eta inf once loaded, and evaluate reported ctr=1.0000 for every policy
        path = tmp_path / "user.ckpt"
        save_user_model(path, make_ground_truth_user(synth_catalog(10, 8), (5, 4, 16), seed=1))
        path.write_text(path.read_text().replace("meta eta 1\n", f"meta eta {eta}\n"))
        out = tmp_path / "out"
        code = cli_main(["evaluate", "--roster", "random,greedy", "--user-model", str(path),
                         "--n-users", "2", "--reps", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: eta must be finite and > 0, got {eta}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-user-model", "train-policy"])
    def test_non_finite_item_feature_exits_2_naming_file_and_line(self, tmp_path, capsys, command):
        # a nan feature once loaded: the fit diverged at epoch 1 and left an empty --out behind
        assert cli_main(["gen-data", "--users", "2", "--horizon", "3", "--k", "2", "--pool-size", "4",
                         "--catalog-size", "6", "--dim", "2", "--seed", "1", "--out", str(tmp_path)]) == 0
        path = tmp_path / "data.txt"
        lines = path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("item 3 "))
        lines[at] = "item 3 nan " + lines[at].split(maxsplit=3)[3]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "out"
        code = cli_main([command, "--data", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: line {at + 1}: non-finite feature of item 3\n"
        assert not out.exists()

    def test_end_to_end_pipeline(self, tmp_path):
        # every output file and the standard output, byte for byte
        digests = pipeline_digests(tmp_path)
        lines = (tmp_path / "q_constraints.csv").read_text().splitlines()
        assert lines[0] == "state_idx,j,qj,qk"
        assert len(lines) == 1 + 30 * 3
        assert digests == json.loads(PIPELINE_DIGESTS.read_text())

    def test_l2_fit_logs_clamped_test_records_as_one_line(self, tmp_path):
        # heldout_loglik warns when it clamps a zero-probability choice; the test-split
        # report gives the count on its [train-user-model] line, not as a raw Python
        # warning that names a source file. A child process sees stderr as a user would.
        assert cli_main(["gen-data", "--users", "8", "--horizon", "6", "--k", "3",
                         "--pool-size", "6", "--catalog-size", "12", "--dim", "4",
                         "--gt-m", "3", "--gt-n", "2", "--gt-hidden", "6", "--gt-reward-scale", "3",
                         "--seed", "1", "--out", str(tmp_path)]) == 0
        src = str(Path(slatesim.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "from slatesim.cli import main; main()", "train-user-model",
             "--data", str(tmp_path / "data.txt"), "--epochs", "1", "--batch-size", "32",
             "--n", "2", "--hidden", "6", "--eta", "3", "--regularizer", "l2",
             "--init-scheme", "entropy", "--seed", "1", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "UserWarning" not in proc.stderr and "training.py:" not in proc.stderr
        report = [line for line in proc.stderr.splitlines() if line.startswith("[train-user-model] test ")]
        assert len(report) == 1
        # the two clamped records put the fit below a uniform guess over its 4 slots
        assert report[0].endswith(" (2 record(s) had zero model probability; clamped to 1e-300)"
                                  " (no better than a uniform guess, -1.3863)")

    def test_fit_warnings_print_as_train_user_model_lines(self, tmp_path):
        # the fit's OscillationWarning once printed as a raw Python warning, naming
        # training.py and followed by its `warnings.warn(` source line
        assert cli_main(pipeline_stages(tmp_path)[0] + ["--seed", "1", "--out", str(tmp_path)]) == 0
        src = str(Path(slatesim.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "from slatesim.cli import main; main()", "train-user-model",
             "--data", str(tmp_path / "data.txt"), "--epochs", "3", "--batch-size", "1",
             "--n", "2", "--hidden", "6", "--regularizer", "l2", "--eta", "5", "--lr-theta", "1",
             "--lr-alpha", "2", "--seed", "1", "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr and "warnings.warn(" not in proc.stderr
        warned = [line for line in proc.stderr.splitlines() if line.startswith("[train-user-model] warning: ")]
        assert len(warned) == 1
        assert re.fullmatch(r"\[train-user-model\] warning: objective variance \S+ over the last 50 updates "
                            r"exceeds 5\.0", warned[0]), warned

    def test_fit_warnings_print_once_before_a_fit_failure(self, tmp_path, capsys, monkeypatch):
        def diverging_fit(*args, **kwargs):
            for _ in range(3):
                warnings.warn("overflow encountered in matmul", RuntimeWarning)
            raise training.TrainingDiverged(1)

        monkeypatch.setattr(training, "train_mle", diverging_fit)
        path = tmp_path / "data.txt"
        path.write_text("meta d=1 m=1 k=2\nitem 1 0.5\nitem 2 0.25\nrec 0 1 1 | 1 2\n")
        assert cli_main(["train-user-model", "--data", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-2] == "[train-user-model] warning: overflow encountered in matmul"
        assert err[-1].startswith("runtime error: TrainingDiverged")

    @pytest.mark.parametrize("regularizer, columns", [
        ("entropy", ["train_nll", "valid_nll", "prec1"]),
        # the L2 fit once wrote its objective under train_nll and a prec1 column of nan
        ("l2", ["objective", "valid_nll"]),
    ])
    def test_train_log_names_the_stats_of_its_estimator(self, tmp_path, capsys, regularizer, columns):
        stages = pipeline_stages(tmp_path)
        assert cli_main(stages[0] + ["--seed", "1", "--out", str(tmp_path)]) == 0
        assert cli_main(stages[1] + ["--regularizer", regularizer, "--seed", "1", "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "train_log.csv").read_text().splitlines()
        assert header.split(",") == ["epoch"] + columns
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
        assert all(len(row.split(",")) == 1 + len(columns) and "nan" not in row for row in rows)

    def test_display_of_the_non_click_id_exits_2_naming_file_and_line(self, tmp_path, capsys):
        # it once fitted, scoring the non-click id as a zero-feature item, and exited 0
        path = tmp_path / "data.txt"
        path.write_text("meta d=1 m=1 k=2\nitem 1 0.5\nitem 2 0.25\nrec 0 1 1 | 1 2\nrec 0 2 0 | 0 2\n")
        out = tmp_path / "out"
        code = cli_main(["train-user-model", "--data", str(path), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 5: record for user 0 step 2 displays unknown item 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("header_k", [2, 9])
    def test_header_k_unlike_the_widest_display_exits_2_naming_the_file(self, tmp_path, capsys, header_k):
        # it once fitted and wrote user_model.ckpt whatever k the header gave
        assert cli_main(pipeline_stages(tmp_path)[0] + ["--seed", "1", "--out", str(tmp_path)]) == 0
        path = tmp_path / "data.txt"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0] == "meta d=4 m=3 k=3\n"
        path.write_text(f"meta d=4 m=3 k={header_k}\n" + "".join(lines[1:]))
        capsys.readouterr()
        out = tmp_path / "out"
        code = cli_main(["train-user-model", "--data", str(path), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: meta k={header_k}, but the widest display holds 3 items\n")
        assert not out.exists()

    def test_gen_data_bit_reproducible(self, tmp_path):
        args = ["gen-data", "--users", "5", "--horizon", "4", "--k", "3",
                "--pool-size", "6", "--catalog-size", "10", "--dim", "3",
                "--gt-m", "3", "--gt-n", "2", "--gt-hidden", "4", "--seed", "9"]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("data.txt", "ground_truth_user.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diagnose_prints_per_position_correlation(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main([
            "gen-data", "--users", "4", "--horizon", "4", "--k", "2",
            "--pool-size", "5", "--catalog-size", "8", "--dim", "3",
            "--gt-m", "3", "--gt-n", "2", "--gt-hidden", "4", "--seed", "2", "--out", out,
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
        assert proc.stderr == "error: horizon must be >= 1, got 0\n"
        assert not (tmp_path / "q_constraints.csv").exists()

    def test_gen_data_zero_horizon_exits_2_naming_the_flag(self, tmp_path, capsys):
        # it once wrote a data.txt with k=0 in its header and no record
        code = cli_main(["gen-data", "--users", "2", "--horizon", "0", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: horizon must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_log_without_records_exits_2_naming_the_file(self, tmp_path, capsys):
        # it once failed with "error: empty user set", naming neither the file nor the cause
        path = tmp_path / "data.txt"
        path.write_text("meta d=1 m=0 k=0\nitem 1 0.5\nitem 2 0.25\n")
        code = cli_main(["train-user-model", "--data", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: the log holds no click record to fit\n"
        assert not (tmp_path / "out").exists()

    def test_capacity_below_the_minibatch_exits_2_before_any_output(self, tmp_path, capsys):
        # it once ran every iteration with no SGD step, printed td_loss=nan, exited 0 and
        # wrote a policy equal to the seed's initial net
        out = tmp_path / "out"
        code = cli_main(["train-policy", "--catalog-size", "8", "--dim", "3", "--k", "2",
                         "--pool-size", "4", "--horizon", "3", "--iterations", "2", "--capacity", "10",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: capacity must be >= minibatch, got 10 < 32\n"
        assert not out.exists()

    def test_test_split_without_a_click_reports_the_loglik_and_exits_0(self, tmp_path, capsys):
        # it once wrote its outputs, then failed with "no clicked records to evaluate"
        stages = pipeline_stages(tmp_path)
        assert cli_main(stages[0] + ["--seed", "1", "--out", str(tmp_path)]) == 0
        data = tmp_path / "data.txt"
        catalog, trajectories = load_trajectories(data)
        test = split_users([t.user_id for t in trajectories], seed=1).test
        save_trajectories(catalog, [
            Trajectory(t.user_id, tuple(r._replace(chosen=0) for r in t.records)) if t.user_id in test
            else t for t in trajectories], data, m=3)
        capsys.readouterr()
        out = tmp_path / "fit"
        assert cli_main(stages[1] + ["--seed", "1", "--out", str(out)]) == 0
        report = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("[train-user-model] test")]
        assert len(report) == 1 and re.fullmatch(r"\[train-user-model\] test heldout_loglik=-\d+\.\d{4}",
                                                  report[0]), report
        assert {"user_model.ckpt", "train_log.csv"} <= set(os.listdir(out))

    def test_fit_no_better_than_a_uniform_guess_says_so(self, tmp_path, capsys):
        # on the README log this L2 fit scores every test record 1/6, bit for bit ln(1/6) on
        # average, and once reported it as if it had learned something
        assert cli_main(["gen-data", "--users", "50", "--horizon", "20", "--k", "5", "--pool-size", "20",
                         "--catalog-size", "50", "--dim", "8", "--gt-m", "5", "--gt-n", "4",
                         "--gt-hidden", "16", "--gt-reward-scale", "3", "--seed", "1",
                         "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert cli_main(["train-user-model", "--data", str(tmp_path / "data.txt"), "--regularizer", "l2",
                         "--eta", "5", "--lr-theta", "5", "--lr-alpha", "2", "--epochs", "20",
                         "--seed", "1", "--out", str(tmp_path / "fit")]) == 0
        report = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("[train-user-model] test")]
        assert report == ["[train-user-model] test prec@1=0.1768 heldout_loglik=-1.7918 "
                          "(no better than a uniform guess, -1.7918)"]

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
        assert cli_main(["evaluate", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfg_out" / "aggregate.csv").exists()
        # CLI flag overrides the file
        assert cli_main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "cli_out")]) == 0
        assert (tmp_path / "cli_out" / "aggregate.csv").exists()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        print(json.dumps(pipeline_digests(Path(out)), indent=1))
