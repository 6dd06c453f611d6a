"""The benchmark's pipeline stages and the workloads built from them.

The paper's pipeline has three parts: fitting a user model from click logs,
training a cascading Q-network against a simulated user, and evaluating a
policy roster. Each part is cut into short chunks of work, each a single call
into slatesim. A workload fixes the world the chunks run in (catalog size and
candidate pool) and a cycle of chunks weighted toward the part it is named
after; a run is several fresh processes, each running the cycle once. Every
stage appears in every cycle, so every end-to-end metric is measured on every
workload.

On the 2-CPU cloud machine the baseline comes from, speed switches between two
states about 1.8x apart, for periods of seconds up to a whole run. So a fixed
calibration kernel, which does not use slatesim, is timed between chunks, and
each chunk's rate is scaled by the calibration time around it (see
`calibration_s`).

The loop is closed: one process, one thread, and the next call is made only
when the previous one returns. The library receives only the generated
catalog, user, episodes and logs.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from slatesim import agent, data, nets, training
from slatesim import env as envlib
from slatesim import metrics as metricslib
from slatesim.choice import PROB_FLOOR, Regularizer

# One feature dimension, slate size and ground-truth user for every world,
# fixed across seeds, so that the quality metrics move with the code and not
# with the world they are measured in.
DIM = 8
K = 5
CATALOG_SEED = 1
USER_SEED = 2
USER_DIMS = (5, 4, 16)  # history length m, embedding width n, hidden units
REWARD_SCALE = 3.0


@dataclass(frozen=True)
class World:
    catalog_size: int
    pool: int

    def build(self) -> tuple[data.ItemCatalog, training.UserModel]:
        catalog = data.synth_catalog(self.catalog_size, DIM, CATALOG_SEED)
        return catalog, envlib.make_ground_truth_user(catalog, USER_DIMS, USER_SEED, REWARD_SCALE)


README = World(catalog_size=50, pool=20)
WIDE = World(catalog_size=1000, pool=50)

# Why each workload exists:
#
# train-cdqn: the policy-training hot path, in the README world. Under cProfile
#   compute_target is ~50% of train_cdqn's wall time, because it runs one
#   Python cascade per replay sample; ItemCatalog.feature_matrix is ~41% and
#   overlaps it; env.step is ~14%, the act cascade ~16% and the TD update ~11%.
#   ROADMAP items 2a (dense catalog) and 2b (batched cascade) show here.
# eval-wide-catalog: run_experiment has no replay and no TD targets, so
#   per-step environment work and batch-size-1 policies dominate, and the
#   K=1000 catalog and pool of 50 widen the working set of every stage:
#   env.draw_candidates plus the item_ids re-sort is ~44% of evaluation here
#   but small at K=50, and the act cascade is ~22%. ROADMAP item 2c
#   (vectorised env) shows here; a targets-only change (2b) should not move
#   eval_steps_per_s.
# log-and-fit: in the README world, batched nets.scorer_batch and
#   scorer_batch_grad forward and backward dominate the fit and agent does
#   nothing; nets runs as batched training rather than batch-size-1 inference,
#   and data as a file write plus parse rather than feature lookup. ROADMAP
#   item 3 (one regularizer kernel in place of the entropy/L2 branches)
#   rewrites this code, so a simplification must show no regression here.
WORLDS = {"train-cdqn": README, "eval-wide-catalog": WIDE, "log-and-fit": README}
MIXES = {
    "train-cdqn": ("train", "eval", "train", "log", "train", "fit", "train", "eval", "log", "train",
                   "fit", "train", "eval", "log", "fit"),
    "eval-wide-catalog": ("eval", "train", "log", "eval", "fit", "train", "eval", "log", "fit", "eval",
                          "train", "log", "fit"),
    "log-and-fit": ("log", "fit", "train", "log", "fit", "eval", "log", "fit", "train", "log", "fit",
                    "eval", "train", "eval", "log", "fit"),
}

def calibration_s() -> float:
    """Wall time of a fixed kernel shaped like slatesim's per-step work (seeded
    generators, small sorts and dicts, small matrix products) without using it."""
    start = time.perf_counter()
    total = 0.0
    for t in range(200):
        x = np.random.default_rng((7, 101, t)).random(20)
        ids = sorted(range(60), key=lambda i: (i * 7919) % 101)
        by_id = {i: x[i % 20] for i in ids}
        m = np.stack([np.full(DIM, by_id[i]) for i in ids[:20]])
        total += float((np.tanh(m @ np.ones((DIM, 16))) @ np.ones(16)).sum())
    if not math.isfinite(total):
        raise RuntimeError("calibration kernel gave a non-finite result")
    return time.perf_counter() - start


def episode_base(seed: int, child: int, chunk: int) -> int:
    """First episode number of one chunk: disjoint across seeds, processes and chunks."""
    return ((seed * 64 + child) * 64 + chunk) * 1000


class Tally:
    """Operations attempted and failed, and the output checks that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def tensor_digest(*params) -> str:
    """sha256 over the names, shapes and float64 bytes of each container's tensors."""
    h = hashlib.sha256()
    for p in params:
        for name, t in nets.named_tensors(p).items():
            t = np.ascontiguousarray(t, dtype=np.float64)
            h.update(f"{name}{t.shape}".encode())
            h.update(t.tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def random_policy(catalog: data.ItemCatalog) -> envlib.Policy:
    return agent.make_policy(agent.PolicyHandle(agent.PolicyKind.RANDOM), catalog, K)


class Stage:
    """Work done and wall seconds spent in each of one stage's timed chunks, plus its outputs."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.quality: dict[str, list[float]] = {}
        self.digests: dict[str, list[str]] = {}

    def timed(self, work: float, seconds: float) -> None:
        self.samples.append((work, seconds))

    def record(self, quality: dict[str, float] | None = None, **digests: str) -> None:
        for name, value in (quality or {}).items():
            self.quality.setdefault(name, []).append(value)
        for name, digest in digests.items():
            self.digests.setdefault(name, []).append(digest)


class Training(Stage):
    """`agent.train_cdqn` in the README shape (k=5, horizon 10, 10 users per
    iteration, minibatch 32), learned-reward mode.

    A timed chunk trains for CHUNK_ITERATIONS in the workload's world. The
    policy gain comes from one untimed QUALITY_ITERATIONS training in the
    README world, scored against random_slate on held-out episodes.
    """

    CHUNK_ITERATIONS = 5
    QUALITY_ITERATIONS = 30
    HELDOUT_EPISODES = 200
    # Training and its held-out episodes are the same on every run. Across
    # eight training seeds the gain after 60 iterations ranged from 0.09 to
    # 0.25, and across five held-out sets of 300 episodes the gain of one
    # policy spread by 21% of its median: both wider than a useful bound. So
    # the gain is a fixed-input regression check of training, not a sample.
    TRAIN_SEED = 1

    def __init__(self, world: World) -> None:
        super().__init__()
        self.env, self.user = self._env(world)
        self.readme_env, self.readme_user = self._env(README)

    @staticmethod
    def _env(world: World) -> tuple[envlib.SlateEnv, training.UserModel]:
        catalog, user = world.build()
        return envlib.SlateEnv(catalog, envlib.EnvConfig(k=K, pool_size=world.pool, horizon=10)), user

    def _train(self, env: envlib.SlateEnv, user: training.UserModel, iterations: int,
               tally: Tally) -> tuple[nets.CascadeQNet | None, float]:
        config = agent.CDQNConfig(
            gamma=0.9, epsilon=0.3, epsilon_final=0.05, iterations=iterations, horizon=10,
            batch_users=10, minibatch=32, lr=0.02, seed=self.TRAIN_SEED,
            reward_mode=agent.RewardMode.LEARNED_REWARD, n=USER_DIMS[1], hidden=USER_DIMS[2])
        # training episodes are even seeds; eval_env_seed gives odd ones
        factory = agent.make_env_factory(env, user, 2 * self.TRAIN_SEED)
        losses: list[float] = []
        start = time.perf_counter()
        try:
            qnet = agent.train_cdqn(factory, config,
                                    on_iteration=lambda it, stats: losses.append(stats["mean_td_loss"]))
        except (ValueError, RuntimeError) as exc:
            qnet = None
            tally.problems.append(f"train_cdqn: {exc}")
        elapsed = time.perf_counter() - start
        done = sum(1 for loss in losses if math.isfinite(loss))
        tally.count(iterations, iterations - done)
        tally.check(done == iterations, f"train_cdqn: {iterations - done} iterations without a finite TD loss")
        return (qnet if done == iterations else None), elapsed

    def chunk(self, tally: Tally, child: int, index: int) -> None:
        qnet, elapsed = self._train(self.env, self.user, self.CHUNK_ITERATIONS, tally)
        if qnet is None:
            return
        self.timed(self.CHUNK_ITERATIONS * 10 * 10, elapsed)  # iterations x users x horizon
        self.record(chunk_policy=tensor_digest(qnet))

    def score(self, tally: Tally) -> None:
        """Untimed: train QUALITY_ITERATIONS, then cascade minus random on held-out episodes."""
        qnet, _ = self._train(self.readme_env, self.readme_user, self.QUALITY_ITERATIONS, tally)
        if qnet is None:
            return
        seeds = [metricslib.eval_env_seed(0, u, 0, self.HELDOUT_EPISODES)
                 for u in range(self.HELDOUT_EPISODES)]
        rewards = []
        for kind in (agent.PolicyKind.CDQN, agent.PolicyKind.RANDOM):
            policy = agent.make_policy(agent.PolicyHandle(kind, qnet=qnet), self.readme_env.catalog, K)
            rewards.append([self._episode(policy, s, tally) for s in seeds])
        pairs = [(c, r) for c, r in zip(*rewards) if c is not None and r is not None]
        if pairs:
            gain = float(np.mean([c for c, _ in pairs]) - np.mean([r for _, r in pairs]))
            self.record({"train_policy_gain": gain}, policy=tensor_digest(qnet))

    def _episode(self, policy: envlib.Policy, seed: int, tally: Tally) -> float | None:
        """Time-averaged reward of one episode, or None (counted as failed) if it raises or is not finite."""
        try:
            _, reward, _ = envlib.rollout(self.readme_env, self.readme_user, policy, seed=seed)
        except (ValueError, RuntimeError) as exc:
            tally.count(1, 1)
            tally.problems.append(f"held-out episode {seed}: {exc}")
            return None
        ok = math.isfinite(reward)
        tally.count(1, 0 if ok else 1)
        return reward if ok else None


class Evaluation(Stage):
    """`metrics.run_experiment`, roster random, greedy and cdqn, k=5 and
    horizon 10, in the workload's world; one call per chunk."""

    HORIZON = 10
    USERS = 20
    REPS = 4
    ROSTER = (("random", agent.PolicyKind.RANDOM), ("greedy", agent.PolicyKind.GREEDY_USER_MODEL),
              ("cdqn", agent.PolicyKind.CDQN))

    def __init__(self, seed: int, world: World, workdir: str) -> None:
        super().__init__()
        self.seed = seed
        self.world = world
        self.workdir = workdir
        # A seeded untrained net costs as much per step as a trained one, and
        # keeps setup_s independent of training speed. It goes through
        # save_policy and load_policy exactly as the evaluate command's does.
        qnet = nets.init_cascade_net(DIM, USER_DIMS[0], USER_DIMS[1], USER_DIMS[2], K,
                                     np.random.default_rng(seed))
        self.policy_path = os.path.join(workdir, "cdqn_policy.ckpt")
        agent.save_policy(self.policy_path, qnet)

    def chunk(self, tally: Tally, child: int, index: int) -> None:
        out_dir = os.path.join(self.workdir, f"eval{index}")
        roster = [metricslib.RosterEntry(name, kind, self.policy_path if kind is agent.PolicyKind.CDQN else None)
                  for name, kind in self.ROSTER]
        spec = metricslib.ExperimentSpec(
            seed=episode_base(self.seed, child, index), catalog_size=self.world.catalog_size, dim=DIM,
            catalog_seed=CATALOG_SEED, gt_m=USER_DIMS[0], gt_n=USER_DIMS[1], gt_hidden=USER_DIMS[2],
            gt_seed=USER_SEED, gt_reward_scale=REWARD_SCALE,
            env=envlib.EnvConfig(k=K, pool_size=self.world.pool, horizon=self.HORIZON),
            n_users=self.USERS, repetitions=self.REPS, out_dir=out_dir, roster=roster)
        episodes = len(self.ROSTER) * self.USERS * self.REPS
        start = time.perf_counter()
        try:
            reports = metricslib.run_experiment(spec)
        except (ValueError, RuntimeError, OSError) as exc:
            tally.count(episodes, episodes)
            tally.problems.append(f"run_experiment: {exc}")
            return
        elapsed = time.perf_counter() - start
        tally.count(episodes, self._check(out_dir, reports, tally))
        self.timed(episodes * self.HORIZON, elapsed)
        rewards = {r.policy: r.avg_cumulative_reward for r in reports}
        self.record({"eval_greedy_gain": rewards["greedy"] - rewards["random"]},
                    aggregate=file_digest(os.path.join(out_dir, "aggregate.csv")))

    def _check(self, out_dir: str, reports, tally: Tally) -> int:
        """Check the metric files against each other; returns the episodes with a non-finite result."""
        failed = 0
        with open(os.path.join(out_dir, "aggregate.csv"), encoding="utf-8") as fh:
            aggregate = {row[0]: row for row in (line.split(",") for line in fh.read().splitlines()[1:])}
        tally.check(sorted(aggregate) == sorted(n for n, _ in self.ROSTER), "aggregate.csv: wrong policies")
        for report in reports:
            with open(os.path.join(out_dir, f"{report.policy}_metrics.csv"), encoding="utf-8") as fh:
                rows = [[float(x) for x in line.split(",")] for line in fh.read().splitlines()[1:]]
            tally.check(len(rows) == self.USERS * self.REPS,
                        f"{report.policy}_metrics.csv: {len(rows)} rows, expected users x reps")
            failed += sum(1 for *_, reward, ctr in rows if not (math.isfinite(reward) and math.isfinite(ctr)))
            tally.check(all(0.0 <= ctr <= 1.0 for *_, ctr in rows), f"{report.policy}: CTR outside [0, 1]")
            by_rep: dict[float, list[tuple[float, float]]] = {}
            for _, rep, reward, ctr in rows:
                by_rep.setdefault(rep, []).append((reward, ctr))
            reward_mean = np.mean([np.mean([r for r, _ in v]) for v in by_rep.values()])
            ctr_mean = np.mean([np.mean([c for _, c in v]) for v in by_rep.values()])
            row = aggregate.get(report.policy)
            if row is None:
                continue
            tally.check([int(x) for x in row[1:4]] == [self.USERS, self.REPS, self.HORIZON],
                        f"aggregate.csv: {report.policy} counts disagree with the spec")
            tally.check(math.isclose(float(row[4]), reward_mean, rel_tol=1e-6, abs_tol=1e-9)
                        and math.isclose(float(row[7]), ctr_mean, rel_tol=1e-6, abs_tol=1e-9),
                        f"aggregate.csv: {report.policy} disagrees with its metrics file")
            tally.check(0.0 <= float(row[7]) <= 1.0, f"aggregate.csv: {report.policy} CTR outside [0, 1]")
        return failed


class Logging(Stage):
    """Random-policy `env.rollout` logs in the workload's world, written with save_trajectories and
    parsed back with load_trajectories; one batch of users per chunk."""

    USERS = 100
    HORIZON = 20

    def __init__(self, seed: int, world: World, workdir: str) -> None:
        super().__init__()
        self.seed = seed
        self.workdir = workdir
        self.catalog, self.user = world.build()
        self.env = envlib.SlateEnv(self.catalog, envlib.EnvConfig(k=K, pool_size=world.pool, horizon=self.HORIZON))
        self.latest: tuple[data.ItemCatalog, list[data.Trajectory]] | None = None

    def chunk(self, tally: Tally, child: int, index: int) -> None:
        path = os.path.join(self.workdir, f"logs{index}.txt")
        policy = random_policy(self.catalog)
        base = episode_base(self.seed, child, index)
        trajectories = []
        start = time.perf_counter()
        for u in range(self.USERS):
            try:
                traj, _, _ = envlib.rollout(self.env, self.user, policy, T=self.HORIZON,
                                            seed=2 * (base + u), user_id=u)
                trajectories.append(traj)
            except (ValueError, RuntimeError) as exc:
                tally.problems.append(f"log episode {base + u}: {exc}")
        data.save_trajectories(self.catalog, trajectories, path, m=USER_DIMS[0])
        catalog, loaded = data.load_trajectories(path)
        elapsed = time.perf_counter() - start
        tally.count(self.USERS, self.USERS - len(trajectories))
        tally.check([(t.user_id, [(r.step, r.displayed, r.chosen) for r in t.records]) for t in loaded]
                    == [(t.user_id, [(r.step, r.displayed, r.chosen) for r in t.records]) for t in trajectories],
                    "load_trajectories does not give back the saved logs")
        tally.check(all(len(set(r.displayed)) == K for t in loaded for r in t.records),
                    "a logged slate does not hold k distinct items")
        self.timed(sum(len(t.records) for t in trajectories), elapsed)
        self.latest = (catalog, loaded)
        self.record(logs=file_digest(path))


class Fitting(Stage):
    """`training.train_mle`, then the L2 `training.train_minimax` with entropy
    init, on the logs of the latest logging chunk; scored on its test split."""

    MLE_EPOCHS = 8
    INIT_EPOCHS = 8
    MINIMAX_EPOCHS = 4

    def __init__(self, seed: int, logging: Logging) -> None:
        super().__init__()
        self.seed = seed
        self.logging = logging
        self.loglik_clamped = 0
        # Patience equals the epoch count, so no fit stops early: every fit
        # processes a fixed number of examples, counted without a hook.
        common = dict(eta=1.0, lr_theta=0.08, batch_size=64, seed=seed, m=USER_DIMS[0],
                      n=USER_DIMS[1], hidden=USER_DIMS[2])
        self.mle_config = training.TrainConfig(epochs=self.MLE_EPOCHS, patience=self.MLE_EPOCHS, **common)
        self.l2_config = training.TrainConfig(
            epochs=self.MINIMAX_EPOCHS, init_epochs=self.INIT_EPOCHS, lr_alpha=0.05,
            patience=max(self.MINIMAX_EPOCHS, self.INIT_EPOCHS), regularizer=Regularizer.L2,
            init_scheme=training.InitScheme.ENTROPY_INIT, **common)

    def chunk(self, tally: Tally, child: int, index: int) -> None:
        catalog, trajectories = self.logging.latest
        split = data.split_users([t.user_id for t in trajectories], seed=episode_base(self.seed, child, index))
        train = [t for t in trajectories if t.user_id in split.train]
        valid = [t for t in trajectories if t.user_id in split.valid]
        test = [t for t in trajectories if t.user_id in split.test]
        models = {}
        elapsed = 0.0
        with warnings.catch_warnings():
            # the L2 model's held-out log-likelihood warns about clamped records
            warnings.simplefilter("ignore")
            for name, fit, config in (("mle", training.train_mle, self.mle_config),
                                      ("l2", training.train_minimax, self.l2_config)):
                start = time.perf_counter()
                try:
                    models[name] = fit(catalog, train, config, valid=valid)
                except (ValueError, RuntimeError) as exc:
                    tally.problems.append(f"{fit.__name__}: {exc}")
                elapsed += time.perf_counter() - start
            tally.count(2, 2 - len(models))
            if len(models) < 2:
                return
            records = sum(len(t.records) for t in train)
            self.timed(records * (self.MLE_EPOCHS + self.INIT_EPOCHS + self.MINIMAX_EPOCHS), elapsed)
            examples = training.build_examples(catalog, test, USER_DIMS[0])
            mle, l2 = models["mle"], models["l2"]
            quality = {
                "fit_mle_prec1": training.precision_at_k(mle, examples, 1),
                "fit_mle_heldout_nll": -training.heldout_loglik(mle, examples),
                "fit_l2_prec1": training.precision_at_k(l2, examples, 1),
            }
        bad = [name for name, value in quality.items() if not math.isfinite(value)]
        tally.check(not bad, f"non-finite fit quality: {bad}")
        tally.check(0.0 <= quality["fit_mle_prec1"] <= 1.0 and 0.0 <= quality["fit_l2_prec1"] <= 1.0,
                    "prec@1 outside [0, 1]")
        self.loglik_clamped += sum(1 for ex in examples
                                   if training.model_choice_probs(l2, ex.hist, ex.disp)[ex.chosen] < PROB_FLOOR)
        self.record(quality, fit=tensor_digest(mle.theta, l2.theta, l2.alpha))


class Cycle:
    """One process's share of a run: every stage's inputs (the set-up), then one cycle of chunks."""

    def __init__(self, workload: str, seed: int, child: int, workdir: str) -> None:
        if workload not in MIXES:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(MIXES)}")
        world = WORLDS[workload]
        self.mix = MIXES[workload]
        self.child = child
        logging = Logging(seed, world, workdir)
        self.stages = {
            "train": Training(world),
            "eval": Evaluation(seed, world, workdir),
            "log": logging,
            "fit": Fitting(seed, logging),
        }

    def warm_up(self) -> None:
        """First calls into numpy's generator, choice and einsum paths, before any timer."""
        train = self.stages["train"]
        envlib.rollout(train.env, train.user, random_policy(train.env.catalog), T=2, seed=1)
        nets.scorer_batch(train.user.theta, np.zeros((2, DIM, USER_DIMS[0])), np.zeros((2, K + 1, DIM)))
        calibration_s()

    def run(self) -> dict:
        """Timed chunks, then (in the first process only) the untimed policy score.

        Each chunk's sample is (work, seconds, calibration seconds), the last
        the mean of the calibration runs just before and just after it."""
        tally = Tally()
        samples: dict[str, list[tuple[float, float, float]]] = {kind: [] for kind in self.stages}
        before = calibration_s()
        for index, kind in enumerate(self.mix):
            stage = self.stages[kind]
            done = len(stage.samples)
            stage.chunk(tally, self.child, index)
            after = calibration_s()
            samples[kind] += [(work, seconds, (before + after) / 2) for work, seconds in stage.samples[done:]]
            before = after
        if self.child == 0:
            self.stages["train"].score(tally)
        quality: dict[str, list[float]] = {}
        digests: dict[str, list[str]] = {}
        for stage in self.stages.values():
            quality.update(stage.quality)
            digests.update(stage.digests)
        return {
            "samples": samples,
            "quality": quality,
            "digests": digests,
            "counts": {"loglik_clamped": self.stages["fit"].loglik_clamped},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
        }
