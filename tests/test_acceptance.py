"""Acceptance suite: every criterion runs at its stated tolerance and prints a
pass/fail line (visible with `pytest -s` or in the captured-output section)."""

import itertools
import time

import numpy as np
import pytest

from slatesim.agent import (
    CDQNConfig,
    EvalCounter,
    PolicyHandle,
    PolicyKind,
    RewardMode,
    cascade_plan,
    constraint_diagnostic,
    make_env_factory,
    make_policy,
    train_cdqn,
)
from slatesim.choice import ChoiceConfig, Regularizer, _gumbel_argmax
from slatesim.data import synth_catalog
from slatesim.env import (
    EnvConfig,
    SlateEnv,
    make_ground_truth_user,
    rollout,
    rollout_batch,
)
from slatesim.cli import collect_states
from slatesim.metrics import ExperimentSpec, RosterEntry, run_experiment
from slatesim.nets import (
    PositionWeightParams,
    ScorerNet,
    ScorerParams,
    embed_history,
    init_scorer_net,
    run_gradient_check,
)
from slatesim.training import (
    TrainConfig,
    UserModel,
    build_examples,
    induced_softmax_alpha,
    minimax_objective,
    model_choice_probs,
    nll_loss,
    precision_at_k,
    train_mle,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gumbel sampling reproduces the closed-form choice probabilities


def test_criterion_1_gumbel_softmax_identity():
    t0 = time.time()
    rng = np.random.default_rng(12345)
    cfg = ChoiceConfig(eta=1.0)
    draws = 100_000
    worst = 0.0
    for _ in range(20):
        r = rng.standard_normal(5)
        probs = cfg.regularizer.probs(r, cfg.eta)
        # the kernel sample_choice runs, on the uniforms of `draws` rows of r
        picks = _gumbel_argmax(cfg.eta * r[None], rng.random((draws, 5)))
        emp = np.bincount(picks, minlength=5) / draws
        worst = max(worst, 0.5 * float(np.abs(emp - probs).sum()))
    elapsed = time.time() - t0
    report(1, worst <= 0.01 and elapsed < 10.0,
           f"worst TV {worst:.5f} (<= 0.01) over 20 reward vectors, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. Closed-form inner maximization equals maximum likelihood


def test_criterion_2_mle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(777)
    worst = 0.0
    for trial in range(50):
        eta = 1.0 if trial < 25 else float(rng.uniform(0.3, 3.0))
        d, m, n, hid = 3, 3, 2, 5
        theta = init_scorer_net(d, m, n, hid, rng)
        slots = int(rng.integers(2, 7))
        records = int(rng.integers(5, 30))
        examples = []
        from slatesim.training import Example
        for _ in range(records):
            examples.append(Example(
                hist=rng.standard_normal((d, m)),
                disp=rng.standard_normal((slots, d)),
                chosen=int(rng.integers(0, slots)),
                n_items=slots - 1,
            ))
        obj = minimax_objective(theta, None, examples, eta,
                                Regularizer.SHANNON_ENTROPY, exact_inner=True)
        nll = nll_loss(theta, examples, eta)
        # summed over records: eta * objective == negative log-likelihood
        gap = abs(eta * obj * records - nll * records)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    report(2, worst <= 1e-9 and elapsed < 5.0,
           f"max |eta*objective - NLL| (summed) {worst:.2e} (<= 1e-9) "
           f"over 50 instances, {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 3. Analytic gradients against central finite differences


def test_criterion_3_gradient_correctness():
    t0 = time.time()
    err = run_gradient_check(seed=2024, trials=100, dims_max=6, h=1e-5)
    elapsed = time.time() - t0
    report(3, err <= 1e-4 and elapsed < 30.0,
           f"max relative gradient error {err:.2e} (<= 1e-4) over 100 instances, "
           f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 4. Cascade exactness with enumeration-built per-position tables


def test_criterion_4_cascade_exactness():
    t0 = time.time()
    items = tuple(range(1, 9))
    k = 3
    worst_gap = 0.0
    max_evals = 0
    for trial in range(50):
        rng = np.random.default_rng(9000 + trial)
        qstar = {perm: float(rng.standard_normal())
                 for perm in itertools.permutations(items, k)}
        tables = [dict() for _ in range(k)]
        for perm, val in qstar.items():
            for j in range(1, k + 1):
                key = perm[:j]
                if key not in tables[j - 1] or val > tables[j - 1][key]:
                    tables[j - 1][key] = val

        def qeval(j, prefix, cands):
            return np.array([tables[j - 1][prefix + (a,)] for a in cands])

        counter = EvalCounter()
        slate, values = cascade_plan(qeval, items, k, counter)
        brute = max(qstar.values())
        worst_gap = max(worst_gap, abs(qstar[tuple(slate)] - brute))
        max_evals = max(max_evals, counter.count)
    elapsed = time.time() - t0
    ok = worst_gap == 0.0 and max_evals <= k * len(items) and elapsed < 10.0
    report(4, ok,
           f"cascade attained the brute-force max in all 50 draws (gap {worst_gap:.1e}); "
           f"max Q-evals {max_evals} <= {k * len(items)}; {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 5. Model recovery from synthetic logs


def history_gated_user(catalog, m: int, rng: np.random.Generator,
                       gate_sd: float, c_add: float, c_int: float) -> UserModel:
    """Softmax user whose item ranking direction flips with the click history.

    One feature coordinate of the (uniformly position-weighted) history acts as
    a gate between two preference directions; an antisymmetric pair of linear
    units carries the history-free component."""
    d = catalog.d
    pw = PositionWeightParams(W=np.ones((m, 1)), B=np.zeros((d, 1)))
    feats = np.stack([catalog.features(i) for i in catalog.item_ids])
    sampled = []
    for _ in range(500):
        depth = int(rng.integers(0, m + 1))
        F = np.zeros((d, m))
        if depth:
            picks = rng.integers(0, len(feats), size=depth)
            F[:, m - depth:] = feats[picks].T
        sampled.append(embed_history(F, pw))
    S = np.array(sampled)
    coord = int(rng.integers(0, d))
    a = np.zeros(d)
    a[coord] = gate_sd / max(S[:, coord].std(), 1e-9)
    center = float((S @ a).mean())
    w0 = rng.standard_normal(d)
    w0 /= np.linalg.norm(w0)
    w1 = rng.standard_normal(d)
    w1 -= (w1 @ w0) * w0
    w1 /= np.linalg.norm(w1)
    V = np.zeros((4, d + d))
    v = np.zeros(4)
    b = np.zeros(4)
    V[0, :d] = a
    V[0, d:] = c_int * w1
    b[0] = -center
    V[1, :d] = -a
    V[1, d:] = c_int * w1
    b[1] = +center
    v[0], v[1] = 1.0, -1.0
    V[2, d:] = c_add * w0
    b[2] = 4.0
    v[2] = 1.0
    V[3, d:] = -c_add * w0
    b[3] = 4.0
    v[3] = -1.0
    theta = ScorerNet(pw=pw, head=ScorerParams(V=V, b=b, v=v))
    return UserModel(theta=theta, alpha=induced_softmax_alpha(theta, 1.0),
                     config=ChoiceConfig(1.0, Regularizer.SHANNON_ENTROPY))


def fit_logistic_ranker(examples, d: int, iterations: int = 800, lr: float = 0.5):
    """History-free softmax baseline: one weight vector over item features."""
    X = np.stack([e.disp for e in examples])
    y = np.array([e.chosen for e in examples])
    w = np.zeros(d)
    rows = np.arange(len(y))
    for _ in range(iterations):
        logits = X @ w
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        grad = (np.einsum("bs,bsd->d", p, X) - X[rows, y].sum(axis=0)) / len(y)
        w -= lr * grad
    return w


def test_criterion_5_model_recovery():
    t0 = time.time()
    d, m, k, K = 4, 4, 6, 40
    catalog = synth_catalog(K, d, seed=101)
    gt = history_gated_user(catalog, m, np.random.default_rng(108), 2.0, 0.8, 1.8)
    env = SlateEnv(catalog, EnvConfig(k=k, pool_size=20, horizon=20))
    policy = make_policy(PolicyHandle(PolicyKind.RANDOM), catalog, k)
    trajs = [rollout(env, gt, policy, seed=2 * u, user_id=u)[0] for u in range(200)]
    held = [rollout(env, gt, policy, seed=2 * (10_000 + u) + 1, user_id=u)[0]
            for u in range(30)]
    train_ex = build_examples(catalog, trajs, m)
    held_ex = build_examples(catalog, held, m)

    best = None
    for restart_seed in (9, 19, 29):
        cfg = TrainConfig(epochs=300, batch_size=64, lr_theta=0.08, m=m, n=1, hidden=4,
                          seed=restart_seed, patience=60)
        candidate = train_mle(catalog, trajs, cfg)
        value = nll_loss(candidate.theta, train_ex, 1.0)
        if best is None or value < best[0]:
            best = (value, candidate)
    model = best[1]

    picker = np.random.default_rng(55)
    idx = picker.choice(len(held_ex), size=100, replace=False)
    tvs = np.array([
        0.5 * np.abs(model_choice_probs(model, held_ex[i].hist, held_ex[i].disp)
                     - model_choice_probs(gt, held_ex[i].hist, held_ex[i].disp)).sum()
        for i in idx
    ])
    tv_mean = float(tvs.mean())

    prec_model = precision_at_k(model, held_ex, 1)
    w = fit_logistic_ranker(train_ex, d)
    clicks = [e for e in held_ex if e.clicked]
    hits = sum(int(e.chosen == int(np.argmax(e.disp[: e.n_items] @ w)))
               for e in clicks)
    prec_logistic = hits / len(clicks)
    gap = prec_model - prec_logistic
    elapsed = time.time() - t0
    ok = tv_mean <= 0.05 and gap >= 0.05 and elapsed < 300.0
    report(5, ok,
           f"mean TV to ground truth {tv_mean:.4f} (<= 0.05) on 100 held-out displays; "
           f"prec@1 {prec_model:.3f} vs history-free logistic {prec_logistic:.3f} "
           f"(gap {gap:+.3f} >= +0.05); {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 6-8. Policy ordering, consistency diagnostic, reward-mode contrast
# (one environment, trained once per reward mode, shared across the criteria)


@pytest.fixture(scope="module")
def policy_bench():
    t0 = time.time()
    K, d, k, T = 30, 8, 3, 10
    m, n, hidden = 5, 4, 16
    catalog = synth_catalog(K, d, seed=11)
    user = make_ground_truth_user(catalog, (m, n, hidden), seed=27, reward_scale=3.0)
    env = SlateEnv(catalog, EnvConfig(k=k, pool_size=20, horizon=T))
    factory = make_env_factory(env, user, 0)
    base = dict(gamma=0.9, epsilon=0.3, epsilon_final=0.05, iterations=600, horizon=T,
                batch_users=10, minibatch=32, lr=0.02, seed=2, n=n, hidden=hidden)
    q_learned = train_cdqn(factory, CDQNConfig(**base))
    q_pm1 = train_cdqn(factory, CDQNConfig(reward_mode=RewardMode.PLUS_MINUS_ONE, **base))
    train_time = time.time() - t0

    def evaluate(policy, n_seeds=10, n_users=20):
        seeds = [2 * (1000 + s * n_users + u) + 1 for s in range(n_seeds) for u in range(n_users)]
        results = rollout_batch(env, user, policy, seeds)
        rewards = [avg for _, avg, _ in results]
        ctrs = [clicks / T for _, _, clicks in results]
        arr = np.array(rewards)
        return arr.mean(), arr.std(ddof=1) / np.sqrt(arr.size), float(np.mean(ctrs))

    return dict(catalog=catalog, user=user, env=env, k=k,
                q_learned=q_learned, q_pm1=q_pm1, evaluate=evaluate,
                train_time=train_time)


def test_criterion_6_policy_ordering(policy_bench):
    t0 = time.time()
    b = policy_bench
    catalog, user, k = b["catalog"], b["user"], b["k"]
    cdqn = make_policy(PolicyHandle(PolicyKind.CDQN, qnet=b["q_learned"]), catalog, k)
    greedy = make_policy(PolicyHandle(PolicyKind.GREEDY_USER_MODEL, user_model=user), catalog, k)
    rand = make_policy(PolicyHandle(PolicyKind.RANDOM), catalog, k)
    mu_c, se_c, _ = b["evaluate"](cdqn)
    mu_g, se_g, _ = b["evaluate"](greedy)
    mu_r, se_r, _ = b["evaluate"](rand)
    sep = (mu_c - mu_r) / np.sqrt(se_c ** 2 + se_r ** 2)
    elapsed = b["train_time"] + (time.time() - t0)
    ok = mu_c >= mu_g >= mu_r and sep >= 2.0 and elapsed < 900.0
    report(6, ok,
           f"avg cumulative reward cdqn {mu_c:.3f} >= greedy {mu_g:.3f} >= "
           f"random {mu_r:.3f}; cdqn-random separation {sep:.1f} standard errors "
           f"(>= 2); {elapsed:.0f}s (< 900s incl. training)")


def test_criterion_7_constraint_diagnostic(policy_bench):
    b = policy_bench
    catalog, user, env, k = b["catalog"], b["user"], b["env"], b["k"]
    qnet = b["q_learned"]
    # greedy-cascade states of episodes on seeds 2 * (5000 + e) + 1
    hists, pools = collect_states(env, user, qnet, 500, 5000)
    rows = constraint_diagnostic(qnet, hists, pools, catalog)
    corrs = []
    for j in range(1, k + 1):
        qj = np.array([r[2] for r in rows if r[1] == j])
        qk = np.array([r[3] for r in rows if r[1] == j])
        corrs.append(float(np.corrcoef(qj, qk)[0, 1]))
    ok = all(c >= 0.95 for c in corrs)
    report(7, ok,
           "per-position correlation with the final-position value over 500 states: "
           + ", ".join(f"j={j + 1}: {c:.4f}" for j, c in enumerate(corrs)) + " (all >= 0.95)")


def test_criterion_8_reward_mode_contrast(policy_bench):
    t0 = time.time()
    b = policy_bench
    catalog, k = b["catalog"], b["k"]
    learned = make_policy(PolicyHandle(PolicyKind.CDQN, qnet=b["q_learned"]), catalog, k)
    pm1 = make_policy(PolicyHandle(PolicyKind.CDQN, qnet=b["q_pm1"]), catalog, k)
    mu_l, _, ctr_l = b["evaluate"](learned)
    mu_p, _, ctr_p = b["evaluate"](pm1)
    ctr_gap = abs(ctr_l - ctr_p)
    elapsed = b["train_time"] + (time.time() - t0)
    ok = ctr_gap <= 0.05 and mu_l >= mu_p and elapsed < 900.0
    report(8, ok,
           f"CTR learned {ctr_l:.3f} vs +-1 {ctr_p:.3f} (|diff| {ctr_gap:.3f} <= 0.05); "
           f"avg reward learned {mu_l:.3f} >= +-1 {mu_p:.3f}; {elapsed:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 9. Byte-exact reproducibility of metric files


def test_criterion_9_determinism(tmp_path):
    def spec(out):
        return ExperimentSpec(
            seed=5, catalog_size=15, dim=4, catalog_seed=3,
            gt_m=3, gt_n=2, gt_hidden=6, gt_seed=4, gt_reward_scale=2.0,
            env=EnvConfig(k=3, pool_size=8, horizon=5),
            n_users=4, repetitions=3, out_dir=str(out),
            roster=[RosterEntry("random", PolicyKind.RANDOM),
                    RosterEntry("greedy", PolicyKind.GREEDY_USER_MODEL)],
        )

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_experiment(spec(out1))
    run_experiment(spec(out2))
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("random_metrics.csv", "greedy_metrics.csv", "aggregate.csv")
    )
    report(9, identical,
           "re-running the evaluation pipeline with identical seeds produced "
           "byte-identical per-user and aggregate metric files")
