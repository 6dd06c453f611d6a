"""Self-check of the benchmark itself; exits non-zero when a check fails.

    python3 benchmarks/selfcheck.py --workload log-and-fit --seed 3 --seconds 7

1. One untraced and one traced run of the same workload and seed give
   identical output digests and identical quality metrics: tracing changes
   timing only.
2. Every metric named when the benchmark was defined appears in the printed
   output and in BENCHMARK.json, with the units of spec.py.

The file is not named test_*.py so that the repository's pytest run, which
collects from the root, does not start these minute-long runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The metrics the benchmark was defined with. The test-split log-likelihood is
# printed sign-flipped as fit_mle_heldout_nll, so that its median is positive.
NAMED_END_TO_END = (
    "setup_s", "peak_rss_mb", "train_transitions_per_s", "train_policy_gain", "eval_steps_per_s",
    "eval_greedy_gain", "log_steps_per_s", "fit_examples_per_s", "fit_mle_prec1",
    "fit_mle_heldout_nll", "fit_l2_prec1",
)
NAMED_PER_LAYER = (
    "agent.compute_target.calls", "agent.compute_target.self_s", "agent.cascade_plan.calls",
    "agent.cascade_plan.self_s", "agent.q_evals", "agent.q_evals_per_target",
    "data.feature_matrix.calls", "data.feature_matrix.self_s",
    "env.draw_candidates.calls", "env.draw_candidates.self_s", "data.item_ids.calls",
    "data.item_ids.self_s", "env.pool_draws_per_step",
    "env.step.calls", "env.step.self_s", "env.rollout.self_s", "choice.sample_choice.calls",
    "choice.sample_choice.self_s",
    "agent.cascade_slate.calls", "agent.cascade_slate.self_s", "agent.greedy_user_model_policy.self_s",
    "agent.random_slate.self_s", "nets.embed_history.calls", "nets.embed_history.self_s",
    "nets.head_scores.calls", "nets.head_scores.self_s",
    "nets.td_value_and_grad.calls", "nets.td_value_and_grad.self_s", "agent.replay_sample.calls",
    "agent.replay_sample.self_s", "nets.sgd_step.calls", "nets.sgd_step.self_s",
    "nets.scorer_batch.calls", "nets.scorer_batch.self_s", "nets.scorer_batch_grad.calls",
    "nets.scorer_batch_grad.self_s", "training.nll_value_grad.calls", "training.nll_value_grad.self_s",
    "training.minimax_value_grads.calls", "training.minimax_value_grads.self_s", "training.examples_seen",
    "training.build_examples.self_s", "training.heldout_loglik.calls", "training.heldout_loglik.self_s",
    "training.loglik_clamped", "choice.project_to_simplex.calls", "choice.project_to_simplex.self_s",
    "data.save_trajectories.s", "data.save_trajectories.bytes", "data.load_trajectories.s",
    "metrics.run_experiment.self_s", "trace.overhead_pct",
)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The info line and the result line of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="log-and-fit")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=7.0)
    args = parser.parse_args()

    failures = []
    plain_info, plain = run(args.workload, args.seed, args.seconds, 0)
    traced_info, traced = run(args.workload, args.seed, args.seconds, 1)
    for name, ok in (("untraced run is correct", plain["correct"]), ("traced run is correct", traced["correct"]),
                     ("digests equal with and without tracing", plain_info["digests"] == traced_info["digests"]),
                     ("quality equal with and without tracing", plain_info["quality"] == traced_info["quality"])):
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        if not ok:
            failures.append(name)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expected = {"end_to_end": {n: u for n, (u, _) in END_TO_END.items()}, "per_layer": PER_LAYER}
    printed = {"end_to_end": {n: m["unit"] for n, m in plain["metrics"].items()},
               "per_layer": {n: m["unit"] for n, m in traced["metrics"].items()}}
    for kind, named in (("end_to_end", NAMED_END_TO_END), ("per_layer", NAMED_PER_LAYER)):
        for where, metrics in (("BENCHMARK.json", declared[kind]), ("printed output", printed[kind])):
            missing = [n for n in named if n not in metrics]
            ok = not missing and metrics == expected[kind]
            print(f"{'ok' if ok else 'FAIL'}: {kind} metrics in {where}" + (f", missing {missing}" if missing else ""))
            if not ok:
                failures.append(f"{kind} metrics in {where}")
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ok = better == {n: b for n, (_, b) in END_TO_END.items()}
    print(f"{'ok' if ok else 'FAIL'}: end_to_end directions in BENCHMARK.json")
    if not ok:
        failures.append("directions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
