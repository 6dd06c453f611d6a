"""Names, units and directions of every metric the benchmark prints.

Plain Python with no third-party imports, so that the self-check can read it
without loading numpy or slatesim.
"""

WORKLOADS = ("train-cdqn", "eval-wide-catalog", "log-and-fit")

# About the wall seconds of one worker process's cycle of chunks on a 2-CPU
# machine; a run of --seconds S starts round(S / CYCLE_S) processes.
CYCLE_S = 7.0

# Seconds workloads.calibration_s takes on a 2-CPU machine in its fast state.
# Rates are reported at that speed: rate * calibration seconds / CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.014

# name -> (unit, better). Printed by every untraced run, on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "train_transitions_per_s": ("1/s", "higher"),
    "train_policy_gain": ("reward", "higher"),
    "eval_steps_per_s": ("1/s", "higher"),
    "eval_greedy_gain": ("reward", "higher"),
    "log_steps_per_s": ("1/s", "higher"),
    "fit_examples_per_s": ("1/s", "higher"),
    "fit_mle_prec1": ("fraction", "higher"),
    # The test-split log-likelihood with its sign flipped (about +1.66), so that
    # the median is positive and a relative regression bound means something.
    "fit_mle_heldout_nll": ("nats/record", "lower"),
    "fit_l2_prec1": ("fraction", "higher"),
}

# Quality metrics: deterministic for a seed, and equal between the traced and
# the untraced run of one seed.
QUALITY = ("train_policy_gain", "eval_greedy_gain", "fit_mle_prec1",
           "fit_mle_heldout_nll", "fit_l2_prec1")

# Spans recorded by the traced run: span name -> (module, attribute). A dotted
# attribute names a method or property of a class in that module. Every
# workload runs every pipeline stage, so every span is predicted to fire on
# every workload, and the traced run fails when one records no call.
SPANS = {
    "agent.compute_target": ("agent", "compute_target"),
    "agent.cascade_plan": ("agent", "cascade_plan"),
    "agent.cascade_slate": ("agent", "cascade_slate"),
    "agent.greedy_user_model_policy": ("agent", "greedy_user_model_policy"),
    "agent.random_slate": ("agent", "random_slate"),
    "agent.replay_sample": ("agent", "ReplayMemory.sample"),
    "agent.train_cdqn": ("agent", "train_cdqn"),
    "choice.project_to_simplex": ("choice", "project_to_simplex"),
    "choice.sample_choice": ("choice", "sample_choice"),
    "data.feature_matrix": ("data", "ItemCatalog.feature_matrix"),
    "data.item_ids": ("data", "ItemCatalog.item_ids"),
    "data.load_trajectories": ("data", "load_trajectories"),
    "data.save_trajectories": ("data", "save_trajectories"),
    "env.draw_candidates": ("env", "draw_candidates"),
    "env.rollout": ("env", "rollout"),
    "env.step": ("env", "step"),
    "metrics.run_experiment": ("metrics", "run_experiment"),
    "nets.embed_history": ("nets", "embed_history"),
    "nets.head_scores": ("nets", "head_scores"),
    "nets.scorer_batch": ("nets", "scorer_batch"),
    "nets.scorer_batch_grad": ("nets", "scorer_batch_grad"),
    "nets.sgd_step": ("nets", "sgd_step"),
    "nets.td_value_and_grad": ("nets", "td_value_and_grad"),
    "training.build_examples": ("training", "build_examples"),
    "training.heldout_loglik": ("training", "heldout_loglik"),
    "training.minimax_value_grads": ("training", "minimax_value_grads"),
    "training.nll_value_grad": ("training", "nll_value_grad"),
    "training.train_minimax": ("training", "train_minimax"),
    "training.train_mle": ("training", "train_mle"),
}

# name -> unit. Printed by every traced run, on every workload. `<span>.calls`,
# `<span>.self_s` (duration minus child spans) and `<span>.s` (whole duration)
# come straight from the spans; the rest are derived in tracing.layer_metrics.
PER_LAYER = {
    "agent.compute_target.calls": "count",
    "agent.compute_target.self_s": "s",
    "agent.cascade_plan.calls": "count",
    "agent.cascade_plan.self_s": "s",
    "agent.q_evals": "count",
    "agent.q_evals_per_target": "evals/target",
    "data.feature_matrix.calls": "count",
    "data.feature_matrix.self_s": "s",
    "env.draw_candidates.calls": "count",
    "env.draw_candidates.self_s": "s",
    "data.item_ids.calls": "count",
    "data.item_ids.self_s": "s",
    "env.pool_draws_per_step": "draws/step",
    "env.step.calls": "count",
    "env.step.self_s": "s",
    "env.step.errors": "count",
    "env.rollout.self_s": "s",
    "choice.sample_choice.calls": "count",
    "choice.sample_choice.self_s": "s",
    "agent.cascade_slate.calls": "count",
    "agent.cascade_slate.self_s": "s",
    "agent.greedy_user_model_policy.self_s": "s",
    "agent.random_slate.self_s": "s",
    "nets.embed_history.calls": "count",
    "nets.embed_history.self_s": "s",
    "nets.head_scores.calls": "count",
    "nets.head_scores.self_s": "s",
    "nets.td_value_and_grad.calls": "count",
    "nets.td_value_and_grad.self_s": "s",
    "agent.replay_sample.calls": "count",
    "agent.replay_sample.self_s": "s",
    "nets.sgd_step.calls": "count",
    "nets.sgd_step.self_s": "s",
    "nets.scorer_batch.calls": "count",
    "nets.scorer_batch.self_s": "s",
    "nets.scorer_batch_grad.calls": "count",
    "nets.scorer_batch_grad.self_s": "s",
    "training.nll_value_grad.calls": "count",
    "training.nll_value_grad.self_s": "s",
    "training.minimax_value_grads.calls": "count",
    "training.minimax_value_grads.self_s": "s",
    "training.examples_seen": "count",
    "training.build_examples.self_s": "s",
    "training.heldout_loglik.calls": "count",
    "training.heldout_loglik.self_s": "s",
    "training.loglik_clamped": "count",
    "choice.project_to_simplex.calls": "count",
    "choice.project_to_simplex.self_s": "s",
    "data.save_trajectories.s": "s",
    "data.save_trajectories.bytes": "bytes",
    "data.load_trajectories.s": "s",
    "metrics.run_experiment.self_s": "s",
    "agent.train_cdqn.self_s": "s",
    "training.train_mle.self_s": "s",
    "training.train_minimax.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}
