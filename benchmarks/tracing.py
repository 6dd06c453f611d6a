"""Span recorder for the traced run, installed around slatesim's public functions.

The library knows nothing of it: `install` replaces each function named in
`spec.SPANS` by a wrapper at every slatesim module that binds it (`step` is
bound in both `slatesim.env` and `slatesim.agent`, `rollout` in `env` and
`metrics`), and methods and properties on their class. A span records its
name, start, end and parent; spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from typing import Callable

import numpy as np

from spec import PER_LAYER, SPANS

# Work a span did, computed from its arguments after it returns.
WorkFn = Callable[[tuple, dict], float]


def _q_evals(args: tuple, kwargs: dict) -> float:
    """Q evaluations of cascade_plan(qeval, pool, k): sum of |remaining| over positions."""
    pool, k = args[1], args[2]
    p = len(set(pool))
    return float(k * p - k * (k - 1) // 2)


def _nll_examples(args: tuple, kwargs: dict) -> float:
    """Examples in nll_value_grad(theta, examples, eta)."""
    return float(len(args[1]))


def _minimax_examples(args: tuple, kwargs: dict) -> float:
    """Examples in minimax_value_grads(theta, alpha, examples, config)."""
    return float(len(args[2]))


def _file_bytes(args: tuple, kwargs: dict) -> float:
    return float(os.path.getsize(args[2]))


WORK = {
    "agent.cascade_plan": _q_evals,
    "training.nll_value_grad": _nll_examples,
    "training.minimax_value_grads": _minimax_examples,
    "data.save_trajectories": _file_bytes,
}


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.error = array("b")
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, work: WorkFn | None = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        works, errors, stack, clock = self.work, self.error, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            works.append(0.0)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, kwargs)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (total duration), self_s, work and errors."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        work = np.frombuffer(self.work)
        error = np.frombuffer(self.error, dtype=np.int8)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child_s
        out = {}
        for i, span in enumerate(self.names):
            mask = name == i
            out[span] = {
                "calls": float(np.count_nonzero(mask)),
                "s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
                "work": float(work[mask].sum()),
                "errors": float(error[mask].sum()),
            }
        # Q evaluations spent on TD targets: cascade_plan spans whose parent
        # span is compute_target.
        plan = self.names.index("agent.cascade_plan")
        target = self.names.index("agent.compute_target")
        under_target = (name == plan) & has_parent
        under_target[under_target] = name[parent[under_target]] == target
        out["agent.cascade_plan"]["work_under_target"] = float(work[under_target].sum())
        return out


def merge(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Sum the span summaries of several processes."""
    total: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for span, fields in summary.items():
            into = total.setdefault(span, {})
            for field, value in fields.items():
                into[field] = into.get(field, 0.0) + value
    return total


def install(recorder: SpanRecorder) -> None:
    """Wrap every span in `spec.SPANS` wherever slatesim binds it."""
    modules = [m for key, m in sys.modules.items()
               if key == "slatesim" or key.startswith("slatesim.")]
    for span, (module_name, attr) in SPANS.items():
        owner = sys.modules[f"slatesim.{module_name}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = inspect.getattr_static(owner, leaf)
        work = WORK.get(span)
        if isinstance(original, property):
            setattr(owner, leaf, property(recorder.wrap(span, original.fget, work)))
            continue
        wrapped = recorder.wrap(span, original, work)
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(summary: dict[str, dict[str, float]],
                  counts: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the span summary, plus the spans that never fired.

    `trace.overhead_pct` needs the untraced run too, so the caller adds it."""
    silent = [span for span in SPANS if summary[span]["calls"] == 0]
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if span in summary and field in ("calls", "self_s", "s", "errors"):
            values[metric] = summary[span][field]
    plan, target = summary["agent.cascade_plan"], summary["agent.compute_target"]
    values["agent.q_evals"] = plan["work"]
    values["agent.q_evals_per_target"] = plan["work_under_target"] / max(target["calls"], 1.0)
    values["env.pool_draws_per_step"] = (summary["env.draw_candidates"]["calls"]
                                         / max(summary["env.step"]["calls"], 1.0))
    values["training.examples_seen"] = (summary["training.nll_value_grad"]["work"]
                                        + summary["training.minimax_value_grads"]["work"])
    values["data.save_trajectories.bytes"] = summary["data.save_trajectories"]["work"]
    values["training.loglik_clamped"] = counts["loglik_clamped"]
    values["trace.spans"] = sum(s["calls"] for s in summary.values())
    missing = set(PER_LAYER) - set(values) - {"trace.overhead_pct"}
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return values, silent
