"""The benchmark under benchmarks/ binds slatesim by name: its traced run wraps
every function in `spec.SPANS`, and its workloads call slatesim's modules. These
tests resolve each of those names the way the benchmark does, so that removing
or renaming one fails here and not only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_by_path(name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


SPANS = load_by_path("spec").SPANS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_span_resolves_as_tracing_install_does(span):
    module_name, attr = SPANS[span]
    owner = importlib.import_module(f"slatesim.{module_name}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = inspect.getattr_static(owner, leaf)
    assert callable(original) or isinstance(original, property)


def test_workloads_import_and_every_slatesim_name_they_use_exists():
    workloads = load_by_path("workloads")
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    modules = {alias: value for alias, value in vars(workloads).items()
               if isinstance(value, types.ModuleType) and value.__name__.startswith("slatesim.")}
    assert modules, "workloads.py no longer imports slatesim modules by name"
    missing = [f"{alias}.{attr}" for alias, attr in sorted(used)
               if alias in modules and not hasattr(modules[alias], attr)]
    assert not missing, f"names the benchmark workloads use that slatesim lacks: {missing}"


def test_workloads_call_every_slatesim_name_in_a_shape_its_signature_binds():
    # a name that still exists can have been reshaped: a removed parameter or keyword, or
    # one more required positional, fails the benchmark run and not the tests above
    workloads = load_by_path("workloads")
    modules = {alias: value for alias, value in vars(workloads).items()
               if isinstance(value, types.ModuleType) and value.__name__.startswith("slatesim.")}
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
             and not any(isinstance(arg, ast.Starred) for arg in node.args)
             and all(kw.arg is not None for kw in node.keywords)]
    assert calls, "workloads.py no longer calls slatesim's modules"
    unbound = []
    for node in calls:
        target = getattr(modules[node.func.value.id], node.func.attr)
        try:
            inspect.signature(target).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {node.func.value.id}.{node.func.attr}: {exc}")
    assert not unbound, f"calls the benchmark workloads make that slatesim would refuse: {unbound}"


def test_every_span_fires_in_one_chunk_of_each_stage(count_calls, tmp_path):
    # the traced benchmark fails when a span it predicts records no call; one chunk of
    # each pipeline stage in the README world must call every span at least once
    workloads = load_by_path("workloads")
    spans: dict = {}
    for module_name, attr in SPANS.values():
        owner = importlib.import_module(f"slatesim.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        spans.setdefault(owner, []).append(leaf)
    calls = count_calls(spans)
    world, tally = workloads.README, workloads.Tally()
    logging = workloads.Logging(1, world, str(tmp_path))
    for stage in (workloads.Training(world), workloads.Evaluation(1, world, str(tmp_path)), logging,
                  workloads.Fitting(1, logging)):
        stage.chunk(tally, 0, 0)
    assert tally.problems == [] and tally.failed == 0
    assert len(calls) == len(SPANS)
    assert [name for name, count in calls.items() if count == 0] == []


def test_cascade_plan_work_matches_the_q_values_it_evaluates(monkeypatch):
    # the tracer reads cascade_plan's pool and k from args[1] and args[2]: over one README
    # training chunk its recorded work must equal, call by call, the Q values the cascade
    # evaluates, k·P − k(k−1)/2 for a pool of P distinct ids
    from slatesim import agent
    monkeypatch.setitem(sys.modules, "spec", load_by_path("spec"))
    tracing, workloads = load_by_path("tracing"), load_by_path("workloads")
    recorder, evals, original = tracing.SpanRecorder(), [], agent.cascade_plan

    def counted(qeval, *args, **kwargs):
        def counting(j, prefix, cands):
            evals[-1] += len(cands)
            return qeval(j, prefix, cands)

        evals.append(0)
        return original(counting, *args, **kwargs)

    monkeypatch.setattr(agent, "cascade_plan",
                        recorder.wrap("agent.cascade_plan", counted, tracing.WORK["agent.cascade_plan"]))
    tally = workloads.Tally()
    workloads.Training(workloads.README).chunk(tally, 0, 0)
    assert tally.problems == [] and tally.failed == 0
    assert len(evals) > 0 and list(recorder.work) == [float(n) for n in evals]


@pytest.mark.parametrize("span, position, name", [
    ("agent.cascade_plan", 1, "pool"), ("agent.cascade_plan", 2, "k"),
    ("training.nll_value_grad", 1, "examples"), ("training.minimax_value_grads", 2, "examples"),
    ("data.save_trajectories", 2, "path"),
])
def test_tracer_reads_the_argument_it_means_by_position(span, position, name):
    # tracing.WORK reads these arguments as args[position]; a reordered signature would
    # have it record the size of another argument
    module_name, attr = SPANS[span]
    function = getattr(importlib.import_module(f"slatesim.{module_name}"), attr)
    assert list(inspect.signature(function).parameters)[position] == name
