"""tools/bench_pairs.py summarizes paired benchmark runs; these tests feed its summarizer
fake benchmarks/run.py outputs and check what it reports. None runs the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "train_transitions_per_s", "better": "higher", "bound": 0.25},
              {"name": "fit_mle_prec1", "better": "higher", "bound": 0.15}]


def fake_output(rate: float, setup: float, digest: str = "aa", failed: int = 0) -> str:
    """run.py's standard output for one workload: its info line, then its result line."""
    info = {"workload": "train-cdqn", "seed": 1, "trace": 0, "quality": {"train_policy_gain": 0.15},
            "digests": {"policy": digest}, "problems": ["a check failed"] if failed else []}
    result = {"correct": not failed, "attempted": 100, "failed": failed,
              "metrics": {"setup_s": {"value": setup, "unit": "s"},
                          "train_transitions_per_s": {"value": rate, "unit": "1/s"},
                          "fit_mle_prec1": {"value": None, "unit": "fraction"}}}
    return f"{json.dumps(info)}\n{json.dumps(result)}\n"


def test_summary_of_two_sides():
    runs = {"parent": {1: fake_output(100.0, 0.20), 2: fake_output(110.0, 0.20), 3: fake_output(90.0, 0.20)},
            "change": {1: fake_output(130.0, 0.22), 2: fake_output(100.0, 0.20, digest="bb", failed=2),
                       3: None}}
    report = bench_pairs.summarize(runs, END_TO_END)
    rate = report["summary"]["train-cdqn"]["train_transitions_per_s"]
    assert rate["parent_runs"] == [100.0, 110.0, 90.0] and rate["change_runs"] == [130.0, 100.0]
    assert rate["parent_q1_median_q3"][1] == 100.0 and rate["change_q1_median_q3"][1] == 115.0
    assert rate["ratio_of_medians"] == pytest.approx(1.15)
    assert rate["within_bound"] and rate["change_won_pairs"] == 1 and rate["complete_pairs"] == 2
    setup = report["summary"]["train-cdqn"]["setup_s"]
    # 0.21 s against 0.20 s is 5% worse, within the bound; a tie wins for neither side
    assert setup["ratio_of_medians"] == pytest.approx(1.05)
    assert setup["within_bound"] and setup["change_won_pairs"] == 0
    assert "fit_mle_prec1" not in report["summary"]["train-cdqn"]  # no workload reports it
    assert report["operations"]["train-cdqn"] == {
        "parent": {"attempted": 300, "failed": 0, "correct_runs": 3, "missing_runs": [], "problems": []},
        "change": {"attempted": 200, "failed": 2, "correct_runs": 1, "missing_runs": [3],
                   "problems": ["a check failed"]}}
    seeds = report["per_seed"]["train-cdqn"]
    assert seeds["1"]["quality_equal"] and seeds["1"]["digests_equal"]
    assert seeds["2"]["digests"] == {"parent": {"policy": "aa"}, "change": {"policy": "bb"}}
    assert seeds["3"] == {"complete": False}
    assert not report["quality_and_digests_equal_on_every_seed"]


def test_a_change_worse_than_its_bound_is_flagged():
    runs = {"parent": {1: fake_output(100.0, 0.20)}, "change": {1: fake_output(74.0, 0.20)}}
    rate = bench_pairs.summarize(runs, END_TO_END)["summary"]["train-cdqn"]["train_transitions_per_s"]
    assert not rate["within_bound"] and rate["ratio_of_medians"] == pytest.approx(0.74)


def test_verdict_of_clean_evidence():
    runs = {side: {1: fake_output(100.0, 0.20), 2: fake_output(104.0, 0.21)} for side in ("parent", "change")}
    assert bench_pairs.verdict(bench_pairs.summarize(runs, END_TO_END)) == {
        "end_to_end_within_bounds": True, "failed_share_not_above_parent": True,
        "quality_and_digests_equal_on_every_seed": True, "clean": True}


@pytest.mark.parametrize("change, failing", [
    (fake_output(74.0, 0.20), ["end_to_end_within_bounds"]),
    (fake_output(100.0, 0.20, failed=1), ["failed_share_not_above_parent"]),
    (fake_output(100.0, 0.20, digest="bb"), ["quality_and_digests_equal_on_every_seed"]),
    # a change that never ran has no metric within its bound and no seed to compare
    (None, ["end_to_end_within_bounds", "quality_and_digests_equal_on_every_seed"]),
], ids=["slower", "failed", "digest", "no-run"])
def test_verdict_fails_each_check(change, failing):
    runs = {"parent": {1: fake_output(100.0, 0.20)}, "change": {1: change}}
    verdict = bench_pairs.verdict(bench_pairs.summarize(runs, END_TO_END))
    assert [name for name, ok in verdict.items() if not ok] == failing + ["clean"]


def test_benchmark_sha256_reads_every_benchmark_file(tmp_path):
    sides = {}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "benchmarks" / "__pycache__").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text('{"paths": ["benchmarks"]}')
        (root / "benchmarks" / "run.py").write_text("print('run')\n")
        (root / "benchmarks" / "__pycache__" / "run.cpython.pyc").write_bytes(side.encode())
        (root / "src.py").write_text(side)  # outside benchmarks/: not hashed
        sides[side] = root
    parent, change = (bench_pairs.benchmark_sha256(sides[side]) for side in ("parent", "change"))
    assert parent == change  # bytecode caches and files outside benchmarks/ aside
    (sides["change"] / "benchmarks" / "workloads.py").write_text("")
    assert bench_pairs.benchmark_sha256(sides["change"]) != parent  # a new file, even empty
    (sides["change"] / "benchmarks" / "workloads.py").unlink()
    (sides["change"] / "BENCHMARK.json").write_text('{"paths": ["bench"]}')
    assert bench_pairs.benchmark_sha256(sides["change"]) != parent


@pytest.mark.parametrize("text, seeds", [("1-10", list(range(1, 11))), ("3", [3])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
