"""Run the benchmark in alternating parent/change pairs and summarize them as one JSON.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --seeds 1-10 --out BENCH_x.json

Each seed runs `python3 benchmarks/run.py --workload all --seed S` once in each
checkout, the parent first on the first, third, ... seed and the change first on
the others. Then each side makes one traced run (`--trace 1`) on seed 1. Both
sides run with PYTHONDONTWRITEBYTECODE=1, and the `__pycache__` directories
under their `src/` and `benchmarks/` are removed first, so that neither side's
set-up time reads a bytecode cache that the other lacks.

The JSON holds, per workload and end-to-end metric of the parent's
BENCHMARK.json, both sides' runs, medians and quartiles, the change/parent ratio
of the medians, whether the change is within the metric's bound, and the pairs
the change won (ties count for neither); per seed, whether the quality metrics
and the output digests are equal; the operations attempted and failed; the
traced runs' checks and per-layer metrics; both sides' `src/` line counts; and a
sha256 per side over BENCHMARK.json and the files under `benchmarks/`, with whether
the two match. Its top-level verdict says whether the evidence is clean: every
end-to-end metric within its bound on every workload, no larger share of failed
operations than the parent's, and equal quality metrics and digests on every seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED_SEED = 1


def parse_seeds(text: str) -> list[int]:
    """`1-10` or `3` as a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seed in {text!r}")
    return seeds


def parse_run(stdout: str) -> dict[str, dict]:
    """benchmarks/run.py's standard output as {workload: {"info": ..., "result": ...}}: each
    workload prints an info line (quality, digests, problems) and then its result line."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    return {info["workload"]: {"info": info, "result": result}
            for info, result in zip(lines[0::2], lines[1::2])}


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of the values (statistics' exclusive method; one value is all three)."""
    if len(values) == 1:
        return values * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse the change is than the parent, as a fraction of |parent|; <= 0 is no worse."""
    worse = change - parent if better == "lower" else parent - change
    if parent:
        return worse / abs(parent)
    return float("inf") if worse > 0 else 0.0


def metric_entry(pairs: list[tuple[float | None, float | None]], better: str, bound: float) -> dict:
    """One metric's (parent, change) values per seed (None where a run is missing) as both
    sides' runs, quartiles, the ratio of the medians, the bound check and the pairs won."""
    runs = {side: [pair[i] for pair in pairs if pair[i] is not None] for i, side in enumerate(SIDES)}
    entry = {f"{side}_runs": runs[side] for side in SIDES}
    if not (runs["parent"] and runs["change"]):
        return entry
    q = {side: quartiles(runs[side]) for side in SIDES}
    complete = [(p, c) for p, c in pairs if p is not None and c is not None]
    entry.update({f"{side}_q1_median_q3": q[side] for side in SIDES})
    entry.update(
        ratio_of_medians=q["change"][1] / q["parent"][1] if q["parent"][1] else None,
        better=better, bound=bound,
        within_bound=worsening(q["parent"][1], q["change"][1], better) <= bound,
        change_won_pairs=sum(1 for p, c in complete if (c < p if better == "lower" else c > p)),
        complete_pairs=len(complete))
    return entry


def summarize(runs: dict[str, dict[int, str | None]], end_to_end: list[dict]) -> dict:
    """The paired summary of run.py outputs: runs[side][seed] is that run's standard output,
    or None for a run that failed; end_to_end lists BENCHMARK.json's metrics."""
    parsed = {side: {seed: parse_run(out) for seed, out in by_seed.items() if out is not None}
              for side, by_seed in runs.items()}
    seeds = sorted(set(runs["parent"]) | set(runs["change"]))
    workloads = sorted({w for by_seed in parsed.values() for run in by_seed.values() for w in run})
    summary, operations, per_seed, equal = {}, {}, {}, True
    for workload in workloads:
        # results[side][i]: the workload's info and result lines of seeds[i], or None
        results = {side: [parsed[side].get(seed, {}).get(workload) for seed in seeds] for side in SIDES}

        def value(run: dict | None, name: str) -> float | None:
            return run["result"]["metrics"].get(name, {}).get("value") if run else None

        summary[workload] = {}
        for metric in end_to_end:
            name = metric["name"]
            pairs = [(value(p, name), value(c, name)) for p, c in zip(results["parent"], results["change"])]
            if any(v is not None for pair in pairs for v in pair):
                summary[workload][name] = metric_entry(pairs, metric["better"], metric["bound"])
        operations[workload] = {}
        for side in SIDES:
            done = [run for run in results[side] if run]
            operations[workload][side] = {
                "attempted": sum(run["result"]["attempted"] for run in done),
                "failed": sum(run["result"]["failed"] for run in done),
                "correct_runs": sum(bool(run["result"]["correct"]) for run in done),
                "missing_runs": [seed for seed, run in zip(seeds, results[side]) if not run],
                "problems": [p for run in done for p in run["info"]["problems"]]}
        per_seed[workload] = {}
        for seed, parent, change in zip(seeds, results["parent"], results["change"]):
            if parent is None or change is None:
                per_seed[workload][str(seed)] = {"complete": False}
                equal = False
                continue
            row = {}
            for key in ("quality", "digests"):
                same = parent["info"][key] == change["info"][key]
                row[f"{key}_equal"] = same
                row[key] = parent["info"][key] if same else {"parent": parent["info"][key],
                                                             "change": change["info"][key]}
                equal = equal and same
            per_seed[workload][str(seed)] = row
    return {"summary": summary, "operations": operations, "per_seed": per_seed,
            "quality_and_digests_equal_on_every_seed": equal}


def verdict(report: dict) -> dict:
    """The three checks of a summarize() report, and whether all hold."""
    def failed_share(ops: dict) -> float:
        return ops["failed"] / ops["attempted"] if ops["attempted"] else 0.0

    checks = {
        "end_to_end_within_bounds": all(entry.get("within_bound", False)  # no runs on a side is not within
                                        for metrics in report["summary"].values() for entry in metrics.values()),
        "failed_share_not_above_parent": all(failed_share(ops["change"]) <= failed_share(ops["parent"])
                                             for ops in report["operations"].values()),
        "quality_and_digests_equal_on_every_seed": report["quality_and_digests_equal_on_every_seed"]}
    return {**checks, "clean": all(checks.values())}


def summarize_traced(outputs: dict[str, str | None]) -> dict:
    """Per workload and side of one traced run each: correct, failed, problems and the per-layer
    metrics as [parent, change] pairs."""
    parsed = {side: parse_run(out) if out is not None else {} for side, out in outputs.items()}
    traced = {}
    for workload in sorted(set(parsed["parent"]) | set(parsed["change"])):
        runs = [parsed[side].get(workload) for side in SIDES]
        traced[workload] = {side: {"correct": run["result"]["correct"], "failed": run["result"]["failed"],
                                   "problems": run["info"]["problems"]} if run else None
                            for side, run in zip(SIDES, runs)}
        names = sorted({name for run in runs if run for name in run["result"]["metrics"]})
        traced[workload]["metrics"] = {
            name: [run["result"]["metrics"].get(name, {}).get("value") if run else None for run in runs]
            for name in names}
    return traced


def src_lines(checkout: Path) -> dict:
    """Lines per module under src/ (as `wc -l` counts them) and their total."""
    modules = {str(path.relative_to(checkout / "src")): len(path.read_bytes().splitlines())
               for path in sorted((checkout / "src").rglob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def benchmark_sha256(checkout: Path) -> str:
    """sha256 over BENCHMARK.json and every file under benchmarks/ (bytecode caches aside), in
    sorted path order; each file adds its path relative to the checkout and then its bytes."""
    files = sorted(path for path in (checkout / "benchmarks").rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    digest = hashlib.sha256()
    for path in [checkout / "BENCHMARK.json", *files]:
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_bench(checkout: Path, seed: int, trace: bool) -> str | None:
    """run.py's standard output for one seed in a checkout, or None (with its error on
    stderr) when it exits non-zero."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "all", "--seed", str(seed),
           "--trace", str(int(trace))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{checkout}: seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "benchmarks" / "run.py").is_file():
            parser.error(f"{checkout} holds no benchmarks/run.py")
        for cache in [*checkout.glob("src/**/__pycache__"), *checkout.glob("benchmarks/**/__pycache__")]:
            shutil.rmtree(cache)
    benchmark = {side: benchmark_sha256(checkout) for side, checkout in checkouts.items()}
    runs: dict[str, dict[int, str | None]] = {side: {} for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            runs[side][seed] = run_bench(checkouts[side], seed, trace=False)
    traced = {}
    for side in SIDES:
        print(f"traced seed {TRACED_SEED}: {side}", file=sys.stderr, flush=True)
        traced[side] = run_bench(checkouts[side], TRACED_SEED, trace=True)
    end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(runs, end_to_end)
    report = {
        "verdict": verdict(summary),
        "commands": {"pairs": f"python3 benchmarks/run.py --workload all --seed S for S in {args.seeds}, "
                              "the parent first on the first, third, ... seed",
                     "traced": f"python3 benchmarks/run.py --workload all --seed {TRACED_SEED} --trace 1, "
                               "once per side after the pairs",
                     "environment": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ under src/ or benchmarks/"},
        **summary,
        "traced": summarize_traced(traced),
        "benchmark_sha256": {**benchmark, "equal": benchmark["parent"] == benchmark["change"]},
        "src_lines": {side: src_lines(checkout) for side, checkout in checkouts.items()},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
