"""Run one slatesim benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload train-cdqn --seed 1 --seconds 14 --trace 0

Workloads: train-cdqn, eval-wide-catalog, log-and-fit, or `all` for each in
turn. A run is round(seconds / spec.CYCLE_S) fresh `worker.py` processes,
each with one BLAS thread and preceded by a process that only builds the
inputs. Set-up time is the median over all of them, and each stage's rate the
median over the run's chunks of that stage of work / seconds. Both are scaled
to the machine speed at which the calibration kernel takes
spec.CALIBRATION_REF_S seconds (see workloads.calibration_s), timed right
after set-up and between chunks. The info line also gives the unscaled values.

With `--trace 0` the last line of standard output holds every end-to-end metric
of `spec.END_TO_END`. With `--trace 1` it holds every per-layer metric of
`spec.PER_LAYER`, from traced processes, and the tracing overhead against an
untraced run of the same seed, whose output digests and quality metrics must
be identical. The line before it holds the quality metrics, output digests,
failed checks and machine details.

The program is imported from `src/` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from spec import CALIBRATION_REF_S, CYCLE_S, END_TO_END, PER_LAYER, QUALITY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Every run must end within 180 s; leave room for the parent's own work.
BUDGET_S = 170.0
RATES = {"train": "train_transitions_per_s", "eval": "eval_steps_per_s",
         "log": "log_steps_per_s", "fit": "fit_examples_per_s"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    # On a 2-CPU machine one load process must not compete with BLAS helper threads.
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, child: int, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--child", str(child), "--mode", mode]
    spawned = time.monotonic()
    try:
        # run() kills the worker on timeout and waits for it to end
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {workload} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker for {workload} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(lines[-1])
    # CLOCK_MONOTONIC is system-wide, so the worker's reading compares with ours
    out["setup_s"] = out["ready"] - spawned
    out["scaled_setup_s"] = out["setup_s"] * CALIBRATION_REF_S / out["calibration_s"]
    return out


def run_processes(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """All processes of one run, combined: rates, quality means, digests and counts."""
    probes, children = [], []
    for child in range(max(1, round(seconds / CYCLE_S))):
        probes.append(run_worker(workload, seed, child, "setup", deadline))
        children.append(run_worker(workload, seed, child, mode, deadline))
    probes += children
    values: dict[str, float] = {"setup_s": statistics.median(p["scaled_setup_s"] for p in probes),
                                "peak_rss_mb": max(c["peak_rss_mb"] for c in children)}
    samples = {kind: [x for c in children for x in c["samples"][kind]] for kind in RATES}
    unscaled = {}
    for kind, name in RATES.items():
        if samples[kind]:
            values[name] = statistics.median(w / s * cal / CALIBRATION_REF_S for w, s, cal in samples[kind])
            unscaled[name] = statistics.median(w / s for w, s, _ in samples[kind])
    quality = {}
    for name in QUALITY:
        per_chunk = [x for c in children for x in c["quality"].get(name, [])]
        if per_chunk:
            quality[name] = sum(per_chunk) / len(per_chunk)
    digests = {}
    for name in sorted({d for c in children for d in c["digests"]}):
        h = hashlib.sha256()
        for c in children:
            for digest in c["digests"].get(name, []):
                h.update(digest.encode())
        digests[name] = h.hexdigest()
    values.update(quality)
    return {
        "values": values,
        "quality": quality,
        "digests": digests,
        "samples": samples,
        "unscaled": dict(unscaled, setup_s=statistics.median(p["setup_s"] for p in probes)),
        "counts": {"loglik_clamped": sum(c["counts"]["loglik_clamped"] for c in children)},
        "spans": [c["spans"] for c in children if "spans" in c],
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "problems": [p for c in children for p in c["problems"]],
        "versions": children[0]["versions"],
    }


def scaled_s(run: dict) -> float:
    """Seconds the run's chunks take at their stages' scaled median rates."""
    return sum(sum(work for work, _, _ in chunks) / run["values"][RATES[kind]]
               for kind, chunks in run["samples"].items())


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    run = run_processes(workload, seed, seconds, "run", deadline)
    problems = list(run["problems"])
    problems += [f"no value for {name}" for name in END_TO_END if name not in run["values"]]
    metrics = {name: {"value": run["values"].get(name), "unit": unit} for name, (unit, _) in END_TO_END.items()}
    return run, {"attempted": run["attempted"], "failed": run["failed"], "problems": problems, "metrics": metrics}


def traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    plain = run_processes(workload, seed, seconds, "run", deadline)
    run = run_processes(workload, seed, seconds, "trace", deadline)
    problems = plain["problems"] + run["problems"]
    if run["digests"] != plain["digests"]:
        problems.append("tracing changed the output digests")
    if run["quality"] != plain["quality"]:
        problems.append("tracing changed the quality metrics")
    spans = tracing.merge(run["spans"])
    values, silent = tracing.layer_metrics(spans, run["counts"])
    if silent:
        problems.append(f"predicted spans recorded no call: {silent}")
    values["trace.overhead_pct"] = 100.0 * (scaled_s(run) / scaled_s(plain) - 1.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return run, {"attempted": plain["attempted"] + run["attempted"],
                 "failed": plain["failed"] + run["failed"], "problems": problems, "metrics": metrics}


def machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "commit": commit, "src_lines": src_lines}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    run, outcome = (traced if trace else untraced)(workload, seed, seconds, deadline)
    info = {"workload": workload, "seed": seed, "trace": int(trace), "quality": run["quality"],
            "unscaled": run["unscaled"], "digests": run["digests"], "problems": outcome["problems"],
            "machine": dict(machine(), **run["versions"])}
    print(json.dumps(info), flush=True)
    for name, m in outcome["metrics"].items():
        print(f"{workload:>18} {name:<40} {m['value']!s:>24} {m['unit']}", file=sys.stderr)
    return {"correct": not outcome["problems"] and outcome["failed"] == 0,
            "attempted": outcome["attempted"], "failed": outcome["failed"], "metrics": outcome["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "slatesim" / "__init__.py").is_file():
        print(f"slatesim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
