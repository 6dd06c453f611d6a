"""One benchmark process: build a workload's inputs, run it, print one JSON line.

run.py starts several fresh interpreters per run, so that set-up time and peak
RSS belong to one workload:

    python3 benchmarks/worker.py --workload train-cdqn --seed 1 --child 0 --mode run

`--child` numbers the processes of one run and picks their episodes. `--mode
setup` stops once the inputs are built; `--mode trace` also records spans
around slatesim's public functions and reports their summary.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import slatesim

    if Path(slatesim.__file__).resolve().parent != SRC / "slatesim":
        print(f"slatesim was imported from {slatesim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.mode}-", dir=scratch)
    try:
        cycle = workloads.Cycle(args.workload, args.seed, args.child, workdir)
        ready = time.monotonic()
        # the machine's speed right after set-up, to scale the set-up time by
        calibration = sorted(workloads.calibration_s() for _ in range(3))[1]
        if args.mode == "setup":
            print(json.dumps({"ready": ready, "calibration_s": calibration}))
            return 0
        cycle.warm_up()
        recorder = None
        if args.mode == "trace":
            recorder = tracing.SpanRecorder()
            tracing.install(recorder)
        result = cycle.run()
        result["ready"] = ready
        result["calibration_s"] = calibration
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
        if recorder is not None:
            result["spans"] = recorder.summary()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
