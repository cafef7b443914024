"""seltrack benchmark: frame latency, PDE and modelled extraction time per workload.

    python3 perfbench/run.py --modelled-batch-ms 2.0 --modelled-per-crop-ms 0.5 \
        --workload grid --seed 1 --seconds 35 --trace 0

generates the workload from the seed into .perfbench/, loads it through
`seltrack.io`, and tracks it in one process on one thread. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
traced run. `--workload all` runs every workload both ways, each in its own
process. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The package is imported from src/ next to this directory; without it the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import os

# one thread: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("parade", "grid", "churn")
RUN_TIMEOUT_S = 180


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--modelled-batch-ms", type=float, required=True,
                    help="modelled extraction cost of a frame with any fetch")
    ap.add_argument("--modelled-per-crop-ms", type=float, required=True,
                    help="modelled extraction cost of each fetch")
    return ap.parse_args(argv)


def _result_line(correct: bool, attempted: int, failed: int, values: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    })


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import seltrack

    if Path(seltrack.__file__).resolve().parent != SRC / "seltrack":
        print(f"seltrack imported from {seltrack.__file__}, not from src/", file=sys.stderr)
        return 2
    import measure
    import workloads
    from seltrack import io as mot_io

    work_dir = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.generate(args.workload, args.seed, work_dir)
    model = measure.ExtractionModel(args.modelled_batch_ms, args.modelled_per_crop_ms)
    setup = measure.Setup(workload)
    gt = mot_io.read_trajectories(workload.gt)
    measure_run = measure.traced_run if args.trace else measure.timed_run
    run = measure_run(workload, setup, gt, model, args.seconds, work_dir)
    run.notes.insert(0, f"set-up: fastest of {len(setup.loads)} loads of det.txt and features.feab"
                        f" ({measure.LOADS_PER_ROUND} per round)")

    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for note in run.notes:
        print(f"  {note}")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  failed steps: {run.failed} of {run.attempted} attempted (share {share:.6f})")
    if run.first_error is not None:
        print(f"  first failed step: {run.first_error.strip()}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  output checks: {'ok' if not run.problems else 'FAILED'}"
          " (unique ids per frame, pde in [0, 100], pde = fetches / high detections,"
          " identical results across passes)")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:<32} {value:>16.6f} {unit}")
    print(_result_line(not run.problems, max(run.attempted, 1), run.failed, run.metrics))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a child process; one JSON line at the end."""
    correct, attempted, failed, values = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--modelled-batch-ms", str(args.modelled_batch_ms),
                   "--modelled-per-crop-ms", str(args.modelled_per_crop_ms)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(_result_line(correct, attempted, failed, values))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "seltrack" / "__init__.py").is_file():
        print(f"no seltrack package under {SRC}; run from a seltrack checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
