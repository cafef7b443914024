#!/usr/bin/env python3
"""Per-frame timing of `SelectiveTracker.step`, or load or evaluation timing, on the benchmark's workloads.

Generates each seeded workload of `perfbench/workloads.py` into a temporary
directory, loads it through `seltrack.io` and steps fresh trackers over it
in selective and always_extract mode, alternating pass by pass. Each frame
keeps its fastest time over the passes, and the table gives the median of
those minima in milliseconds, the estimator of `perfbench/measure.py`,
whose `pin_fastest_cpu` runs every few frames between steps:

    PYTHONPATH=src python scripts/bench_frame.py --passes 24

`--against PATH` loads the `seltrack` package of the checkout at PATH into
the same process next to this one and alternates passes of the two
trackers on the same frames, which side goes first alternating too, so
that host drift hits both sides alike; separate processes, alternated,
drift further apart than the differences a frame-level change makes. The
table then gives both sides, the change of this side against the other,
and whether the two emitted the same (frame, id, box) rows.

`--setup` times the loads instead, the benchmark's `setup_s`: one load is
`io.read_detections` of det.txt plus an `io.FeatureFileProvider` of
features.feab, held until the side's next load replaces it, as
`perfbench/measure.py` holds it. The sides alternate load by load, and the
table gives each side's fastest load in milliseconds, and on rows of their
own each side's fastest `read_detections` and fastest provider build, so a
change to one of them shows on its own:

    PYTHONPATH=src python scripts/bench_frame.py --setup --against ../parent --passes 60

`--eval` times `metrics.evaluate` instead: each side scores the ground
truth against its own tracker's selective results, with the run's stats,
the sides alternating call by call, and the table gives each side's
fastest call in milliseconds and whether the two reports are identical:

    PYTHONPATH=src python scripts/bench_frame.py --eval --against ../parent --passes 60

`--calls` counts calls instead of timing them: after one pass that warms
up lazy imports, each side steps a fresh tracker over every frame under
cProfile, and the table gives the total calls it saw over that pass
divided by the frames, per workload and mode. The count repeats exactly
from run to run, so it shows a change in the number of calls a frame
makes without the host's noise. With `--against`, each workload and mode
is followed by the functions whose calls per frame changed most between
the two sides, this side's count, the other's and the change, so a
change shows where its calls went:

    PYTHONPATH=src python scripts/bench_frame.py --calls --against ../parent

`--stages` times each top-level statement of `SelectiveTracker._step_inner`
instead, on this checkout only, in the mode `--mode` names: it compiles an
`ast` copy of the method with a `perf_counter` mark after each statement
(the marks add their own cost to the statement before them), steps fresh
trackers over every frame with that copy, and gives each statement's µs
per frame, the fastest over the passes for each frame, then the mean over
frames. A compound statement counts whole, and each stage, the comment
above its first statement, is followed by its statements:

    PYTHONPATH=src python scripts/bench_frame.py --stages --mode always_extract --passes 12

A call count is not a time. cProfile counts calls of Python functions and
of builtins and methods, such as `ndarray.all`, but not numpy's indexing,
ufuncs or operators (`a[rows]`, `a[:, js] = b`, `a * b`), which run no
profiled call: a change that builds a column whole instead of gathering
a subset and scattering it back removes work the count never saw, and
may add the calls that choose between the two. Building the Kalman
block, the embeddings and the appearance costs whole when a frame covers
every row took parade's selective frames from 138.2 to 139.2 calls while
their time fell 8 %.
"""

from __future__ import annotations

import os

# one thread, as the benchmark runs: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ast
import collections
import cProfile
import dataclasses
import gc
import importlib
import inspect
import math
import pstats
import re
import sys
import tempfile
import textwrap
from pathlib import Path
from time import perf_counter
from types import MethodType, SimpleNamespace

import numpy as np

from seltrack import gating, io, metrics, tracker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import measure  # noqa: E402
import workloads  # noqa: E402

MODES = (gating.MODE_SELECTIVE, gating.MODE_ALWAYS_EXTRACT)


def _package_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name == "seltrack" or name.startswith("seltrack.")}


def load_against(root: Path) -> SimpleNamespace:
    """The `gating`, `io`, `metrics` and `tracker` modules of the checkout at `root`, kept apart from this one's.

    The checkout's package is imported under its own name while this one's
    modules are out of `sys.modules`, which then get their entries back;
    each package's modules keep the siblings they imported.
    """
    ours = _package_modules()
    for name in ours:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        names = ("gating", "io", "metrics", "tracker")
        return SimpleNamespace(**{name: importlib.import_module(f"seltrack.{name}") for name in names})
    finally:
        sys.path.remove(str(root / "src"))
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(ours)


class Side:
    """One checkout's tracker on one workload: its own loaded inputs and configs, and its timings."""

    def __init__(self, modules, workload):
        self.modules = modules
        self.frames = modules.io.read_detections(workload.det)
        self.provider = modules.io.FeatureFileProvider(workload.features)
        self.match = modules.tracker.MatchConfig(**dataclasses.asdict(workload.match))
        self.best: dict[str, dict[int, float]] = {mode: {} for mode in MODES}
        self.rows: dict[str, list] = {}

    def run_pass(self, mode: str) -> None:
        """Step a fresh tracker over every frame; keep each frame's fastest time and the first pass's rows."""
        gate = self.modules.gating.GateConfig(mode=mode)
        step = self.modules.tracker.SelectiveTracker(self.provider, gate, self.match).step
        best, rows = self.best[mode], []
        gc.collect()
        for n, frame in enumerate(sorted(self.frames)):
            if n % measure.PROBE_EVERY_FRAMES == 0:
                measure.pin_fastest_cpu()
            started = perf_counter()
            emitted = step(frame, self.frames[frame])
            ms = 1e3 * (perf_counter() - started)
            best[frame] = min(ms, best.get(frame, ms))
            rows.extend((frame, tid, *box) for tid, box in emitted)
        self.rows.setdefault(mode, rows)

    def calls_per_frame(self, mode: str) -> dict[str, float]:
        """cProfile's calls of each function over one pass of a fresh tracker, per frame, after an unprofiled pass.

        A function is keyed by its file's last two path parts and its name,
        which two checkouts share however far their line numbers moved.
        """
        self.run_pass(mode)
        gate = self.modules.gating.GateConfig(mode=mode)
        step = self.modules.tracker.SelectiveTracker(self.provider, gate, self.match).step
        frames = sorted(self.frames)
        profile = cProfile.Profile()
        profile.enable()
        for frame in frames:
            step(frame, self.frames[frame])
        profile.disable()
        calls = collections.Counter()
        for (file, _, name), (_, n_calls, *_) in pstats.Stats(profile).stats.items():
            calls["/".join(Path(file).parts[-2:]) + ":" + name if file != "~" else name] += n_calls / len(frames)
        return calls

    def median_ms(self, mode: str) -> float:
        return float(np.median(list(self.best[mode].values())))


def staged_step_inner(tracker_module) -> tuple:
    """An `ast` copy of `SelectiveTracker._step_inner` that appends a `perf_counter` mark after each top-level statement.

    Returns the copy, the list its marks go to (one at entry, then one per
    timed statement), and each timed statement's stage (the first clause
    of the last comment above it), line number and first source line.
    """
    lines, first = inspect.getsourcelines(tracker_module.SelectiveTracker._step_inner)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    ast.increment_lineno(tree, first - 1)
    method = tree.body[0]
    body, timed, stage, end = [ast.parse("_marks.append(_clock())").body[0]], [], "entry", method.body[0].end_lineno
    for stmt in method.body[1:]:  # the docstring is the first
        comments = [line.strip()[2:] for line in lines[end - first + 1:stmt.lineno - first] if line.strip()[:1] == "#"]
        stage, end = (re.split("[;:,]", comments[0])[0] if comments else stage), stmt.end_lineno
        if isinstance(stmt, ast.Return):
            body.append(stmt)
            continue
        body += [stmt, ast.parse("_marks.append(_clock())").body[0]]
        timed.append((stage, stmt.lineno, lines[stmt.lineno - first].strip()))
    method.body = body
    marks = []
    namespace = dict(vars(tracker_module), _marks=marks, _clock=perf_counter)
    exec(compile(ast.fix_missing_locations(tree), tracker_module.__file__, "exec"), namespace)
    return namespace[method.name], marks, timed


def stage_times(side: Side, mode: str, passes: int) -> tuple[list, np.ndarray]:
    """Each top-level statement of `_step_inner` and its µs per frame: the fastest over the passes, then the mean."""
    staged, marks, timed = staged_step_inner(side.modules.tracker)
    frames = sorted(side.frames)
    best = np.full((len(frames), len(timed)), np.inf)
    for _ in range(passes):
        tracker = side.modules.tracker.SelectiveTracker(side.provider, side.modules.gating.GateConfig(mode=mode),
                                                         side.match)
        tracker._step_inner = MethodType(staged, tracker)
        gc.collect()
        for n, frame in enumerate(frames):
            if n % measure.PROBE_EVERY_FRAMES == 0:
                measure.pin_fastest_cpu()
            marks.clear()
            tracker.step(frame, side.frames[frame])
            np.minimum(best[n], np.diff(marks), out=best[n])
    return timed, 1e6 * best.mean(axis=0)


def print_stages(timed: list, us: list[np.ndarray], names) -> None:
    """One row per stage with its statements' sum, its statements under it, and the frame's sum, one column per workload."""
    print(f"{'stage / statement':64} {'line':>5}" + "".join(f" {name + ' µs':>11}" for name in names))
    stages = list(dict.fromkeys(stage for stage, _, _ in timed))
    for stage in stages:
        rows = [k for k, (s, _, _) in enumerate(timed) if s == stage]
        print(f"{stage[:64]:64} {'':5}" + "".join(f" {u[rows].sum():>11.1f}" for u in us))
        for k in rows:
            print(f"  {timed[k][2][:62]:62} {timed[k][1]:>5}" + "".join(f" {u[k]:>11.1f}" for u in us))
    print(f"{'frame':64} {'':5}" + "".join(f" {u.sum():>11.1f}" for u in us))


MOVED_FUNCTIONS = 15  # the functions listed under each `--calls --against` line


def print_moved_calls(counts: list[dict[str, float]]) -> None:
    """The functions whose calls per frame differ most between two sides' counts, with both counts and the change."""
    this, other = counts
    moved = sorted(this.keys() | other.keys(), key=lambda f: (-abs(this.get(f, 0.0) - other.get(f, 0.0)), f))
    for f in moved[:MOVED_FUNCTIONS]:
        before, after = other.get(f, 0.0), this.get(f, 0.0)
        if before != after:
            print(f"{'':24} {after:>13.1f} {before:>13.1f} {after - before:>+8.1f}  {f}")


LOAD_PARTS = ("setup", "read_detections", "provider")


def fastest_loads(sides: list, workload, passes: int) -> list[dict[str, float]]:
    """Each side's fastest load of the workload in ms, whole and by part; which side loads first alternates pass by pass.

    A load's parts are `read_detections` and the `FeatureFileProvider`; each
    part's time includes freeing the side's previous result of that part,
    as the benchmark frees it when the next load replaces it.
    """
    best = [dict.fromkeys(LOAD_PARTS, math.inf) for _ in sides]
    held = [[None, None] for _ in sides]
    for n in range(passes):
        for k in range(len(sides))[:: 1 if n % 2 == 0 else -1]:
            modules, loaded = sides[k], held[k]
            gc.collect()
            measure.pin_fastest_cpu()
            started = perf_counter()
            loaded[0] = modules.io.read_detections(workload.det)
            read = perf_counter()
            loaded[1] = modules.io.FeatureFileProvider(workload.features)
            done = perf_counter()
            for part, seconds in zip(LOAD_PARTS, (done - started, read - started, done - read)):
                best[k][part] = min(best[k][part], 1e3 * seconds)
    return best


def fastest_evaluates(sides: list, workload, passes: int) -> tuple[list[float], list[tuple]]:
    """Each side's fastest `metrics.evaluate` of its selective results in ms, and its report's fields.

    Each side tracks the workload in selective mode once and scores that
    output against the ground truth it reads itself; which side is timed
    first alternates pass by pass.
    """
    inputs = []
    for modules in sides:
        gate = modules.gating.GateConfig(mode=gating.MODE_SELECTIVE)
        match = modules.tracker.MatchConfig(**dataclasses.asdict(workload.match))
        provider = modules.io.FeatureFileProvider(workload.features)
        output, stats = modules.tracker.run_sequence(modules.io.read_detections(workload.det), provider, gate, match)
        inputs.append((modules.io.read_trajectories(workload.gt), output.trajectories(), stats))
    best, reports = [math.inf] * len(sides), [None] * len(sides)
    for n in range(passes):
        for k in range(len(sides))[:: 1 if n % 2 == 0 else -1]:
            gt, pred, stats = inputs[k]
            gc.collect()
            measure.pin_fastest_cpu()
            started = perf_counter()
            report = sides[k].metrics.evaluate(gt, pred, stats=stats)
            best[k] = min(best[k], 1e3 * (perf_counter() - started))
            reports[k] = dataclasses.astuple(report)
    return best, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=24,
                    help="passes per side, workload and mode (with --setup or --eval, calls per side and workload; "
                         "--calls makes one)")
    ap.add_argument("--against", type=Path, help="another checkout to time alongside this one")
    timed = ap.add_mutually_exclusive_group()
    timed.add_argument("--setup", action="store_true", help="time the loads of the inputs, not the frames")
    timed.add_argument("--eval", action="store_true", help="time metrics.evaluate of the results, not the frames")
    timed.add_argument("--calls", action="store_true",
                       help="count the calls per frame under cProfile, not the time; numpy indexing, ufuncs and "
                            "operators make no counted call, so a count is not a time")
    timed.add_argument("--stages", action="store_true",
                       help="time each top-level statement of SelectiveTracker._step_inner in --mode, not the frames")
    ap.add_argument("--mode", default=gating.MODE_SELECTIVE, choices=MODES, help="the mode --stages times")
    args = ap.parse_args(argv)
    if args.stages and args.against is not None:
        ap.error("--stages times this checkout only")

    sides = {"this": SimpleNamespace(gating=gating, io=io, metrics=metrics, tracker=tracker)}
    if args.against is not None:
        sides["against"] = load_against(args.against.resolve())
    names = workloads.NAMES if args.workload == "all" else (args.workload,)

    cpus = os.sched_getaffinity(0)  # `pin_fastest_cpu` narrows it
    if args.stages:
        try:
            with tempfile.TemporaryDirectory() as tmp:
                sides = [Side(sides["this"], workloads.generate(name, args.seed, Path(tmp) / name)) for name in names]
                times = [stage_times(side, args.mode, args.passes) for side in sides]
        finally:
            os.sched_setaffinity(0, cpus)
        print_stages(times[0][0], [us for _, us in times], names)
        return 0
    unit = " calls" if args.calls else " ms"
    header = f"{'workload':8} {'mode':15}" + "".join(f" {name + unit:>13}" for name in sides)
    columns = f" {'change':>8}" + ("" if args.setup else f" {'report' if args.eval else 'rows':>9}")
    print(header + (columns if len(sides) > 1 else ""))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name in names:
                workload = workloads.generate(name, args.seed, Path(tmp) / name)
                if args.setup:
                    best = fastest_loads(list(sides.values()), workload, args.passes)
                    for part in LOAD_PARTS:
                        ms = [side[part] for side in best]
                        line = f"{name:8} {part:15}" + "".join(f" {v:>13.3f}" for v in ms)
                        print(line + (f" {100.0 * (ms[0] / ms[1] - 1.0):>+7.1f}%" if len(ms) > 1 else ""), flush=True)
                    continue
                if args.eval:
                    ms, reports = fastest_evaluates(list(sides.values()), workload, args.passes)
                    line = f"{name:8} {'evaluate':15}" + "".join(f" {v:>13.3f}" for v in ms)
                    if len(ms) > 1:
                        same = all(r == reports[0] for r in reports)
                        line += f" {100.0 * (ms[0] / ms[1] - 1.0):>+7.1f}% {'identical' if same else 'DIFFER':>9}"
                    print(line, flush=True)
                    continue
                loaded = [Side(modules, workload) for modules in sides.values()]
                for n in range(0 if args.calls else args.passes):
                    for mode in MODES:
                        for side in loaded[:: 1 if n % 2 == 0 else -1]:
                            side.run_pass(mode)
                for mode in MODES:
                    if args.calls:
                        counts = [side.calls_per_frame(mode) for side in loaded]
                        ms = [sum(c.values()) for c in counts]
                    else:
                        ms = [side.median_ms(mode) for side in loaded]
                    line = f"{name:8} {mode:15}" + "".join(f" {v:>13.{1 if args.calls else 3}f}" for v in ms)
                    if len(loaded) > 1:
                        same = all(side.rows[mode] == loaded[0].rows[mode] for side in loaded)
                        line += f" {100.0 * (ms[0] / ms[1] - 1.0):>+7.1f}% {'identical' if same else 'DIFFER':>9}"
                    print(line, flush=True)
                    if args.calls and len(loaded) > 1:
                        print_moved_calls(counts)
    finally:
        os.sched_setaffinity(0, cpus)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
