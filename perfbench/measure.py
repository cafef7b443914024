"""Closed-loop tracking passes, output checks, and the timed and traced runs.

A pass feeds a workload's frames to a fresh `SelectiveTracker` one at a
time; the next frame goes in only after `step()` returns. A frame whose
step raises counts as failed and the pass goes on with the next frame.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from seltrack import io as mot_io
from seltrack import metrics
from seltrack import tracker as tracker_mod
from seltrack.gating import MODE_ALWAYS_EXTRACT, MODE_SELECTIVE, GateConfig
from seltrack.tracker import SelectiveTracker, TrackOutput

import tracer as tracing

LOADS_PER_ROUND = 3
PROBE_LOOP = 20_000  # about 1 ms of interpreter work
PROBE_REPS = 2
PROBE_EVERY_FRAMES = 20
_ALL_CPUS = frozenset(os.sched_getaffinity(0))  # the CPUs this process started with
MIN_ROUNDS = 2
EVAL_ROUNDS = 2  # timed rounds that also evaluate the output


@dataclass(frozen=True)
class ExtractionModel:
    """Modelled ReID cost: batch_ms + per_crop_ms * fetches, for frames with a fetch."""

    batch_ms: float
    per_crop_ms: float

    def frame_ms(self, fetches: int) -> float:
        return self.batch_ms + self.per_crop_ms * fetches if fetches else 0.0


@dataclass
class Pass:
    mode: str
    frame_ms: dict[int, float] = field(default_factory=dict)  # successful steps only
    extract_ms: dict[int, float] = field(default_factory=dict)  # modelled, same frames
    fetches: int = 0  # successful steps only
    high: int = 0  # high-confidence detections counted from det.txt, successful steps only
    births: int = 0  # distinct track ids the tracker made
    tracks_held: int = 0  # tracks the tracker holds at the end
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None
    stats: tracker_mod.RunStats | None = None
    problems: list[str] = field(default_factory=list)
    sha256: str = ""
    live_tracks_max: int = 0  # traced passes only

    def fps(self) -> float:
        """Frames stepped over their total step time."""
        total_ms = sum(self.frame_ms.values())
        return 1e3 * len(self.frame_ms) / total_ms if total_ms else 0.0


def run_pass(frames, provider, match, mode, model, results_path, tracer=None) -> tuple[Pass, TrackOutput]:
    """One pass over all frames with a fresh tracker; writes and hashes the results."""
    tracker = SelectiveTracker(provider, GateConfig(mode=mode), match)
    counter = tracker.provider  # the tracker's own fetch counter
    step = tracker.step
    if tracer is not None:
        counter.fetch = tracer.timed(counter.fetch, "tracker.fetch")
        step = tracer.timed(step, "tracker.step")
    ids_seen: set[int] = set()
    p = Pass(mode)
    output = TrackOutput()
    # A full collection first resets the collector's allocation counts, so its
    # pauses land on the same frames in every pass and per-frame minima keep them.
    gc.collect()
    for n, frame in enumerate(sorted(frames)):
        if n % PROBE_EVERY_FRAMES == 0:
            pin_fastest_cpu()
        before = counter.fetches
        p.attempted += 1
        started = perf_counter()
        try:
            emitted = step(frame, frames[frame])
        except Exception:  # a failed frame is counted; the sequence goes on
            p.failed += 1
            if p.first_error is None:
                p.first_error = f"frame {frame}: {traceback.format_exc()}"
            emitted = None
        elapsed = perf_counter() - started
        ids_seen.update(t.id for t in tracker.tracks)
        if tracer is not None:
            live = sum(1 for t in tracker.tracks if t.status != tracker_mod.DELETED)
            p.live_tracks_max = max(p.live_tracks_max, live)
        if emitted is None:
            continue
        fetches = counter.fetches - before
        p.frame_ms[frame] = 1e3 * elapsed
        p.extract_ms[frame] = model.frame_ms(fetches)
        p.fetches += fetches
        p.high += sum(1 for d in frames[frame] if d.confidence >= match.conf_high)
        ids = [tid for tid, _ in emitted]
        if len(set(ids)) != len(ids):
            p.problems.append(f"{mode}: duplicate track ids in frame {frame}")
        output.rows.extend((frame, tid, box) for tid, box in emitted)
    p.stats = tracker.stats
    p.births = len(ids_seen)
    p.tracks_held = len(tracker.tracks)
    _check_pass(p)
    mot_io.write_results(results_path, output)
    p.sha256 = hashlib.sha256(Path(results_path).read_bytes()).hexdigest()
    return p, output


def expected_pde(p: Pass) -> float | None:
    """Fetches over the high-confidence detections counted from det.txt, in %."""
    return 100.0 * p.fetches / p.high if p.high else None


def _check_pass(p: Pass) -> None:
    """Check the pass against counts taken from the inputs, not from the tracker."""
    stats = p.stats
    if stats.high_detections != p.high:
        p.problems.append(f"{p.mode}: RunStats.high_detections {stats.high_detections}"
                          f" != {p.high} high-confidence detections in det.txt")
    pde, expected = metrics.pde(stats), expected_pde(p)
    if expected is None:
        p.problems.append(f"{p.mode}: no high-confidence detections")
        return
    if pde is None or not 0.0 <= pde <= 100.0:
        p.problems.append(f"{p.mode}: pde {pde} outside [0, 100]")
    elif not math.isclose(pde, expected):
        p.problems.append(f"{p.mode}: pde {pde} != fetches / high detections in det.txt = {expected}")
    if p.mode == MODE_ALWAYS_EXTRACT and p.fetches != p.high:
        p.problems.append(f"{p.mode}: {p.fetches} fetches for {p.high} high detections in det.txt")
    if p.mode == MODE_SELECTIVE and not p.births <= p.fetches <= p.high:
        # every birth pays one fetch; no detection pays twice
        p.problems.append(f"{p.mode}: {p.fetches} fetches outside [{p.births} births, {p.high} high detections]")


class Setup:
    """Timed loads of det.txt and features.feab through `seltrack.io`.

    Each round of a run loads the inputs LOADS_PER_ROUND times back to
    back. `setup_s` is the fastest load of the whole run, the same
    estimator as the frame times. The passes use the inputs of the last load.
    """

    def __init__(self, workload):
        self.workload = workload
        self.loads: list[tuple[float, float]] = []  # (det_s, feat_s) of every load
        self.frames: dict = {}
        self.provider = None

    def _load(self) -> tuple[float, float]:
        pin_fastest_cpu()
        started = perf_counter()
        self.frames = mot_io.read_detections(self.workload.det)
        loaded = perf_counter()
        self.provider = mot_io.FeatureFileProvider(self.workload.features)
        return loaded - started, perf_counter() - loaded

    def run(self) -> None:
        self.loads.extend(self._load() for _ in range(LOADS_PER_ROUND))

    def setup_s(self) -> float:
        return min(d + f for d, f in self.loads)


@dataclass
class Run:
    """Everything one benchmark invocation measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def absorb(self, p: Pass) -> None:
        self.attempted += p.attempted
        self.failed += p.failed
        self.problems.extend(p.problems)
        if self.first_error is None and p.first_error is not None:
            self.first_error = f"{p.mode} {p.first_error}"


def _probe() -> float:
    started = perf_counter()
    sum(i * i for i in range(PROBE_LOOP))
    return perf_counter() - started


def pin_fastest_cpu() -> None:
    """Pin the process to whichever of its CPUs runs a short fixed loop fastest now.

    On a shared host one CPU can run at half speed for many seconds while
    another runs at full speed. The probe takes a few milliseconds and runs
    before each load and evaluation and every PROBE_EVERY_FRAMES frames of
    a pass, outside the timed calls.
    """
    cpus = sorted(_ALL_CPUS)
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_probe() for _ in range(PROBE_REPS)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def _rounds(seconds: float, body) -> int:
    """Call body() until the next round would overrun `seconds` (at least MIN_ROUNDS)."""
    deadline = perf_counter() + seconds
    rounds = 0
    try:
        while True:
            started = perf_counter()
            body()
            rounds += 1
            took = perf_counter() - started
            if rounds >= MIN_ROUNDS and perf_counter() + took > deadline:
                return rounds
    finally:
        os.sched_setaffinity(0, _ALL_CPUS)


def _same(run: Run, what: str, values: list) -> None:
    if len(set(values)) != 1:
        run.problems.append(f"{what} differs between passes: {sorted(set(values))}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest(passes: list[Pass]) -> dict[int, float]:
    """Each frame's step time in the fastest of the passes that ran it.

    The host's speed drifts between fast and slow phases lasting seconds;
    a frame's fastest time over passes spread across the run filters those
    phases out, where a mean or median over passes would mix them in. It
    also filters out costs that fall on different frames in different
    passes; whole passes, as in `track_fps`, keep them. Each pass starts
    with a full collection, so garbage-collection pauses repeat on the same
    frames and the minimum keeps them.
    """
    best: dict[int, float] = {}
    for p in passes:
        for frame, ms in p.frame_ms.items():
            best[frame] = min(ms, best.get(frame, ms))
    return best


def modelled(passes: list[Pass], best: dict[int, float]) -> list[float]:
    """Per frame: fastest step time plus the frame's modelled extraction cost."""
    extract = {frame: ms for p in passes for frame, ms in p.extract_ms.items()}
    return [ms + extract[frame] for frame, ms in best.items()]


def timed_run(workload, setup: Setup, gt, model, seconds, work_dir) -> Run:
    """End-to-end metrics: selective and always_extract passes, interleaved, plus evaluation.

    A round makes two selective passes around one always_extract pass, so
    the selective figures, which carry most bounds, draw on twice the
    passes. The output is the same in every pass (checked by hash), so it is
    evaluated only in the first EVAL_ROUNDS rounds, which leaves the time
    to passes.
    """
    run = Run()
    sel_passes: list[Pass] = []
    always_passes: list[Pass] = []
    eval_s: list[float] = []
    reports = []

    def one_round():
        setup.run()
        frames, provider = setup.frames, setup.provider
        for mode, passes in ((MODE_SELECTIVE, sel_passes), (MODE_ALWAYS_EXTRACT, always_passes), (MODE_SELECTIVE, sel_passes)):
            p, out = run_pass(frames, provider, workload.match, mode, model, work_dir / f"results_{mode}.txt")
            passes.append(p)
        if len(reports) < EVAL_ROUNDS:
            pred = out.trajectories()
            pin_fastest_cpu()
            started = perf_counter()
            reports.append(metrics.evaluate(gt, pred, stats=p.stats))
            eval_s.append(perf_counter() - started)

    rounds = _rounds(seconds, one_round)
    for p in sel_passes + always_passes:
        run.absorb(p)
    sel_best, always_best = fastest(sel_passes), fastest(always_passes)
    if not sel_best or not always_best:
        run.problems.append("no frame stepped successfully")
        return run
    sel, always, report = sel_passes[-1], always_passes[-1], reports[-1]
    sel_ms = list(sel_best.values())
    sel_modelled = modelled(sel_passes, sel_best)
    always_modelled = modelled(always_passes, always_best)
    _same(run, "selective results sha256", [p.sha256 for p in sel_passes])
    _same(run, "always_extract results sha256", [p.sha256 for p in always_passes])
    _same(run, "evaluation", [(r.pde, r.idf1, r.id_switches) for r in reports])
    expected = expected_pde(sel)
    if report.pde is None or expected is None or not math.isclose(report.pde, expected):
        run.problems.append(f"evaluated pde {report.pde} != fetches / high detections in det.txt")

    run.add("setup_s", setup.setup_s(), "s")
    run.add("frame_ms_p50", np.median(sel_ms), "ms")
    run.add("always_frame_ms_p50", np.median(list(always_best.values())), "ms")
    run.add("modelled_frame_ms_p50", np.median(sel_modelled), "ms")
    run.add("pde", report.pde, "%")
    run.add("idf1", report.idf1, "ratio")
    run.add("peak_rss_mb", peak_rss_mb(), "MB")

    run.notes += [
        f"rounds: {rounds} (each: selective, always_extract and selective pass;"
        f" the first {len(reports)} also evaluate)",
        f"frame times: each frame's fastest of {len(sel_passes)} selective and {len(always_passes)}"
        f" always_extract passes ({len(sel_ms)} and {len(always_best)} frames)",
        # too unsteady on a shared host to carry a bound: printed, not in the result
        f"track_fps (not bounded): {max(p.fps() for p in sel_passes)} frames/s, fastest whole"
        f" selective pass of {len(sel_passes)} ({len(sel_ms)} frames each)",
        f"frame_ms_p95 (not bounded): {np.percentile(sel_ms, 95)} ms,"
        f" {len(sel_ms) - int(np.ceil(0.95 * len(sel_ms)))} frames beyond it",
        f"eval_s (not bounded): {min(eval_s)} s, fastest of {len(eval_s)} metrics.evaluate calls",
        f"modelled extraction (not measured): {model.batch_ms} ms per frame with a fetch"
        f" + {model.per_crop_ms} ms per fetch",
        f"always_extract modelled_frame_ms_p50: {np.median(always_modelled)} ms",
        f"id_switches: {report.id_switches} (idtp {report.idtp}, idfp {report.idfp}, idfn {report.idfn})",
        f"fetches per pass: selective {sel.fetches}, always_extract {always.fetches};"
        f" high detections {sel.stats.high_detections}",
        f"results sha256 selective {sel.sha256}",
        f"results sha256 always_extract {always.sha256}",
    ]
    return run


def traced_run(workload, setup: Setup, gt, model, seconds, work_dir) -> Run:
    """Per-layer metrics: traced selective passes and evaluations, each after an untraced pass."""
    run = Run()
    tr = tracing.Tracer()
    plain_passes: list[Pass] = []
    traced_passes: list[Pass] = []
    totals: list[dict] = []
    scoped_spans: list[tuple[str, list]] = []
    last: dict = {}

    def one_round():
        setup.run()
        frames, provider = setup.frames, setup.provider
        plain, _ = run_pass(frames, provider, workload.match, MODE_SELECTIVE, model, work_dir / "results_untraced.txt")
        tr.install()
        try:
            traced, traced_out = run_pass(frames, provider, workload.match, MODE_SELECTIVE, model, work_dir / "results_traced.txt", tr)
            pass_spans, pass_counts = tr.take()
            pred = traced_out.trajectories()
            pin_fastest_cpu()
            report = tr.timed(metrics.evaluate, "metrics.evaluate")(gt, pred, stats=traced.stats)
            eval_spans, eval_counts = tr.take()
        finally:
            tr.uninstall()
        for p in (plain, traced):
            run.absorb(p)
        if plain.sha256 != traced.sha256:
            run.problems.append("tracing changed the results")
        plain_passes.append(plain)
        traced_passes.append(traced)
        n = len(totals)
        scoped_spans.extend([(f"pass{n}", pass_spans), (f"eval{n}", eval_spans)])
        totals.append({"pass": tracing.span_totals(pass_spans), "eval": tracing.span_totals(eval_spans)})
        last.update(traced=traced, report=report, pass_counts=pass_counts, eval_counts=eval_counts)

    rounds = _rounds(seconds, one_round)
    tracing.write_spans(work_dir / "spans.csv", scoped_spans)
    untraced_ms = list(fastest(plain_passes).values())
    traced_ms = list(fastest(traced_passes).values())
    if not untraced_ms or not traced_ms:
        run.problems.append("no frame stepped successfully")
        return run

    def span(scope, name, key):
        values = [t[scope].get(name, {}).get(key, 0.0) for t in totals]
        return values[-1] if key == "calls" else min(values)

    traced, report = last["traced"], last["report"]
    pc, ec = last["pass_counts"], last["eval_counts"]
    solve_calls = span("pass", "assignment.solve", "calls")
    high = pc["gating.risky"] + pc["gating.non_risky"]
    run.add("io.read_detections_s", min(d for d, _ in setup.loads), "s")
    run.add("io.read_features_s", min(f for _, f in setup.loads), "s")
    run.add("tracker.step_s", span("pass", "tracker.step", "s"), "s")
    run.add("tracker.step_self_s", span("pass", "tracker.step", "self_s"), "s")
    run.add("tracker.fetch_calls", span("pass", "tracker.fetch", "calls"), "count")
    run.add("tracker.fetch_s", span("pass", "tracker.fetch", "s"), "s")
    run.add("tracker.births", traced.births, "count")
    run.add("tracker.tracks_held", traced.tracks_held, "count")
    run.add("tracker.live_tracks_max", traced.live_tracks_max, "count")
    run.add("tracker.failed_steps", traced.failed, "count")
    run.add("gating.classify_calls", span("pass", "gating.classify", "calls"), "count")
    run.add("gating.classify_s", span("pass", "gating.classify", "s"), "s")
    run.add("gating.non_risky", pc["gating.non_risky"], "count")
    run.add("gating.risky", pc["gating.risky"], "count")
    run.add("gating.non_risky_share", pc["gating.non_risky"] / high if high else 0.0, "ratio")
    run.add("geometry.iou_calls", pc["geometry.iou"], "count")
    run.add("appearance.cosine_calls", pc["appearance.cosine"], "count")
    run.add("appearance.ema_calls", span("pass", "appearance.ema", "calls"), "count")
    run.add("appearance.ema_s", span("pass", "appearance.ema", "s"), "s")
    run.add("appearance.mark_skipped_calls", pc["appearance.mark_skipped"], "count")
    run.add("motion.predict_calls", span("pass", "motion.predict", "calls"), "count")
    run.add("motion.predict_s", span("pass", "motion.predict", "s"), "s")
    run.add("motion.update_calls", span("pass", "motion.update", "calls"), "count")
    run.add("motion.update_s", span("pass", "motion.update", "s"), "s")
    run.add("motion.state_to_box_calls", pc["motion.state_to_box"], "count")
    run.add("assignment.solve_calls", solve_calls, "count")
    run.add("assignment.solve_s", span("pass", "assignment.solve", "s"), "s")
    run.add("assignment.solve_max_ms", 1e3 * span("pass", "assignment.solve", "max_s"), "ms")
    run.add("assignment.lsa_calls", pc["assignment.lsa"], "count")
    run.add("assignment.lsa_per_solve", pc["assignment.lsa"] / solve_calls if solve_calls else 0.0, "ratio")
    run.add("assignment.cells", pc["assignment.cells"], "count")
    run.add("metrics.evaluate_s", span("eval", "metrics.evaluate", "s"), "s")
    run.add("metrics.idf1_s", span("eval", "metrics.idf1", "s"), "s")
    run.add("metrics.id_switches_s", span("eval", "metrics.id_switches", "s"), "s")
    run.add("metrics.id_switches", report.id_switches, "count")
    run.add("metrics.iou_calls", ec["geometry.iou"], "count")
    run.add("metrics.lsa_calls", ec["assignment.lsa"], "count")
    overhead = float(np.median(traced_ms) - np.median(untraced_ms))
    run.add("tracer.overhead_ms", overhead, "ms")

    run.notes += [
        f"rounds: {rounds} (each: one untraced selective pass, one traced pass, one traced evaluate)",
        f"tracing overhead: traced {np.median(traced_ms)} ms - untraced {np.median(untraced_ms)} ms"
        f" frame_ms_p50 = {overhead} ms ({len(traced_ms)} and {len(untraced_ms)} frames)",
        f"per-layer times are the fastest of {rounds} traced passes; counts are per pass",
        "frame times: each frame's fastest over the passes of its kind",
        f"spans written to {work_dir.name}/spans.csv",
    ]
    if tr.absent:
        run.notes.append("absent (reported as 0): " + ", ".join(tr.absent))
    return run
