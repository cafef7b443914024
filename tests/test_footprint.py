"""What a run builds and loads: no `BBox` below the public API, scipy only once a matrix conflicts,
and a small heap while a scene is generated.

Each scipy test runs a fresh interpreter, since the test process itself
has long since imported scipy.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import seltrack
from seltrack import metrics
from seltrack.geometry import BBox
from seltrack.io import FeatureFileProvider, read_detections, read_trajectories, write_results
from seltrack.synth import generate_to_dir, preset
from seltrack.tracker import run_sequence

from providers import benchmark_workloads

# the directory this test process imports seltrack from
PACKAGE_ROOT = str(Path(seltrack.__file__).resolve().parents[1])


def run_fresh(code: str, cwd) -> str:
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            capture_output=True, text=True, cwd=cwd, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_commands_on_the_presets_never_load_scipy(tmp_path):
    # with the default (cascade) matching; fused or IoU-only matching on
    # `crossing` meets a conflicting matrix at the occlusion
    out = run_fresh("""
        import sys
        from seltrack.cli import main

        def run(*argv):
            assert main(list(argv)) == 0, argv

        for preset in ("crossing", "parade", "enter_exit", "grid"):
            run("synth", "--preset", preset, "--out", preset)
            inputs = ["--det", preset + "/det.txt", "--features", preset + "/features.feab"]
            gt = preset + "/gt.txt"
            for mode in ("selective", "always_extract"):
                pred = f"{preset}/{mode}.txt"
                run("track", *inputs, "--mode", mode, "--out", pred)
                run("eval", "--gt", gt, "--pred", pred, "--stats", pred + ".stats")
            run("sweep", *inputs, "--gt", gt)
        print("loaded" if "scipy.optimize" in sys.modules else "not loaded")
    """, tmp_path)
    assert out.splitlines()[-1] == "not loaded"


def test_a_conflicting_matrix_loads_scipy_and_keeps_the_tie_break(tmp_path):
    out = run_fresh("""
        import sys
        import numpy as np
        from seltrack.assignment import solve

        assert "scipy.optimize" not in sys.modules
        costs = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [0.25, 0.5, 0.5, 0.25],
            [0.25, 0.5, 0.5, 0.25],
            [0.5, 0.5, 0.5, 0.25],
        ])
        rows, cols = solve(costs, gate=0.5)
        print(list(zip(rows.tolist(), cols.tolist())))
        print("loaded" if "scipy.optimize" in sys.modules else "not loaded")
    """, tmp_path)
    # scipy's own optimum is [(0, 2), (1, 3), (2, 0), (3, 1)], of the same total
    assert out.splitlines() == ["[(0, 1), (1, 0), (2, 2), (3, 3)]", "loaded"]


def test_a_run_from_files_to_metrics_builds_no_bbox(tmp_path, monkeypatch):
    det, feat, gt = generate_to_dir(preset("crossing"), tmp_path)
    checked = []

    def counting(box, real=BBox.__post_init__):
        checked.append(box)
        real(box)

    monkeypatch.setattr(BBox, "__post_init__", counting)
    frames = read_detections(det)
    # iterating the frames, as perfbench does to count high-confidence detections
    detections = [d for f in frames.values() for d in f]
    output, stats = run_sequence(frames, FeatureFileProvider(feat))
    write_results(tmp_path / "pred.txt", output)
    report = metrics.evaluate(read_trajectories(gt), read_trajectories(tmp_path / "pred.txt"), stats=stats)
    assert detections and report.idf1 > 0.9
    assert checked == [] and not any(isinstance(d.box, BBox) for d in detections)
    BBox(0, 0, 1, 1)  # the counter sees a box built
    assert len(checked) == 1


def test_generating_churn_keeps_a_small_heap(tmp_path):
    # the benchmark generates each workload in the process whose peak RSS it
    # reports; churn's features have 128 dimensions, so drawing the whole
    # scene's noise at once would hold about 20 MB of temporaries
    workloads = benchmark_workloads()
    tracemalloc.start()
    try:
        workloads.generate("churn", 1, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
