"""Acceptance suite: every release criterion, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criterion 12 needs real MOT17 files supplied via environment
variables (see README) and is skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from seltrack import cli, metrics
from seltrack.assignment import solve
from seltrack.gating import GateConfig, MODE_ALWAYS_EXTRACT, MODE_SELECTIVE, candidates
from seltrack.geometry import BBox, iou_matrix
from seltrack.io import (
    FeatureFileProvider,
    read_detections,
    read_trajectories,
    write_features,
    write_results,
)
from seltrack.synth import PRESETS, generate_to_dir, preset
from seltrack.tracker import MatchConfig, NullFeatureProvider, SelectiveTracker, TrackOutput, run_sequence

from oracles import (
    assignment_oracle,
    candidates_of,
    candidates_oracle,
    idtp_oracle,
    iou_reference,
    normalized,
    reference_read_features,
)
from providers import DictProvider, frame, table, xywh


def report(criterion: int, text: str):
    print(f"[acceptance] C{criterion:02d} PASS — {text}")


@pytest.fixture(scope="module")
def preset_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("presets")
    out = {}
    for name in sorted(PRESETS):
        out[name] = generate_to_dir(preset(name), root / name)
    return out


def test_c01_gate_off_equivalence(preset_dirs, tmp_path):
    started = time.perf_counter()
    for name, (det_path, feat_path, _) in preset_dirs.items():
        frames = read_detections(det_path)
        always, stats_a = run_sequence(
            frames, FeatureFileProvider(feat_path), GateConfig(mode=MODE_ALWAYS_EXTRACT)
        )
        # no IoU is above 1.0, so every detection is risky, whatever the aspect check says
        gated, stats_g = run_sequence(
            frames,
            FeatureFileProvider(feat_path),
            GateConfig(mode=MODE_SELECTIVE, theta_iou=1.0),
        )
        assert always.rows == gated.rows, name
        assert stats_a.fetches == stats_g.fetches, name
        assert metrics.pde(stats_a) == metrics.pde(stats_g) == 100.0, name
        a_path = tmp_path / f"{name}_always.txt"
        g_path = tmp_path / f"{name}_gated.txt"
        write_results(a_path, always)
        write_results(g_path, gated)
        assert a_path.read_bytes() == g_path.read_bytes(), name
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"always == selective@1.0 in rows, files, fetches and PDE 100 on all presets ({elapsed:.2f}s)")


def test_c02_feature_decay_law():
    rng = np.random.default_rng(21)
    box = BBox(100, 100, 20, 40)
    checked = 0
    for _ in range(1000):  # each a tracker run through up to 100 frames
        alpha = float(rng.uniform(0.05, 0.99))
        dim = int(rng.integers(2, 9))
        features = {}
        tracker = SelectiveTracker(DictProvider(features), GateConfig(mode=MODE_ALWAYS_EXTRACT), MatchConfig(ema_alpha=alpha))
        f = 0
        for _ in range(int(rng.integers(1, 6)) + 1):  # the first feature seeds the track
            k = int(rng.integers(0, 21)) if f else 0
            for _ in range(k):
                f += 1
                tracker.step(f, frame(f, []))
            if f:
                # the weight the next update will put on the old average
                assert abs(tracker.table.effective_alpha[0] - alpha ** (k + 1)) <= 1e-9
                checked += 1
            f += 1
            features[(f, 0)] = normalized(rng.normal(size=dim))
            tracker.step(f, frame(f, [box]))
            assert tracker.table.effective_alpha.tolist() == [alpha]
    report(2, f"blend weight == alpha^(k+1) within 1e-9 across {checked} updates")


def test_c03_ars_iou_floor():
    rng = np.random.default_rng(33)
    cfg = GateConfig(theta_iou=0.0, theta_alpha=0.6)
    dets, tracks = [], []
    while len(dets) < 100_000:
        n = 20_000
        xs = rng.uniform(0, 150, size=(n, 2, 2))
        sizes = rng.uniform(1, 80, size=(n, 2, 2))
        for i in range(n):
            if len(dets) >= 100_000:
                break
            a = BBox(xs[i, 0, 0], xs[i, 0, 1], sizes[i, 0, 0], sizes[i, 0, 1])
            b = BBox(xs[i, 1, 0], xs[i, 1, 1], sizes[i, 1, 0], sizes[i, 1, 1])
            if iou_reference(a, b) > 0.2:
                continue
            dets.append(a)
            tracks.append(b)
    # pair k is detection k against track k alone: at theta_iou = 0 a zero
    # IoU is no candidate, so in a diagonal IoU matrix each detection's only
    # possible candidate is its own track, as in a separate 1 x 1 call
    block = 100
    for start in range(0, len(dets), block):
        d, t = xywh(dets[start:start + block]), xywh(tracks[start:start + block])
        cand = candidates(np.diag(np.diag(iou_matrix(t, d))), d, t, cfg)
        for c, a, b in zip(cand.tolist(), d, t):
            assert c == -1, (a, b)
    report(3, f"{len(dets)} low-overlap pairs all classified risky at theta_alpha=0.6")


def test_c04_gating_matches_bruteforce_oracle():
    rng = np.random.default_rng(44)

    def boxes(n):
        return [
            BBox(rng.uniform(0, 300), rng.uniform(0, 300), rng.uniform(1, 90), rng.uniform(1, 90))
            for _ in range(n)
        ]

    for _ in range(1000):
        dets = boxes(int(rng.integers(0, 31)))
        tracks = boxes(int(rng.integers(0, 31)))
        # theta_alpha 0, no aspect check, in about half the frames
        cfg = GateConfig(
            theta_iou=float(rng.uniform(0, 0.95)),
            theta_alpha=float(rng.uniform(0, 1) * rng.integers(0, 2)),
        )
        assert np.array_equal(candidates_of(dets, tracks, cfg), candidates_oracle(dets, tracks, cfg))
    report(4, "candidates == candidate-enumeration oracle on 1000 random frames")


def test_c05_assignment_optimality_and_tiebreak():
    rng = np.random.default_rng(55)
    for _ in range(500):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        # dyadic grid values keep float sums exact for the equality checks
        costs = rng.integers(0, 65, size=(n, m)).astype(float) / 16.0
        costs[rng.random(size=(n, m)) < 0.15] = np.inf
        gate = float(rng.integers(0, 65)) / 16.0
        got = list(zip(*(a.tolist() for a in solve(costs, gate))))
        again = list(zip(*(a.tolist() for a in solve(costs, gate))))
        assert got == again  # determinism
        card, cost, lex = assignment_oracle(costs, gate)
        assert len(got) == card
        assert sum(costs[r, c] for r, c in got) == cost
        assert got == lex  # lowest-row, lowest-col tie-break
    # small matrices on five cost levels and gate 1.0: equal-cost optima are
    # common, so the tie-break decides the matching
    for _ in range(2000):
        costs = rng.integers(0, 5, size=rng.integers(2, 5, size=2)) / 4.0
        got = list(zip(*(a.tolist() for a in solve(costs, 1.0))))
        assert got == assignment_oracle(costs, 1.0)[2], costs
    report(5, "500 random and 2000 tie-heavy matrices: exact optimum and lexicographic tie-break")


def test_c06_occlusion_scenario(preset_dirs):
    started = time.perf_counter()
    det_path, feat_path, gt_path = preset_dirs["crossing"]
    frames = read_detections(det_path)
    gt = read_trajectories(gt_path)

    selective, stats = run_sequence(frames, FeatureFileProvider(feat_path), GateConfig())
    rep = metrics.evaluate(gt, selective.trajectories(), stats=stats)
    assert rep.idf1 == 1.0
    assert rep.id_switches == 0
    assert stats.fetches < stats.high_detections

    iou_only, _ = run_sequence(frames, NullFeatureProvider(), GateConfig())
    rep_iou = metrics.evaluate(gt, iou_only.trajectories())
    assert rep_iou.idf1 < 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report(
        6,
        f"crossing: selective IDF1=1.0/0 switches, IoU-only IDF1={rep_iou.idf1:.3f} ({elapsed:.2f}s)",
    )


def test_c07_parade_savings_with_parity(preset_dirs, tmp_path):
    det_path, feat_path, _ = preset_dirs["parade"]
    frames = read_detections(det_path)
    selective, stats = run_sequence(
        frames, FeatureFileProvider(feat_path), GateConfig(theta_iou=0.2)
    )
    always, _ = run_sequence(
        frames, FeatureFileProvider(feat_path), GateConfig(mode=MODE_ALWAYS_EXTRACT)
    )
    assert selective.rows == always.rows
    s_path, a_path = tmp_path / "sel.txt", tmp_path / "alw.txt"
    write_results(s_path, selective)
    write_results(a_path, always)
    assert s_path.read_bytes() == a_path.read_bytes()
    value = metrics.pde(stats)
    assert value is not None and value <= 20.0
    report(7, f"parade: PDE {value:.2f}% <= 20% with byte-identical output")


def test_c08_decay_temporal_locality():
    for alpha in (0.5, 0.9, 0.99):
        for k in range(1, 21):
            with_decay = 1.0 - alpha ** (k + 1)
            without = 1.0 - alpha
            assert with_decay > without
    report(8, "new-feature weight strictly larger with decay for all alpha, k")


def test_c09_idf1_matches_bijection_search():
    rng = np.random.default_rng(99)
    for _ in range(200):

        def traj():
            # 10x10 and 6x10 boxes on a 2-px grid in x: two 6-wide boxes 2 px
            # apart overlap at IoU 40/80, exactly the 0.5 that still matches
            out = {}
            for tid in range(1, int(rng.integers(1, 6)) + 1):
                n = int(rng.integers(1, 8))
                frames = rng.choice(range(1, 11), size=n, replace=False)
                out[tid] = {
                    int(f): BBox(
                        float(rng.integers(0, 6) * 2), float(rng.integers(0, 3) * 4), float(rng.choice((6, 10))), 10
                    )
                    for f in frames
                }
            return out

        gt, pred = traj(), traj()
        rep = metrics.evaluate(table(gt), table(pred))
        best = idtp_oracle(gt, pred)
        assert rep.idtp == best
        n_gt = sum(len(t) for t in gt.values())
        n_pred = sum(len(t) for t in pred.values())
        assert rep.idf1 == 2 * best / (n_gt + n_pred)
    report(9, "IDF1 == brute-force bijection optimum on 200 random instances")


def test_c10_io_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    for case in range(500):
        # feature file: bitwise
        dim = int(rng.integers(2, 17))
        n = int(rng.integers(0, 7))
        keys = set()
        records = []
        while len(records) < n:
            key = (int(rng.integers(1, 50)), int(rng.integers(0, 10)))
            if key in keys:
                continue
            keys.add(key)
            v = rng.normal(size=dim)
            v32 = (v / np.linalg.norm(v)).astype(np.float32)
            records.append((*key, v32))
        fp = tmp_path / "f.feab"
        write_features(fp, records)
        back = reference_read_features(fp)
        assert set(back) == keys
        for f, i, v in records:
            assert back[(f, i)].tobytes() == v.tobytes()

        # result file: write -> read -> write is byte-stable (6-decimal exact)
        rows = []
        used = set()
        for _ in range(int(rng.integers(0, 8))):
            key = (int(rng.integers(1, 30)), int(rng.integers(1, 9)))
            if key in used:
                continue
            used.add(key)
            rows.append(
                (
                    key[0],
                    key[1],
                    (
                        round(float(rng.uniform(-500, 500)), 6),
                        round(float(rng.uniform(-500, 500)), 6),
                        round(float(rng.uniform(0.5, 300)), 6),
                        round(float(rng.uniform(0.5, 300)), 6),
                    ),
                )
            )
        rp1, rp2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        write_results(rp1, TrackOutput(rows=rows))
        parsed = read_trajectories(rp1)
        write_results(
            rp2, TrackOutput(rows=list(zip(parsed["frame"].tolist(), parsed["id"].tolist(), parsed["xywh"].tolist())))
        )
        assert rp1.read_bytes() == rp2.read_bytes()

        # detection file: parse recovers the written values exactly
        dp = tmp_path / "d.txt"
        lines = []
        det_vals = []
        for j in range(int(rng.integers(0, 6))):
            frame = int(rng.integers(1, 10))
            x = round(float(rng.uniform(0, 500)), 6)
            y = round(float(rng.uniform(0, 500)), 6)
            w = round(float(rng.uniform(0.5, 100)), 6)
            h = round(float(rng.uniform(0.5, 100)), 6)
            conf = round(float(rng.uniform(0, 1)), 6)
            det_vals.append((frame, x, y, w, h, conf))
            lines.append(f"{frame},-1,{x:.6f},{y:.6f},{w:.6f},{h:.6f},{conf:.6f},-1,-1,-1\n")
        dp.write_text("".join(lines))
        groups = read_detections(dp)
        flat = [d for f in sorted(groups) for d in groups[f]]
        by_frame = sorted(det_vals, key=lambda v: v[0])
        assert len(flat) == len(det_vals)
        for d, (frame, x, y, w, h, conf) in zip(flat, by_frame):
            assert d.frame == frame
            assert d.box == (x, y, w, h)
            assert d.confidence == conf
    report(10, "500 randomized feature/result/detection round-trips exact")


def test_c11_sweep_report_shape_and_determinism(preset_dirs, tmp_path, capsys):
    det_path, feat_path, gt_path = preset_dirs["enter_exit"]
    argv = [
        "sweep",
        "--det", str(det_path),
        "--features", str(feat_path),
        "--gt", str(gt_path),
        "--iou-th-grid", "0.0,0.1,0.2,0.3,0.4,0.5",
    ]
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].split() == ["theta_iou", "pde", "idf1", "id_switches"]
    assert len(lines) == 1 + 1 + 6  # header, baseline, six thresholds
    assert lines[1].split()[0] == "baseline"
    assert lines[1].split()[1] == "100.00"
    report(11, "sweep table: baseline + 6 rows, byte-identical across runs")


REAL_DET = os.environ.get("SELTRACK_MOT17_DET")
REAL_FEATURES = os.environ.get("SELTRACK_MOT17_FEATURES")


@pytest.mark.skipif(
    not (REAL_DET and REAL_FEATURES),
    reason="real-data path: set SELTRACK_MOT17_DET and SELTRACK_MOT17_FEATURES",
)
def test_c12_real_data_pde_band():
    frames = read_detections(REAL_DET)
    _, stats = run_sequence(
        frames, FeatureFileProvider(REAL_FEATURES), GateConfig(theta_iou=0.2)
    )
    value = metrics.pde(stats)
    assert value is not None and 35.0 <= value <= 55.0
    report(12, f"MOT17 selective@0.2 PDE {value:.2f}% within the 35-55% band")
