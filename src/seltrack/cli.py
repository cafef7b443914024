"""Batch commands: track a sequence, evaluate, sweep thresholds, make data.

Configuration precedence is flags > config file (key=value lines) > built-in
defaults; the effective configuration is echoed into the stats file so any
run can be reproduced from its outputs alone. Each setting is one field of
`GateConfig` or `MatchConfig`, which gives its default and its value type;
`SETTINGS` maps its config key (its flag is `--` plus the key, `-` for `_`)
to that field. `mode` takes exactly the names in `gating.MODES`, and
`ars_th` = 0 turns the aspect-ratio check off.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from seltrack import io as mot_io
from seltrack import metrics, synth
from seltrack.gating import MODE_ALWAYS_EXTRACT, MODE_SELECTIVE, MODES, GateConfig
from seltrack.tracker import EMITS, STRATEGIES, MatchConfig, NullFeatureProvider, RunStats, run_sequence

# config key -> (config class, field name, flag help)
SETTINGS = {
    "mode": (GateConfig, "mode", "gating mode"),
    "iou_th": (GateConfig, "theta_iou", "candidacy IoU threshold"),
    "ars_th": (GateConfig, "theta_alpha", "blended aspect-ratio threshold, 0 for no aspect check"),
    "match": (MatchConfig, "strategy", "association strategy"),
    "appearance_gate": (MatchConfig, "appearance_gate", "max cosine distance in the appearance stage"),
    "iou_gate": (MatchConfig, "iou_gate", "min IoU for a feasible IoU match"),
    "fused_weight": (MatchConfig, "fused_weight", "appearance weight in fused cost"),
    "conf_high": (MatchConfig, "conf_high", "high-confidence split"),
    "byte": (MatchConfig, "byte_low", "second IoU association of low-confidence detections"),
    "min_hits": (MatchConfig, "min_hits", "matches before confirmation"),
    "max_age": (MatchConfig, "max_age", "misses before deletion"),
    "ema_alpha": (MatchConfig, "ema_alpha", "EMA base weight"),
    "emit": (MatchConfig, "emit", "output box convention"),
}
DEFAULTS = {
    key: next(f.default for f in fields(cls) if f.name == name)
    for key, (cls, name, _) in SETTINGS.items()
}
CHOICES = {"mode": MODES, "match": STRATEGIES, "emit": EMITS}

# the settings that `sweep` sets itself for each row of its table
SWEEP_SETS = ("mode", "iou_th")

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _is_switch(key: str) -> bool:
    """A yes/no setting: `byte`, whose None default defers to the strategy."""
    return DEFAULTS[key] is None


def _parse_value(key: str, text: str):
    if not _is_switch(key):
        return type(DEFAULTS[key])(text)
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"bad boolean {text!r}")
    return _BOOL_WORDS[text.lower()]


def _parse_config_file(path) -> dict:
    out = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
        try:
            out[key] = _parse_value(key, value)
            _build_configs({**DEFAULTS, key: out[key]})  # its range or choice, checked on its line
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return out


def _given_settings(args) -> dict:
    """The settings that the config file and the flags give, flags winning."""
    given = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            given[key] = value
    return given


def _build_configs(cfg: dict) -> tuple[GateConfig, MatchConfig]:
    kwargs = {GateConfig: {}, MatchConfig: {}}
    for key, (cls, name, _) in SETTINGS.items():
        kwargs[cls][name] = cfg[key]
    return GateConfig(**kwargs[GateConfig]), MatchConfig(**kwargs[MatchConfig])


def _config_lines(cfg: dict, match: MatchConfig) -> list[str]:
    resolved = dict(cfg)
    resolved["byte"] = match.byte_low  # post-resolution value
    return [f"config.{key}={resolved[key]}" for key in sorted(resolved)]


def _make_provider(features_path):
    if features_path is None:
        return NullFeatureProvider()
    return mot_io.FeatureFileProvider(features_path)


def _add_tracking_options(p: argparse.ArgumentParser, omit=()):
    """Input flags and one flag per setting, except the settings in `omit`."""
    p.add_argument("--det", required=True, help="detection file (MOT rows)")
    p.add_argument("--features", help="binary feature file; omit for IoU-only tracking")
    p.add_argument("--config", help="key=value config file (flags win over it)")
    for key, (_, _, text) in SETTINGS.items():
        if key in omit:
            continue
        flag, default = "--" + key.replace("_", "-"), DEFAULTS[key]
        if not _is_switch(key):
            p.add_argument(flag, dest=key, type=type(default), choices=CHOICES.get(key),
                           help=f"{text} (default {default})")
            continue
        p.add_argument(flag, dest=key, action="store_true", default=None, help=text)
        p.add_argument("--no-" + flag[2:], dest=key, action="store_false", default=None)


def _stats_lines(stats, cfg, match) -> list[str]:
    return [
        f"pde={metrics.pde_text(metrics.pde(stats), 4)}",
        *(f"{f.name}={getattr(stats, f.name)}" for f in fields(stats)),
        *_config_lines(cfg, match),
    ]


def cmd_track(args) -> int:
    cfg = {**DEFAULTS, **_given_settings(args)}
    gate, match = _build_configs(cfg)
    frames = mot_io.read_detections(args.det)
    output, stats = run_sequence(frames, _make_provider(args.features), gate, match)
    mot_io.write_results(args.out, output)
    stats_path = args.stats or (args.out + ".stats")
    lines = _stats_lines(stats, cfg, match)
    Path(stats_path).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(output.rows)} rows), stats {stats_path}")
    print(*lines[:2])  # pde=... fetches=...
    return 0


def _read_run_counts(path) -> RunStats:
    """A stats file's `fetches` and `high_detections` (0 where absent): integers >= 0, fetches the fewer."""
    kv = dict(line.split("=", 1) for line in Path(path).read_text().splitlines() if "=" in line)
    counts = {}
    for key in ("fetches", "high_detections"):
        text = kv.get(key, "0")
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"{path}: {key} must be an integer >= 0, got {text!r}")
        counts[key] = int(text)
    if counts["fetches"] > counts["high_detections"]:
        raise ValueError(f"{path}: fetches={counts['fetches']} exceeds high_detections={counts['high_detections']}")
    return RunStats(**counts)


def cmd_eval(args) -> int:
    gt = mot_io.read_trajectories(args.gt)
    pred = mot_io.read_trajectories(args.pred)
    gt_frames, pred_frames = gt["frame"], pred["frame"]  # each sorted
    if len(pred_frames) and len(gt_frames):
        if pred_frames[0] < gt_frames[0] or pred_frames[-1] > gt_frames[-1]:
            raise ValueError(
                "prediction frames fall outside the ground-truth frame span; "
                "are these files from the same sequence?"
            )
    elif len(pred_frames):
        raise ValueError("ground truth is empty but predictions are not")
    stats = _read_run_counts(args.stats) if args.stats else None
    report = metrics.evaluate(gt, pred, iou_match=args.iou_match, stats=stats)
    text = "\n".join(report.kv_lines()) if args.format == "kv" else report.table()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_sweep(args) -> int:
    try:
        grid = [float(v) for v in args.iou_th_grid.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"bad --iou-th-grid {args.iou_th_grid!r}") from None
    if not grid:
        raise ValueError("empty --iou-th-grid")
    given = _given_settings(args)
    for key in SWEEP_SETS:  # its parser has no flag for them, but a config file may
        if key in given:
            raise ValueError(
                f"sweep does not take the {key} setting: it runs its always_extract "
                "baseline and selective mode over --iou-th-grid"
            )
    cfg = {**DEFAULTS, **given}
    gt = mot_io.read_trajectories(args.gt)
    frames = mot_io.read_detections(args.det)
    provider = _make_provider(args.features)

    def run_point(mode: str, theta: float):
        gate, match = _build_configs({**cfg, "mode": mode, "iou_th": theta})
        output, stats = run_sequence(frames, provider, gate, match)
        return metrics.evaluate(gt, output.trajectories(), stats=stats)

    rows = [("baseline", run_point(MODE_ALWAYS_EXTRACT, 0.0))]
    for theta in grid:
        rows.append((f"{theta:.2f}", run_point(MODE_SELECTIVE, theta)))

    lines = [f"{'theta_iou':>10} {'pde':>8} {'idf1':>10} {'id_switches':>12}"]
    for label, report in rows:
        lines.append(
            f"{label:>10} {metrics.pde_text(report.pde, 2):>8} {report.idf1:>10.6f} {report.id_switches:>12}"
        )
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_synth(args) -> int:
    given = {"seed": args.seed, "n_targets": args.targets, "frames": args.frames}
    scenario = synth.preset(args.preset, **{k: v for k, v in given.items() if v is not None})
    det, feat, gt = synth.generate_to_dir(scenario, args.out)
    print(f"wrote {det}\nwrote {feat}\nwrote {gt}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seltrack",
        description="Tracking-by-detection with selective feature extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a detection file")
    _add_tracking_options(p_track)
    p_track.add_argument("--out", required=True, help="result file to write")
    p_track.add_argument("--stats", help="stats file (default: <out>.stats)")
    p_track.set_defaults(func=cmd_track, parser=p_track)

    p_eval = sub.add_parser("eval", help="score a result file against ground truth")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--stats", help="stats file to echo PDE from")
    p_eval.add_argument("--iou-match", dest="iou_match", type=float, default=0.5)
    p_eval.add_argument("--format", choices=["table", "kv"], default="table")
    p_eval.add_argument("--out", help="also write the report here")
    p_eval.set_defaults(func=cmd_eval, parser=p_eval)

    # no abbreviations: `--iou-th` would otherwise be taken for `--iou-th-grid`
    p_sweep = sub.add_parser("sweep", help="table of PDE/IDF1 across IoU thresholds",
                             allow_abbrev=False)
    _add_tracking_options(p_sweep, omit=SWEEP_SETS)
    p_sweep.add_argument("--gt", required=True)
    p_sweep.add_argument(
        "--iou-th-grid",
        dest="iou_th_grid",
        default="0.0,0.1,0.2,0.3,0.4,0.5",
        help="comma-separated thresholds (default 0.0..0.5)",
    )
    p_sweep.add_argument("--out", help="also write the table here")
    p_sweep.set_defaults(func=cmd_sweep, parser=p_sweep)

    p_synth = sub.add_parser("synth", help="materialize a synthetic scenario")
    p_synth.add_argument("--preset", required=True)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--targets", type=int, help="target count (parade)")
    p_synth.add_argument("--frames", type=int, help="frame count (parade/grid)")
    p_synth.set_defaults(func=cmd_synth, parser=p_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported by the subcommand's parser, with its usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
