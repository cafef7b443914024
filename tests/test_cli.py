import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import seltrack
from seltrack.cli import DEFAULTS, SETTINGS, SWEEP_SETS, _stats_lines, build_parser, main
from seltrack.gating import GateConfig
from seltrack.io import read_trajectories
from seltrack.tracker import MatchConfig, RunStats


@pytest.fixture(scope="module")
def crossing_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "crossing"
    assert main(["synth", "--preset", "crossing", "--out", str(out)]) == 0
    return out


def run_track(tmp_path, crossing_dir, *extra):
    out = tmp_path / "result.txt"
    code = main(
        [
            "track",
            "--det", str(crossing_dir / "det.txt"),
            "--features", str(crossing_dir / "features.feab"),
            "--out", str(out),
            *extra,
        ]
    )
    assert code == 0
    return out, out.with_suffix(".txt.stats")


class TestTrack:
    def test_writes_results_and_stats(self, tmp_path, crossing_dir, capsys):
        out, stats = run_track(
            tmp_path, crossing_dir,
            "--mode", "selective", "--iou-th", "0.2", "--ars-th", "0.6",
            "--match", "cascade",
        )
        assert out.exists() and stats.exists()
        kv = dict(
            line.split("=", 1) for line in stats.read_text().splitlines() if "=" in line
        )
        assert list(kv)[:4] == ["pde", "fetches", "batches", "late_fetches"]
        assert "detections" in kv
        assert kv["config.mode"] == "selective"
        assert kv["config.iou_th"] == "0.2"
        assert float(kv["pde"]) < 100.0
        assert len(read_trajectories(out))

    def test_always_mode_reports_full_pde(self, tmp_path, crossing_dir):
        _, stats = run_track(tmp_path, crossing_dir, "--mode", "always_extract")
        kv = dict(line.split("=", 1) for line in stats.read_text().splitlines())
        assert kv["config.mode"] == "always_extract"
        assert float(kv["pde"]) == 100.0
        # every high detection is fetched in its frame's one gate batch, none late
        assert 0 < int(kv["batches"]) <= int(kv["frames"]) and kv["late_fetches"] == "0"

    @pytest.mark.parametrize("flags", [["--mode", "always"], ["--mode", "base"], ["--no-ars"]])
    def test_removed_spellings_are_usage_errors(self, crossing_dir, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--det", str(crossing_dir / "det.txt"), "--out", "r.txt", *flags])
        assert exc.value.code == 2
        assert flags[-1] in capsys.readouterr().err

    def test_missing_det_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--out", "r.txt"])
        assert exc.value.code == 2

    def test_unreadable_det_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["track", "--det", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_without_features_runs_iou_only(self, tmp_path, crossing_dir):
        out = tmp_path / "r.txt"
        code = main(
            ["track", "--det", str(crossing_dir / "det.txt"), "--out", str(out)]
        )
        assert code == 0
        kv = dict(
            line.split("=", 1)
            for line in (tmp_path / "r.txt.stats").read_text().splitlines()
        )
        assert kv["pde"] != "n/a"  # fetches attempted, provider just has nothing

    def test_config_file_precedence(self, tmp_path, crossing_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iou_th=0.5\nmax_age=7\nbyte=yes\n")
        _, stats = run_track(
            tmp_path, crossing_dir, "--config", str(cfg), "--iou-th", "0.3"
        )
        kv = dict(line.split("=", 1) for line in stats.read_text().splitlines())
        assert kv["config.iou_th"] == "0.3"  # flag wins
        assert kv["config.max_age"] == "7"  # file beats default
        assert kv["config.byte"] == "True"  # a switch, read as a word

    def test_bad_config_key_fails(self, tmp_path, crossing_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed=9\n")
        out = tmp_path / "r.txt"
        code = main(
            [
                "track",
                "--det", str(crossing_dir / "det.txt"),
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        *((line, "") for line in ["ema_alpha=abc", "min_hits=2.0", "byte=maybe", "iou_th=1.5", "match=fuse",
                                  "mode=sometimes", "mode=always", "ars=no"]),
        ("byte", "expected key=value, got 'byte'"),
    ])
    def test_bad_config_value_names_file_and_line(self, tmp_path, crossing_dir, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n{line}\n")
        code = main(
            ["track", "--det", str(crossing_dir / "det.txt"), "--config", str(cfg),
             "--out", str(tmp_path / "r.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {message}")


class TestSettingsTable:
    def test_every_config_field_has_exactly_one_key(self):
        keys_of = {}
        for key, (cls, name, _) in SETTINGS.items():
            keys_of.setdefault((cls, name), []).append(key)
        every = {(cls, f.name) for cls in (GateConfig, MatchConfig) for f in fields(cls)}
        assert set(keys_of) == every
        assert all(len(keys) == 1 for keys in keys_of.values())

    def test_defaults_are_the_field_defaults(self, tmp_path, crossing_dir):
        for key, (cls, name, _) in SETTINGS.items():
            assert DEFAULTS[key] == {f.name: f.default for f in fields(cls)}[name]
        # and a run without flags echoes them, `byte` resolved by the strategy
        _, stats = run_track(tmp_path, crossing_dir)
        kv = dict(line.split("=", 1) for line in stats.read_text().splitlines())
        for key, default in DEFAULTS.items():
            want = str(MatchConfig().byte_low) if key == "byte" else str(default)
            assert kv[f"config.{key}"] == want

    def test_value_flag_help_ends_with_its_default(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        for command, keys in (("track", SETTINGS), ("sweep", SETTINGS.keys() - SWEEP_SETS)):
            actions = {a.dest: a for a in sub.choices[command]._actions}
            assert actions.keys() & SETTINGS.keys() == set(keys)
            for key in keys:
                default = DEFAULTS[key]
                action = actions[key]
                assert action.option_strings[0].endswith(key.replace("_", "-"))
                if default is None:
                    assert "(default" not in (action.help or "")
                else:
                    assert action.help.endswith(f" (default {default})")
                    assert action.type is type(default)


class TestEval:
    def test_perfect_run_scores_one(self, tmp_path, crossing_dir, capsys):
        out, stats = run_track(tmp_path, crossing_dir)
        capsys.readouterr()  # drop the track command's chatter
        code = main(
            [
                "eval",
                "--gt", str(crossing_dir / "gt.txt"),
                "--pred", str(out),
                "--stats", str(stats),
                "--format", "kv",
            ]
        )
        assert code == 0
        kv = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert kv["idf1"] == "1.000000"
        assert kv["id_switches"] == "0"
        assert kv["pde"] != "n/a"

    def test_stats_pde_is_rounded_once(self, tmp_path, crossing_dir, capsys):
        # 1 fetch of 741 is 0.13495 %: the stats file holds 0.1350, which rounded again reads 0.14
        stats = tmp_path / "r.stats"
        stats.write_text("\n".join(_stats_lines(RunStats(fetches=1, high_detections=741), DEFAULTS, MatchConfig())))
        gt = str(crossing_dir / "gt.txt")
        for fmt, line in [("table", f"{'PDE (%)':<14}{'0.13':>10}"), ("kv", "pde=0.1350")]:
            assert main(["eval", "--gt", gt, "--pred", gt, "--stats", str(stats), "--format", fmt]) == 0
            assert line in capsys.readouterr().out.splitlines()

    def test_kv_keys_mean_what_the_stats_file_means(self, tmp_path, crossing_dir, capsys):
        # 4 detections, 2 of them high-confidence: eval must not print the 2 as `detections`
        stats = tmp_path / "r.stats"
        lines = _stats_lines(RunStats(fetches=1, detections=4, high_detections=2), DEFAULTS, MatchConfig())
        stats.write_text("\n".join(lines) + "\n")
        gt = str(crossing_dir / "gt.txt")
        assert main(["eval", "--gt", gt, "--pred", gt, "--stats", str(stats), "--format", "kv"]) == 0
        kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        written = dict(line.split("=", 1) for line in lines)
        assert kv["high_detections"] == "2"
        shared = kv.keys() & written
        assert {key: kv[key] for key in shared} == {key: written[key] for key in shared}

    def test_table_format(self, tmp_path, crossing_dir, capsys):
        out, _ = run_track(tmp_path, crossing_dir)
        capsys.readouterr()
        report = tmp_path / "report.txt"
        code = main(["eval", "--gt", str(crossing_dir / "gt.txt"), "--pred", str(out), "--out", str(report)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "IDF1" in printed and report.read_text() == printed  # --out writes what it prints

    @pytest.mark.parametrize("iou_match", ["1.5", "nan", "-0.5"])
    def test_iou_match_outside_zero_one_fails(self, crossing_dir, capsys, iou_match):
        gt = str(crossing_dir / "gt.txt")
        code = main(["eval", "--gt", gt, "--pred", gt, "--iou-match", iou_match])
        assert code == 1
        assert "iou_match must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("fetches=1\nhigh_detections=-5", "high_detections"),  # read as PDE -20
        ("fetches=10\nhigh_detections=5", "fetches"),  # read as PDE 200
        ("fetches=abc\nhigh_detections=5", "fetches"),
        ("fetches=1.0\nhigh_detections=5", "fetches"),
        ("high_detections=50", "fetches"),  # read as PDE 0
        ("fetches=0", "high_detections"),
    ])
    def test_stats_counts_that_give_no_pde_in_0_100_fail(self, tmp_path, crossing_dir, capsys, text, key):
        stats = tmp_path / "r.stats"
        stats.write_text(text + "\n")
        gt = str(crossing_dir / "gt.txt")
        assert main(["eval", "--gt", gt, "--pred", gt, "--stats", str(stats)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {stats}: {key}")

    @pytest.mark.parametrize("gt_text, message", [
        (None, "error: prediction frames fall outside the ground-truth frame span"),
        ("", "error: ground truth is empty but predictions are not"),
    ])
    def test_mismatched_frame_domain_fails(self, tmp_path, crossing_dir, capsys, gt_text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text("999,1,10,10,5,5,1,-1,-1,-1\n")
        gt = crossing_dir / "gt.txt"
        if gt_text is not None:
            gt = tmp_path / "gt.txt"
            gt.write_text(gt_text)
        code = main(["eval", "--gt", str(gt), "--pred", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)


class TestSweep:
    def test_table_shape_and_determinism(self, tmp_path, crossing_dir, capsys):
        argv = [
            "sweep",
            "--det", str(crossing_dir / "det.txt"),
            "--features", str(crossing_dir / "features.feab"),
            "--gt", str(crossing_dir / "gt.txt"),
            "--iou-th-grid", "0.0,0.2,0.4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().splitlines()
        assert len(lines) == 1 + 1 + 3  # header + baseline + grid rows
        assert lines[1].split()[0] == "baseline"
        assert [l.split()[0] for l in lines[2:]] == ["0.00", "0.20", "0.40"]
        header = lines[0].split()
        assert header == ["theta_iou", "pde", "idf1", "id_switches"]

    @pytest.mark.parametrize("flags, key", [
        (["--mode", "base_gate"], "mode"),
        (["--iou-th", "0.3"], "iou_th"),
        (["--mode", "selective", "--iou-th", "0.3"], "mode"),
    ])
    def test_refuses_a_flag_it_sets_itself(self, crossing_dir, capsys, flags, key):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--det", str(crossing_dir / "det.txt"),
                  "--gt", str(crossing_dir / "gt.txt"), *flags])
        assert exc.value.code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --" + key.replace("_", "-") in captured.err

    @pytest.mark.parametrize("line, key", [("mode=base_gate", "mode"), ("iou_th=0.3", "iou_th")])
    def test_refuses_a_config_key_it_sets_itself(self, tmp_path, crossing_dir, capsys, line, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"ema_alpha=0.8\n{line}\n")
        code = main(["sweep", "--det", str(crossing_dir / "det.txt"),
                     "--gt", str(crossing_dir / "gt.txt"), "--config", str(cfg)])
        assert code == 1
        assert f"the {key} setting" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [("a,b", "bad --iou-th-grid 'a,b'"), (",", "empty --iou-th-grid")])
    def test_bad_grid_fails(self, tmp_path, crossing_dir, capsys, grid, message):
        code = main(
            [
                "sweep",
                "--det", str(crossing_dir / "det.txt"),
                "--gt", str(crossing_dir / "gt.txt"),
                "--iou-th-grid", grid,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSynth:
    def test_writes_three_files(self, tmp_path):
        out = tmp_path / "scene"
        assert main(["synth", "--preset", "parade", "--out", str(out)]) == 0
        assert (out / "det.txt").exists()
        assert (out / "features.feab").exists()
        assert (out / "gt.txt").exists()
        assert len(read_trajectories(out / "gt.txt"))

    def test_unknown_preset_lists_options(self, tmp_path, capsys):
        code = main(["synth", "--preset", "wat", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "crossing" in err and "parade" in err

    def test_seed_repeatability(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--preset", "parade", "--seed", "7", "--out", str(a)])
        main(["synth", "--preset", "parade", "--seed", "7", "--out", str(b)])
        for name in ("det.txt", "features.feab", "gt.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_size_flags_name_the_presets_that_take_them(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
        assert "--targets TARGETS target count (parade, receding)" in lines
        assert "--frames FRAMES frame count (parade, grid, receding)" in lines

    def test_flag_the_preset_does_not_take_fails(self, tmp_path, capsys):
        code = main(
            ["synth", "--preset", "grid", "--targets", "3", "--frames", "20", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "n_targets" in capsys.readouterr().err

    def test_parameterized_parade(self, tmp_path):
        out = tmp_path / "mini"
        assert main(
            ["synth", "--preset", "parade", "--targets", "3", "--frames", "20", "--out", str(out)]
        ) == 0
        assert len(set(read_trajectories(out / "gt.txt")["id"].tolist())) == 3


class TestUnknownFlags:
    """An unknown flag is reported with the usage of the subcommand it was given to."""

    @pytest.mark.parametrize("argv", [
        ["track", "--det", "d.txt", "--out", "r.txt", "--bogus", "1"],
        ["eval", "--gt", "g.txt", "--pred", "p.txt", "--bogus", "1"],
        ["sweep", "--det", "d.txt", "--gt", "g.txt", "--iou-th", "0.3"],
        ["synth", "--preset", "grid", "--out", "o", "--bogus", "1"],
    ], ids=lambda argv: argv[0])
    def test_usage_is_the_subcommand_s(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: seltrack {argv[0]} ")
        assert captured.err.rstrip().endswith(f"seltrack {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}")


def readme_commands() -> list[str]:
    """Each `seltrack ...` command of README's bash blocks, its `\\` continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = (line.strip() for block in re.findall(r"```bash\n(.*?)```", text, re.S)
             for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("seltrack ")]


class TestReadme:
    def test_finds_the_commands(self):
        assert len(readme_commands()) >= 10

    @pytest.mark.parametrize("command", readme_commands())
    def test_command_parses(self, command):
        build_parser().parse_args(shlex.split(command, comments=True)[1:])


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        # the subprocess imports the package this suite imported, from wherever it came
        src = str(Path(seltrack.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "seltrack.cli", "synth", "--preset", "grid",
             "--out", str(tmp_path / "g")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
