import contextlib
import gzip
import struct
import tracemalloc
import urllib.request
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from seltrack import io as mot_io
from seltrack.io import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    FeatureFileProvider,
    read_detections,
    read_trajectories,
    write_features,
    write_results,
)
from seltrack.metrics import evaluate
from seltrack.synth import generate_to_dir, preset
from seltrack.tracker import EMIT_DETECTION, TRAJECTORY, MatchConfig, TrackOutput, run_sequence

from oracles import reference_read_features


class TestReadDetections:
    def test_single_row(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        frames = read_detections(p)
        assert list(frames) == [1]
        (d,) = frames[1]
        assert d.box == (10.0, 20.0, 30.0, 40.0)
        assert d.confidence == 0.9
        assert d.index == 0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert read_detections(p) == {}

    def test_zero_width_names_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,0,40,0.9,-1,-1,-1\n")
        with pytest.raises(ValueError, match="line 1"):
            read_detections(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n1,-1,oops,20,30,40,0.9,-1,-1,-1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_detections(p)

    def test_confidence_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,1.5,-1,-1,-1\n")
        with pytest.raises(ValueError, match="line 1"):
            read_detections(p)

    def test_integer_field_error_names_line_once(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1.5,-1,10,20,30,40,0.9,-1,-1,-1\n")
        with pytest.raises(ValueError, match=r"^line 1: frame must be an integer"):
            read_detections(p)

    def test_per_frame_index_follows_file_order(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text(
            "2,-1,1,1,5,5,0.9,-1,-1,-1\n"
            "1,-1,2,2,5,5,0.8,-1,-1,-1\n"
            "2,-1,3,3,5,5,0.7,-1,-1,-1\n"
        )
        frames = read_detections(p)
        assert [(d.index, d.box[0]) for d in frames[2]] == [(0, 1.0), (1, 3.0)]
        assert list(frames) == [1, 2]
        assert frames[1].xywh.base is frames[2].xywh.base  # views of one array of the file


def rows_of(table) -> list:
    """A trajectory table's (frame, id, [x, y, w, h]) rows, as Python ints and floats."""
    return list(zip(table["frame"].tolist(), table["id"].tolist(), table["xywh"].tolist()))


class TestTrajectories:
    def test_gt_round_shape(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("2,5,1,0,10,10,1,1,1,0.8\n1,5,0,0,10,10,1,-1,-1,-1\n")
        t = read_trajectories(p)
        assert t.dtype == TRAJECTORY
        assert rows_of(t) == [(1, 5, [0.0, 0.0, 10.0, 10.0]), (2, 5, [1.0, 0.0, 10.0, 10.0])]

    @pytest.mark.parametrize("line_parser_only", [False, True], ids=["file", "line parser"])
    def test_ids_in_decreasing_order_read_as_the_sorted_file(self, line_parser_only, tmp_path):
        # in frame 2 predictions 2 and 1 tie for the one ground-truth box; the
        # solve breaks the tie by column order, so only a table sorted by id
        # within its frame keeps prediction 1 matched
        paths = [tmp_path / name for name in ("gt.txt", "listed.txt", "sorted.txt")]
        paths[0].write_text("1,1,0,0,10,10,1\n2,1,0,0,10,10,1\n")
        paths[1].write_text("1,1,0,0,10,10,1\n2,2,0,0,10,10,1\n2,1,0,0,10,10,1\n")
        paths[2].write_text("1,1,0,0,10,10,1\n2,1,0,0,10,10,1\n2,2,0,0,10,10,1\n")
        line_parser = mock.patch.object(mot_io, "_table", return_value=None)
        with line_parser if line_parser_only else contextlib.nullcontext():
            gt, listed, ordered = (read_trajectories(p) for p in paths)
        assert rows_of(listed) == rows_of(ordered)
        assert evaluate(gt, listed).id_switches == evaluate(gt, ordered).id_switches == 0

    def test_rejects_non_positive_id(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,-1,0,0,10,10,1,-1,-1,-1\n")
        with pytest.raises(ValueError, match="id"):
            read_trajectories(p)

    def test_rejects_duplicate_id_frame(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,5,0,0,10,10,1\n1,5,9,9,10,10,1\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_trajectories(p)

    @pytest.mark.parametrize("reader", [read_trajectories, read_detections])
    def test_non_finite_box_names_line(self, reader, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,1\n2,1,inf,10,5,5,1\n")
        with pytest.raises(ValueError, match=r"^line 2: non-finite bbox field x=inf"):
            reader(p)

    @pytest.mark.parametrize("rows, message, reader", [
        ("1,5,0,0,10,10,1\n\n1,5,9,9,10,10,1\n", r"^line 3: duplicate", read_trajectories),
        ("1,5,0,0,10,10,1\n\n\n1,0,9,9,10,10,1\n", r"^line 4: trajectory id", read_trajectories),
        ("1,5,0,0,10,10,1\n  \n\t\n1,5,9,9,10,10,1\n", r"^line 4: duplicate", read_trajectories),
        ("1,-1,0,0,10,10,0.9\n\n1,-1,9,9,10,10,1.5\n", r"^line 3: confidence out of range", read_detections),
        # whitespace-only lines, which loadtxt refuses, then a CRLF blank line
        ("1,-1,0,0,10,10,0.9\n \n\x0c\n\r\n1,-1,9,9,0,10,0.9\n", r"^line 5: non-positive bbox size", read_detections),
    ])
    def test_errors_name_the_file_line_after_blank_lines(self, rows, message, reader, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(rows.encode("utf-8"))
        with pytest.raises(ValueError, match=message):
            reader(p)

    @pytest.mark.parametrize("reader", [read_trajectories, read_detections])
    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_field_names_line_and_field(self, bad, field, reader, tmp_path):
        row = dict(x="0", y="0", w="5", h="5")
        row[field] = bad
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,1\n2,1,{x},{y},{w},{h},1\n".format(**row))
        value = float(bad)
        with pytest.raises(ValueError, match=rf"^line 2: non-finite bbox field {field}={value!r}$"):
            reader(p)

    def test_frames_of_2_53_and_beyond_are_not_merged(self, tmp_path):
        # as floats both frames are 2**53, so they would read as one frame
        p = tmp_path / "det.txt"
        p.write_text("9007199254740993,-1,1,1,5,5,0.9\n9007199254740992,-1,1,1,5,5,0.9\n")
        assert mot_io._table(p, detections=True) is None  # the line parser refuses the file
        with pytest.raises(ValueError, match=r"^line 1: frame must be below 2\*\*52 in magnitude"):
            read_detections(p)

    @pytest.mark.parametrize("reader", [read_trajectories, read_detections])
    @pytest.mark.parametrize("spelling, value", [
        ("4503599627370495", 2**52 - 1),  # the largest either parser takes
        ("4503599627370496", None),
        ("4503599627370496.5", None),  # from 2**52 on `float` rounds a fraction to an integer
        ("9007199254740990.9", None),
        ("9007199254740993", None),  # `float` would round it to 2**53
        ("1e20", None),
        ("9223372036854775808", None),  # int64 would wrap here
        ("18446744073709551617", None),
    ])
    def test_frame_and_id_read_exactly_below_2_52(self, spelling, value, reader, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text(f"{spelling},{spelling},1,1,5,5,0.9\n")
        if value is None:
            with pytest.raises(ValueError, match=r"^line 1: frame must be below 2\*\*52 in magnitude"):
                reader(p)
            return
        got = reader(p)
        if reader is read_detections:
            (frame,) = got
            (d,) = got[frame]
            assert (type(frame), frame, d.frame) == (int, value, value)
        else:
            ((frame, track_id, _),) = rows_of(got)
            assert (type(track_id), track_id, type(frame), frame) == (int, value, int, value)

    @pytest.mark.parametrize("reader", [read_trajectories, read_detections])
    @pytest.mark.parametrize("line_parser_only", [False, True], ids=["file", "line parser"])
    @pytest.mark.parametrize("row, message", [
        # `float` rounds each of these fractions to an integer below 2**52
        ("4503599627370494.9,-1,1,1,5,5,0.9", "frame must be an integer, got '4503599627370494.9'"),
        ("1.0000000000000000001,1,1,1,5,5,0.9", "frame must be an integer, got '1.0000000000000000001'"),
        ("1,1.0000000000000000001,1,1,5,5,0.9", "id must be an integer, got '1.0000000000000000001'"),
    ])
    def test_fraction_that_float_rounds_to_an_integer_is_refused(self, row, message, line_parser_only, reader,
                                                                 tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text(row + "\n")
        assert mot_io._table(p, reader is read_detections) is None
        assert read_outcome_text(reader, p, line_parser_only) == f"ValueError: line 1: {message}"

    @pytest.mark.parametrize("reader", [read_trajectories, read_detections])
    @pytest.mark.parametrize("spelling", ["4503599627370496", "9007199254740990.9", "-9007199254740993", "1e300"])
    def test_id_of_2_52_or_more_in_magnitude_is_refused(self, spelling, reader, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text(f"1,1,1,1,5,5,0.9\n2,{spelling},1,1,5,5,0.9\n")
        with pytest.raises(ValueError, match=r"^line 2: id must be below 2\*\*52 in magnitude"):
            reader(p)


# per field: spellings both parsers read alike, then spellings that `float`
# alone reads, that neither reads, or whose value a reader refuses
FIELD_SPELLINGS = {
    "frame": (["1", "2", "3", "4", "5", "6", "7", "2.0", "1e0", "+3", " 2 "],
              ["1.5", "0", "-1", "1_0", "1e20", "9007199254740993", "4503599627370494.9", "1.0000000000000000001",
               "nan", "inf", "", "#2", "\u0663"]),
    "id": (["1", "2", "3", "4", "5", "+2", "2.0", " 1 "],
           ["-1", "0", "-1.5", "1_0", "1e20", "1.0000000000000000001", "nan", "", "x"]),
    "x": (["0", "10.5", "-3.25", "1e1", " 7 ", "+1", "-0", "1e-320"],
          ["inf", "nan", "-inf", "Infinity", "1_0.5", "", "1e400", "1.5 # c"]),
    "w": (["5", "0.25", "1e1", " 3 ", "+2", "1e-320"],
          ["0", "-1", "inf", "nan", "-0", "1_0", "", "1e400"]),
    "conf": (["0.9", "1", "0", "0.5", "+0.3", " 1 ", "-0"],
             ["1.5", "-0.1", "nan", "inf", "1_0", "", "x"]),
}
ROW_FIELDS = ["frame", "id", "x", "x", "w", "w", "conf"]  # y and h are spelled like x and w
ODD_LINES = [b"   ", b"\t", b"\x0c", b"# comment", b"\xff", b",,,,,,", "\ufeff".encode("utf-8")]
FAULTS = ["field", "field", "field", "line", "short", "bom"]
LINE_ENDINGS = [b"\n", b"\r\n", b"\r"]


@st.composite
def mot_files(draw):
    """Bytes of a MOT-style file: clean rows and blank lines with mixed endings, then 0-3 faults.

    A fault is an odd spelling of one field, an odd line, a row cut short or
    a BOM. One fault asks whether the array pass refuses the file or reads
    it as the line parser does; two or more ask which bad line wins.
    """
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(b"")
            continue
        fields = [draw(st.sampled_from(FIELD_SPELLINGS[name][0])) for name in ROW_FIELDS]
        lines.append(fields + ["-1"] * draw(st.integers(0, 3)))  # ragged trailing columns
    bom = b""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3])) if lines else 0):
        n = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "line":
            lines.insert(n, draw(st.sampled_from(ODD_LINES)))
        elif fault == "bom":
            bom = "\ufeff".encode("utf-8")
        elif isinstance(lines[n], list) and fault == "field":
            k = draw(st.integers(0, min(6, len(lines[n]) - 1)))  # the row may be cut short
            lines[n][k] = draw(st.sampled_from(FIELD_SPELLINGS[ROW_FIELDS[k]][1]))
        elif isinstance(lines[n], list):
            del lines[n][draw(st.integers(1, 6)):]
    lines = [line if isinstance(line, bytes) else ",".join(line).encode("utf-8") for line in lines]
    endings = [draw(st.sampled_from(LINE_ENDINGS)) for _ in lines]
    if lines and draw(st.booleans()):
        endings[-1] = b""
    return bom + b"".join(line + end for line, end in zip(lines, endings))


def read_outcome_text(reader, path, line_parser_only=False) -> str:
    """What `reader` returns, floats and types shown exactly, or its error.

    A trajectory table is shown as its dtype and `rows_of`: numpy's repr
    of a record array would round its floats to 8 significant digits.
    """
    try:
        if line_parser_only:
            with mock.patch.object(mot_io, "_table", return_value=None):
                got = reader(path)
        else:
            got = reader(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((got.dtype, rows_of(got))) if isinstance(got, np.ndarray) else repr(got)


class TestArrayPass:
    """The array pass of the text readers against the line parser alone."""

    def test_accepts_clean_rows_in_any_spelling(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_bytes(
            b"\n1,5,10,20,30,40,0.9,-1,-1,-1\r\n"
            b"\r\n +2 , 2 ,1e1,-0,  3  ,4.5,1\n"
            b"01, +3 ,1,1,5,5,0,extra,,#\n"
            b"+1,7,-1e-320,1,1e-320,5,+0.25"
        )
        for reader in (read_detections, read_trajectories):
            assert mot_io._table(p, reader is read_detections) is not None
            assert read_outcome_text(reader, p) == read_outcome_text(reader, p, line_parser_only=True)
        frames = read_detections(p)
        assert [(d.frame, d.index, d.box[0], d.confidence) for d in frames[1]] == [
            (1, 0, 10.0, 0.9), (1, 1, 1.0, 0.0), (1, 2, -1e-320, 0.25)
        ]

    @pytest.mark.parametrize("reader", [read_detections, read_trajectories])
    @pytest.mark.parametrize("frame, track_id", [("1.0", "2"), ("1e0", "2"), ("1", "2.0"), ("1", " 2e0 ")])
    def test_integers_spelled_as_floats_are_left_to_the_line_parser(self, frame, track_id, reader, tmp_path):
        p, plain = tmp_path / "det.txt", tmp_path / "plain.txt"
        p.write_text(f"{frame},{track_id},1,1,5,5,0.9\n")
        plain.write_text("1,2,1,1,5,5,0.9\n")
        assert mot_io._table(p, reader is read_detections) is None
        assert read_outcome_text(reader, p) == read_outcome_text(reader, plain)

    def test_trajectory_confidence_is_not_checked(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,1,0,0,5,5,nan\n2,1,0,0,5,5,-3\n")
        assert mot_io._table(p, detections=False) is not None
        assert rows_of(read_trajectories(p)) == [(1, 1, [0.0, 0.0, 5.0, 5.0]), (2, 1, [0.0, 0.0, 5.0, 5.0])]

    @pytest.mark.parametrize("rows", [
        "1,-1,1,1,5,5,0.9\n   \n",  # whitespace-only lines are blank to the line parser
        "1,-1,1,1,5,5,0.9\n\t\n",
        "1,-1,1,1,5,5,0.9\n\x0c\n",
        "1_0,-1,1,1,5,5,0.9\n",  # `float` reads 10
        "\u0661,-1,1,1,5,5,0.9\n",  # an Arabic-Indic 1
    ])
    def test_lines_only_float_reads_are_left_to_the_line_parser(self, rows, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text(rows)
        assert mot_io._table(p, detections=True) is None
        assert read_outcome_text(read_detections, p).startswith("{")

    def test_bad_byte_after_a_bad_line_names_the_line(self, tmp_path):
        # the line parser decodes as it reads, so it meets line 1 first
        p = tmp_path / "det.txt"
        p.write_bytes(b"1,-1,1,1,0,5,0.9\n" + b"1,-1,1,1,5,5,0.9\n" * 2000 + b"\xff\n")
        with pytest.raises(ValueError, match=r"^line 1: non-positive bbox size"):
            read_detections(p)

    @settings(max_examples=500, deadline=None)
    @given(content=mot_files())
    @pytest.mark.parametrize("reader", [read_detections, read_trajectories])
    def test_same_rows_or_same_error_as_the_line_parser(self, reader, content, tmp_path_factory):
        p = tmp_path_factory.mktemp("mot") / "rows.txt"
        p.write_bytes(content)
        accepted = mot_io._table(p, reader is read_detections) is not None
        event("array pass accepted" if accepted else "left to the line parser")
        assert read_outcome_text(reader, p) == read_outcome_text(reader, p, line_parser_only=True)

    @pytest.mark.parametrize("content, accepted", [
        (b"1,1,1,1,5,5,0.9\r\n2,1,1,1,5,5,0.9\r\n", True),
        (b"1,1,1,1,5,5,0.9\r2,1,1,1,5,5,0.9\r", True),  # lone CRs
        (b"", False),  # loadtxt warns on a file without rows
        (b"\n\r\n", False),
        (b" \n\t\n", False),  # whitespace-only
        ("\ufeff1,1,1,1,5,5,0.9\n".encode("utf-8"), False),
        (b"1,1,1,1,5,5,0.9\n\xff\n", False),  # undecodable
    ], ids=["crlf", "cr", "empty", "blank", "whitespace", "bom", "bad byte"])
    @pytest.mark.parametrize("reader", [read_detections, read_trajectories])
    def test_file_forms_read_as_the_line_parser_reads_them(self, reader, content, accepted, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_bytes(content)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert (mot_io._table(p, reader is read_detections) is not None) == accepted
            assert read_outcome_text(reader, p) == read_outcome_text(reader, p, line_parser_only=True)
        assert [str(w.message) for w in shown] == []

    @pytest.mark.parametrize("name", ["rows.txt.gz", "rows.bz2", "rows.xz", "rows.lzma", "http://host/rows.txt"])
    def test_names_that_numpy_opens_otherwise_are_read_as_named(self, name, tmp_path, monkeypatch):
        # numpy's path opener decompresses by suffix and reads a relative
        # name of URL shape as a URL; either reader reads these files as text
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(urllib.request, "urlopen", mock.Mock(side_effect=AssertionError("network")))
        p = tmp_path / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text("1,-1,1,1,5,5,0.9\n")
        assert read_outcome_text(read_detections, name) == read_outcome_text(read_detections, name, True)
        assert list(read_detections(name)) == [1]

    def test_missing_file_is_not_read_from_its_compressed_sibling(self, tmp_path):
        (tmp_path / "rows.txt.gz").write_bytes(gzip.compress(b"1,-1,1,1,5,5,0.9\n"))
        with pytest.raises(FileNotFoundError):
            read_detections(tmp_path / "rows.txt")


class TestWriteResults:
    def test_single_row_shape(self, tmp_path):
        p = tmp_path / "out.txt"
        write_results(p, TrackOutput(rows=[(3, 7, (1.5, 2.25, 10, 20))]))
        assert p.read_text() == "3,7,1.500000,2.250000,10.000000,20.000000,1,-1,-1,-1\n"

    def test_empty_output(self, tmp_path):
        p = tmp_path / "out.txt"
        write_results(p, TrackOutput())
        assert p.read_text() == ""

    def test_sorted_by_frame_then_id(self, tmp_path):
        p = tmp_path / "out.txt"
        rows = [(2, 1, (0, 0, 1, 1)), (1, 9, (0, 0, 1, 1)), (1, 2, (0, 0, 1, 1))]
        write_results(p, TrackOutput(rows=rows))
        got = [line.split(",")[:2] for line in p.read_text().splitlines()]
        assert got == [["1", "2"], ["1", "9"], ["2", "1"]]

    def test_round_trips_through_detection_reader(self, tmp_path):
        p = tmp_path / "out.txt"
        rows = [(2, 3, (11, 21, 30, 40)), (1, 3, (10.125, 20.5, 30.0625, 40.75))]
        write_results(p, TrackOutput(rows=rows))
        assert rows_of(read_trajectories(p)) == [
            (1, 3, [10.125, 20.5, 30.0625, 40.75]), (2, 3, [11.0, 21.0, 30.0, 40.0])
        ]

    def test_run_sequence_output_reads_back_as_its_table(self, tmp_path):
        # emitted detection boxes, read from a file at six decimals or fewer, are written back exactly
        det, feat, _ = generate_to_dir(preset("crossing"), tmp_path)
        match = MatchConfig(emit=EMIT_DETECTION)
        output, _ = run_sequence(read_detections(det), FeatureFileProvider(feat), match=match)
        p = tmp_path / "out.txt"
        write_results(p, output)
        table, back = output.trajectories(), read_trajectories(p)
        assert len(set(table["id"].tolist())) > 1
        assert back.dtype == table.dtype == TRAJECTORY
        assert back.tobytes() == table.tobytes()


class TestFeatureFile:
    def test_round_trip_three_records(self, tmp_path):
        p = tmp_path / "f.feab"
        vecs = [
            np.array([1, 0, 0, 0], dtype=np.float32),
            np.array([0, 1, 0, 0], dtype=np.float32),
            np.array([0.5, 0.5, 0.5, 0.5], dtype=np.float32),
        ]
        write_features(p, [(1, 0, vecs[0]), (1, 1, vecs[1]), (2, 0, vecs[2])])
        provider = FeatureFileProvider(p)
        found, got = provider.fetch_batch(1, np.array([1, 2, 0]))
        assert found.tolist() == [0, 2] and got.tobytes() == vecs[1].tobytes() + vecs[0].tobytes()
        found, got = provider.fetch_batch(2, np.array([0]))
        assert found.tolist() == [0] and got.tobytes() == vecs[2].tobytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.feab"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="bad magic"):
            FeatureFileProvider(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "f.feab"
        p.write_bytes(b"FEAB\x02" + bytes(8))
        with pytest.raises(ValueError, match="version"):
            FeatureFileProvider(p)

    # one 4-d record is 13 header bytes and 8 + 16 record bytes
    @pytest.mark.parametrize("size, message", [
        (34, r"^truncated feature file: expected 37 bytes, got 34$"),
        (12, r"^truncated feature file header$"),
    ])
    def test_truncated_file(self, tmp_path, size, message):
        p = tmp_path / "f.feab"
        write_features(p, [(1, 0, np.eye(4, dtype=np.float32)[0])])
        data = p.read_bytes()
        p.write_bytes(data[:size])
        with pytest.raises(ValueError, match=message):
            FeatureFileProvider(p)

    @pytest.mark.parametrize("second, message", [
        ((1, 0, np.eye(2)[0]), "duplicate"),
        ((1, 1, np.eye(3)[0]), r"^inconsistent feature dimension: 3 vs 2$"),
    ], ids=["duplicate key", "two widths"])
    def test_refused_records_on_write(self, tmp_path, second, message):
        with pytest.raises(ValueError, match=message):
            write_features(tmp_path / "f.feab", [(1, 0, np.eye(2)[0]), second])

    @pytest.mark.parametrize("key", [(2**32, 0), (0, 2**32), (-1, 0), (0, -1)])
    def test_key_out_of_range_on_write(self, tmp_path, key):
        v = np.eye(2, dtype=np.float32)[0]
        with pytest.raises(ValueError, match=rf"^feature key \({key[0]}, {key[1]}\) outside \[0, 2\*\*32\)$"):
            write_features(tmp_path / "f.feab", [(1, 0, v), (*key, v)])

    def test_largest_key_round_trips(self, tmp_path):
        p = tmp_path / "f.feab"
        write_features(p, [(2**32 - 1, 2**32 - 1, np.array([0.0, 1.0], dtype=np.float32))])
        found, got = FeatureFileProvider(p).fetch_batch(2**32 - 1, np.array([2**32 - 1]))
        assert found.tolist() == [0] and got.tolist() == [[0.0, 1.0]]

    def test_non_unit_vectors_normalized_on_read(self, tmp_path):
        p = tmp_path / "f.feab"
        write_features(p, [(1, 0, np.array([3.0, 4.0], dtype=np.float32))])
        found, got = FeatureFileProvider(p).fetch_batch(1, np.array([0]))
        assert found.tolist() == [0] and np.allclose(got[0], [0.6, 0.8], atol=1e-7)

    @pytest.mark.parametrize(
        "vector, message", [([0.0, 0.0], "zero-norm"), ([1.0, np.nan], "non-finite")]
    )
    def test_rejects_unusable_vectors_on_read(self, vector, message, tmp_path):
        p = tmp_path / "f.feab"
        write_features(p, [(1, 0, np.array(vector, dtype=np.float32))])
        with pytest.raises(ValueError, match=message):
            FeatureFileProvider(p)

    @pytest.mark.parametrize("keys, message", [
        ([(1, 0), (2, 0), (1, 0), (2, 0)], r"^duplicate feature key \(1, 0\)$"),
        # keys out of order: the first repeat in file order names the error
        ([(5, 0), (1, 0), (5, 0), (1, 0)], r"^duplicate feature key \(5, 0\)$"),
        ([(5, 0), (1, 0), (1, 0), (5, 0)], r"^duplicate feature key \(1, 0\)$"),
        ([(5, 0), (1, 0), (5, 0), (5, 0)], r"^duplicate feature key \(5, 0\)$"),
    ])
    def test_repeated_key_refused_on_read(self, keys, message, tmp_path):
        # write_features refuses such a file, so it is written byte by byte
        p = tmp_path / "f.feab"
        e = np.eye(2, dtype=np.float32)
        write_raw_features(p, 2, [(f, i, e[n % 2]) for n, (f, i) in enumerate(keys)])
        with pytest.raises(ValueError, match=message):
            FeatureFileProvider(p)

    def test_provider_fetch(self, tmp_path):
        p = tmp_path / "f.feab"
        write_features(p, [(4, 1, np.array([0, 1, 0], dtype=np.float32))])
        provider = FeatureFileProvider(p)
        found, got = provider.fetch_batch(4, np.array([2, 1]))
        # the validated vector as read, not a renormalized copy
        assert found.tolist() == [1] and got.dtype == np.float32
        assert np.array_equal(got, reference_read_features(p)[(4, 1)][None])
        for frame in (2**32 + 4, 2**64 + 4):  # frames beyond the file's u32 keys
            found, got = provider.fetch_batch(frame, np.array([1]))
            assert found.tolist() == [] and got.shape == (0, 3)
        write_features(p, [])  # an empty file has no key, (0, 0) included
        found, got = FeatureFileProvider(p).fetch_batch(0, np.array([0, 1]))
        assert found.tolist() == [] and len(got) == 0

    def test_provider_retains_little_beyond_the_file(self, tmp_path):
        n, dim = 5000, 16
        p = tmp_path / "f.feab"
        vectors = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
        write_features(p, [(1 + k // 10, k % 10, v) for k, v in enumerate(vectors)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            provider = FeatureFileProvider(p)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert provider.fetch_batch(1, np.array([0]))[0].tolist() == [0]
        # the file's bytes, which the vectors view, and the key index: no object per record
        assert retained <= p.stat().st_size + 32 * n


def write_raw_features(path, dim, records) -> None:
    """A feature file written record by record, with no check on what it holds."""
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<BII", FEATURE_VERSION, dim, len(records)))
        for f, i, v in records:
            fh.write(struct.pack("<II", f, i) + np.asarray(v, dtype="<f4").tobytes())


@st.composite
def feature_records(draw):
    """(dim, records): unit and scaled vectors in key or shuffled order, some spoiled by NaN, inf, zeros or a repeated key."""
    dim = draw(st.integers(0, 200))
    count = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.normal(size=(count, dim)) * 10.0 ** rng.integers(-3, 4, size=(count, 1))
    unit = rng.random(count) < 0.5
    vectors[unit] /= np.maximum(np.linalg.norm(vectors[unit], axis=1, keepdims=True), 1e-300)
    vectors = vectors.astype(np.float32)
    keys = [(n // 5, n % 5) for n in range(count)]  # frame 0 is a key too
    if draw(st.booleans()):
        order = rng.permutation(count)
        keys, vectors = [keys[n] for n in order], vectors[order]
    for _ in range(draw(st.integers(0, 3)) if count else 0):
        n = draw(st.integers(0, count - 1))
        kind = draw(st.sampled_from(["nan", "inf", "-inf", "zero", "repeat"]))
        if kind == "zero":
            vectors[n] = 0.0
        elif kind == "repeat":
            keys[n] = keys[draw(st.integers(0, count - 1))]
        elif dim:
            vectors[n, draw(st.integers(0, dim - 1))] = float(kind)
    return dim, [(f, i, v) for (f, i), v in zip(keys, vectors)]


def read_outcome(reader, path):
    try:
        return reader(path), None
    except ValueError as exc:
        return None, str(exc)


# a query's frame: small ones, of which 0 to 7 hold records, and frames beyond the u32 keys
query_frames = st.integers(0, 9) | st.sampled_from([2**32, 2**32 + 1, 2**64])
# a batch: missing, repeated and unsorted indices, empty ones, and the largest u32 index
query_indices = st.lists(st.integers(0, 6) | st.just(2**32 - 1), max_size=12)


class TestReadFeaturesAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(spec=feature_records(), data=st.data())
    def test_same_vectors_or_same_error(self, spec, data, tmp_path_factory):
        dim, records = spec
        p = tmp_path_factory.mktemp("feab") / "f.feab"
        write_raw_features(p, dim, records)
        want, want_error = read_outcome(reference_read_features, p)
        provider, provider_error = read_outcome(FeatureFileProvider, p)
        assert provider_error == want_error
        if want is None:
            return
        # every key of the file is asked for, frame by frame, so every vector is compared
        queries = [(f, sorted({i for g, i in want if g == f})) for f in {f for f, _ in want}]
        queries += [(data.draw(query_frames), data.draw(query_indices)) for _ in range(3)]
        for frame, indices in queries:
            found, vectors = provider.fetch_batch(frame, np.array(indices, dtype=np.int64))
            hits = [k for k, i in enumerate(indices) if (frame, i) in want]
            assert found.tolist() == hits
            assert vectors.dtype == np.float32 and len(vectors) == len(hits)
            assert vectors.tobytes() == b"".join(want[frame, indices[k]].tobytes() for k in hits)

    @settings(max_examples=100, deadline=None)
    @given(spec=feature_records())
    def test_writer_bytes_match_record_by_record(self, spec, tmp_path_factory):
        dim, records = spec
        if not records or len({(f, i) for f, i, _ in records}) < len(records):
            return  # write_features gives an empty file dim 0 and refuses repeated keys
        d = tmp_path_factory.mktemp("feab")
        write_raw_features(d / "raw.feab", dim, records)
        write_features(d / "table.feab", records)
        assert (d / "table.feab").read_bytes() == (d / "raw.feab").read_bytes()


unit_f32 = st.integers(2, 8).flatmap(
    lambda d: st.lists(
        st.floats(-1, 1, allow_nan=False, width=32), min_size=d, max_size=d
    ).filter(lambda v: np.linalg.norm(v) > 1e-3)
)


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        mapping=st.dictionaries(
            st.tuples(st.integers(1, 50), st.integers(0, 20)),
            unit_f32,
            min_size=0,
            max_size=8,
        )
    )
    def test_feature_file_bitwise(self, mapping, tmp_path_factory):
        dims = {len(v) for v in mapping.values()}
        if len(dims) > 1:
            d = max(dims)
            mapping = {k: (list(v) + [0.0] * (d - len(v))) for k, v in mapping.items()}
        # normalize in f32 so the file carries unit vectors
        records = []
        for (f, i), v in mapping.items():
            arr = np.asarray(v, dtype=np.float32)
            arr = (arr.astype(np.float64) / np.linalg.norm(arr.astype(np.float64))).astype(
                np.float32
            )
            records.append((f, i, arr))
        p = tmp_path_factory.mktemp("feab") / "f.feab"
        write_features(p, records)
        provider = FeatureFileProvider(p)
        for f, i, v in records:
            found, got = provider.fetch_batch(f, np.array([i]))
            assert found.tolist() == [0] and got.tobytes() == v.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.integers(1, 99),
                st.integers(1, 30),
                st.floats(-1e3, 1e3).map(lambda v: round(v, 6)),
                st.floats(-1e3, 1e3).map(lambda v: round(v, 6)),
                st.floats(0.1, 500).map(lambda v: round(v, 6) or 0.1),
                st.floats(0.1, 500).map(lambda v: round(v, 6) or 0.1),
            ),
            max_size=12,
        )
    )
    def test_results_value_exact_at_six_decimals(self, raw, tmp_path_factory):
        seen = set()
        rows = []
        for frame, tid, x, y, w, h in raw:
            if (frame, tid) in seen:
                continue
            seen.add((frame, tid))
            rows.append((frame, tid, (x, y, w, h)))
        p = tmp_path_factory.mktemp("res") / "r.txt"
        write_results(p, TrackOutput(rows=rows))
        back = rows_of(read_trajectories(p))
        expect = sorted(rows, key=lambda r: (r[0], r[1]))
        assert len(back) == len(expect)
        for (f, t, b), (frame, tid, box) in zip(back, expect):
            assert (f, t) == (frame, tid)
            assert b == pytest.approx(box, abs=5e-7)
