"""MOTChallenge-style text files and the binary feature-file format.

Detection/result/ground-truth rows are the usual ten-ish comma-separated
fields "frame,id,x,y,w,h,...". Features live in a little-endian binary
container keyed by (frame, detection index), where the index is the
detection's order of appearance within its frame in the detection file.
"""

from __future__ import annotations

import os
import struct
import warnings
from decimal import Decimal

import numpy as np

from seltrack.appearance import UNIT_NORM_ATOL, norms
from seltrack.geometry import BBox, refused_rows
from seltrack.tracker import Frame, TrackOutput, trajectory_table

FEATURE_MAGIC = b"FEAB"
FEATURE_VERSION = 1

# from this magnitude on, float64 holds only integers: `float` rounds a
# fractional spelling to an integer (and from 2**53 on, neighbours merge)
_INT_BOUND = 2**52

# fields frame..conf of one text row, as the array pass reads them
_ROW = np.dtype([("frame", "<i8"), ("id", "<i8"), ("xywh", "<f8", (4,)), ("conf", "<f8")])


def _parse_int(text: str, what: str) -> int:
    """An integer field, read exactly: a fraction is refused also where `float` would round it to an integer.

    `float` parses the text, so it takes the same spellings as the other
    fields; `Decimal` then compares the exact value of the text with the
    float's. (A `Fraction` of the text would expand an exponent such as
    1e-999999999 into a power of ten.)
    """
    v = float(text)
    if not v.is_integer():
        raise ValueError(f"{what} must be an integer, got {text!r}")
    if abs(v) >= _INT_BOUND:
        raise ValueError(f"{what} must be below 2**52 in magnitude, got {text.strip()}")
    if Decimal(text) != v:
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(v)


def _numbered_rows(path, detections: bool):
    """(frame, id, (x, y, w, h), confidence) of every non-blank line of a MOT-style CSV.

    The one definition of a valid row, and of the reader's rule: conf in
    [0, 1] for `detections`, else id >= 1 and no repeated (id, frame). Each
    reader leaves a file to it whenever the file's array pass refuses one;
    the first bad line raises, named by its line number.
    """
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 7:
                raise ValueError(f"line {line_no}: expected at least 7 fields, got {len(parts)}")
            try:
                frame = _parse_int(parts[0], "frame")
                track_id = _parse_int(parts[1], "id")
                x, y, w, h, conf = (float(p) for p in parts[2:7])
                if frame < 1:
                    raise ValueError(f"frame must be >= 1, got {frame}")
                BBox(x, y, w, h)  # raises for a refused box
                if detections:
                    if not 0.0 <= conf <= 1.0:
                        raise ValueError(f"confidence out of range: {conf!r}")
                elif track_id < 1:
                    raise ValueError(f"trajectory id must be >= 1, got {track_id}")
                elif (track_id, frame) in seen:
                    raise ValueError(f"duplicate (id={track_id}, frame={frame})")
                else:
                    seen.add((track_id, frame))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            yield frame, track_id, (x, y, w, h), conf


def _table(path, detections: bool) -> np.ndarray | None:
    """Fields frame..conf of each non-blank line as one `_ROW` record array, or None.

    One `np.loadtxt` of the file parses frame and id as int64 and the rest
    as float64, then boolean passes run the checks of `_numbered_rows` (the
    reader's rule included). loadtxt skips only empty lines, so an accepted
    table holds the non-blank lines in file order. None leaves the file to
    the line parser: it has no rows, a bad value, a frame or id of 2**52 or
    more or not spelled as a plain integer (`2.0`, `1e0`), or a line that
    loadtxt refuses but `float` may read (whitespace-only, `1_0`, non-ASCII
    digits); or numpy's path opener would read it as something else.
    """
    name = os.path.abspath(path)  # numpy's opener reads a relative path of URL shape as a URL
    if name.endswith((".gz", ".bz2", ".xz", ".lzma")) or not os.path.isfile(name):  # it decompresses, or opens name.gz
        return None
    try:
        # the line parser reads (and decodes) line by line, so it may meet a
        # bad line before a bad byte: a UnicodeDecodeError is left to it too
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file without rows
            table = np.loadtxt(name, dtype=_ROW, delimiter=",", usecols=range(7), ndmin=1, comments=None,
                               encoding="utf-8")
    except (ValueError, UserWarning):
        return None
    frame, track_id, conf = table["frame"], table["id"], table["conf"]
    ok = (1 <= frame) & (frame < _INT_BOUND) & (-_INT_BOUND < track_id) & (track_id < _INT_BOUND)
    ok &= ~refused_rows(table["xywh"])
    if detections:
        ok &= (0 <= conf) & (conf <= 1)  # NaN fails it
    else:
        ok &= 1 <= track_id
    if not ok.all():
        return None
    if not detections:
        order = np.lexsort((frame, track_id))
        if ((np.diff(track_id[order]) == 0) & (np.diff(frame[order]) == 0)).any():
            return None
    return table


def _checked_table(path, detections: bool) -> np.ndarray:
    """The checked `_ROW` table of a MOT-style CSV: the array pass's, or else the line parser's rows stacked."""
    table = _table(path, detections)
    return np.array(list(_numbered_rows(path, detections)), dtype=_ROW) if table is None else table


def read_detections(path) -> dict[int, Frame]:
    """Detections as one `Frame` per frame; a detection's index is its position in its frame in file order.

    The checked table (of the array pass, or of the line parser's rows) is
    sorted by frame once, stably, and each frame's arrays are views of the
    sorted table's, built into a `Frame` without checking them again.
    """
    table = _checked_table(path, detections=True)
    if not len(table):
        return {}
    order = np.argsort(table["frame"], kind="stable")
    frames, xywh, confidence = table["frame"][order], table["xywh"][order], table["conf"][order]
    cuts = (np.flatnonzero(np.diff(frames)) + 1).tolist()
    numbers = frames[[0, *cuts]].tolist()
    return {
        number: Frame.unchecked(number, xywh[start:stop], confidence[start:stop])
        for number, start, stop in zip(numbers, [0, *cuts], [*cuts, len(frames)])
    }


def read_trajectories(path) -> np.ndarray:
    """Ground-truth or result file as a `tracker.TRAJECTORY` table, sorted by frame, then id; ids >= 1.

    The checked table is the array pass's, or else one of the line parser's
    rows, which names the line of a bad id or of a repeated (id, frame).
    """
    return trajectory_table(_checked_table(path, detections=False))


def write_rows(path, frames, ids, xywh, tail: str) -> None:
    """Write one MOT row "frame,id,x,y,w,h" + `tail` per row, in the given order, the box to six decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{frame},{tid},{x:.6f},{y:.6f},{w:.6f},{h:.6f}{tail}\n"
            for frame, tid, (x, y, w, h) in zip(frames.tolist(), ids.tolist(), xywh.tolist())
        )


def write_results(path, output: TrackOutput) -> None:
    """Emit "frame,id,x,y,w,h,1,-1,-1,-1" rows sorted by frame then id."""
    table = output.trajectories()
    write_rows(path, table["frame"], table["id"], table["xywh"], ",1,-1,-1,-1")


def _record_dtype(dim: int) -> np.dtype:
    """One feature-file record: frame, detection index, then `dim` little-endian f32."""
    return np.dtype([("f", "<u4"), ("i", "<u4"), ("v", "<f4", (dim,))])


def write_features(path, records) -> None:
    """Binary feature file from (frame, det index, vector) records.

    Vectors are stored as little-endian f32 exactly as given (no silent
    renormalization); all must share one dimension and each (frame, index)
    key may appear once.
    """
    records = [
        (int(f), int(i), np.asarray(v, dtype=np.float32).ravel()) for f, i, v in records
    ]
    seen = set()
    dim = records[0][2].size if records else 0
    for f, i, v in records:
        if not (0 <= f < 2**32 and 0 <= i < 2**32):
            raise ValueError(f"feature key ({f}, {i}) outside [0, 2**32)")
        if (f, i) in seen:
            raise ValueError(f"duplicate feature key ({f}, {i})")
        seen.add((f, i))
        if v.size != dim:
            raise ValueError(f"inconsistent feature dimension: {v.size} vs {dim}")
    table = np.array(records, dtype=_record_dtype(dim))
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<BII", FEATURE_VERSION, dim, len(records)))
        table.tofile(fh)


# float64 cells checked and normalized per array pass; bounds the widened copy of a block
_CHECK_CELLS = 2**15


def _feature_table(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked record table of a feature file, its keys sorted and each sorted key's row.

    A record's key is the uint64 `frame << 32 | index`. The sorted keys
    end in one padding 0, so a search's end position can be compared
    against them too: a query past every key is not 0 unless there is no
    key. Vectors within 1e-6 of
    unit norm are kept bit-exact; anything else is normalized in place. The
    file is read into one buffer, which the table views. An unusable file
    is refused with the error of its first bad record in file order: a
    repeated key, then a non-finite vector, then a zero vector.
    """
    data = np.fromfile(path, dtype=np.uint8)
    if len(data) < 13:
        raise ValueError("truncated feature file header")
    if data[:4].tobytes() != FEATURE_MAGIC:
        raise ValueError("bad magic")
    version = int(data[4])
    if version != FEATURE_VERSION:
        raise ValueError(f"unsupported feature file version {version}")
    dim, count = struct.unpack_from("<II", data, 5)
    record_size = 8 + 4 * dim
    expected = 13 + count * record_size
    if len(data) != expected:
        raise ValueError(
            f"truncated feature file: expected {expected} bytes, got {len(data)}"
        )
    if count == 0:  # its header may give a dim too large for a record dtype
        return np.zeros(0, _record_dtype(0)), np.zeros(1, np.uint64), np.zeros(0, np.intp)
    table = data[13:].view(_record_dtype(dim))
    vectors = table["v"]
    keys = table["f"].astype(np.uint64) << 32 | table["i"]
    rows = np.argsort(keys, kind="stable")
    sorted_keys = np.zeros(count + 1, np.uint64)
    np.take(keys, rows, out=sorted_keys[:count])
    # a repeated key is a run of equal sorted keys, its records in file order:
    # the first repeat is the least row that follows an equal key
    repeat = sorted_keys[1:count] == sorted_keys[:count - 1]
    checked = int(rows[1:][repeat].min()) if repeat.any() else count
    # records before the first repeated key are checked; a bad one among them fails first
    step = max(1, _CHECK_CELLS // max(dim, 1))
    for start in range(0, checked, step):
        block = vectors[start:min(start + step, checked)]
        wide = block.astype(np.float64)
        norm = norms(wide)
        finite = np.isfinite(norm)  # squares of finite float32 values never overflow a float64 sum
        bad = ~finite | (norm == 0.0)
        if bad.any():
            n = start + int(np.argmax(bad))
            what = "non-finite" if not finite[n - start] else "zero-norm"
            raise ValueError(f"{what} feature vector at key {_key(table, n)}")
        off = np.abs(norm - 1.0) > UNIT_NORM_ATOL
        block[off] = (wide[off] / norm[off, None]).astype(np.float32)
    if checked < count:
        raise ValueError(f"duplicate feature key {_key(table, checked)}")
    return table, sorted_keys, rows


def _key(table: np.ndarray, row: int) -> tuple[int, int]:
    """The (frame, index) key of a record, as the errors name it."""
    return int(table["f"][row]), int(table["i"][row])


class FeatureFileProvider:
    """Feature provider backed by a feature file's checked record table and its sorted key index.

    A fetched vector is the table's float32 row; a batch is one search of
    the sorted keys and one gather.
    """

    def __init__(self, path):
        table, self._padded, self._rows = _feature_table(path)
        self._keys = self._padded[:-1]
        self._vectors = table["v"]

    def fetch_batch(self, frame: int, indices) -> tuple[np.ndarray, np.ndarray]:
        """The positions in `indices` (each in [0, 2**32)) that have a record in `frame`, and their vectors."""
        # a frame of 2**32 or more, which the uint64 shift would wrap, has no key, nor has
        # any query of an empty file (whose one padding key is the query (0, 0))
        if frame >> 32 or not len(self._rows):
            return np.zeros(0, dtype=np.intp), self._vectors[:0]
        query = np.bitwise_or(indices, frame << 32, dtype=np.uint64, casting="unsafe")
        pos = self._keys.searchsorted(query)
        found = (self._padded[pos] == query).nonzero()[0]
        return found, self._vectors[self._rows[pos[found]]]
