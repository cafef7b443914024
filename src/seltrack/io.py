"""MOTChallenge-style text files and the binary feature-file format.

Detection/result/ground-truth rows are the usual ten-ish comma-separated
fields "frame,id,x,y,w,h,...". Features live in a little-endian binary
container keyed by (frame, detection index), where the index is the
detection's order of appearance within its frame in the detection file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from seltrack.geometry import BBox
from seltrack.tracker import Detection, TrackOutput

FEATURE_MAGIC = b"FEAB"
FEATURE_VERSION = 1


def _parse_int(text: str, what: str) -> int:
    v = float(text)
    if not v.is_integer():
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(v)


def _numbered_rows(path):
    """(line number, frame, id, box, confidence) for every non-blank line of a MOT-style CSV."""
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
                box = BBox(x, y, w, h)
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            yield line_no, frame, track_id, box, conf


def read_detections(path) -> dict[int, list[Detection]]:
    """Detections grouped by frame; per-frame index follows file order."""
    frames: dict[int, list[Detection]] = {}
    for line_no, frame, _, box, conf in _numbered_rows(path):
        group = frames.setdefault(frame, [])
        try:
            group.append(Detection(frame=frame, index=len(group), box=box, confidence=conf))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return dict(sorted(frames.items()))


def read_trajectories(path) -> dict[int, dict[int, BBox]]:
    """Ground-truth or result file as {track id: {frame: box}}; ids >= 1."""
    out: dict[int, dict[int, BBox]] = {}
    for line_no, frame, track_id, box, _ in _numbered_rows(path):
        if track_id < 1:
            raise ValueError(f"line {line_no}: trajectory id must be >= 1, got {track_id}")
        frames = out.setdefault(track_id, {})
        if frame in frames:
            raise ValueError(f"line {line_no}: duplicate (id={track_id}, frame={frame})")
        frames[frame] = box
    return out


def write_results(path, output: TrackOutput) -> None:
    """Emit "frame,id,x,y,w,h,1,-1,-1,-1" rows sorted by frame then id."""
    rows = sorted(output.rows, key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, tid, box in rows:
            fh.write(
                f"{frame},{tid},{box.x:.6f},{box.y:.6f},{box.w:.6f},{box.h:.6f},1,-1,-1,-1\n"
            )


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
        if f < 0 or i < 0:
            raise ValueError(f"negative key ({f}, {i})")
        if (f, i) in seen:
            raise ValueError(f"duplicate feature key ({f}, {i})")
        seen.add((f, i))
        if v.size != dim:
            raise ValueError(f"inconsistent feature dimension: {v.size} vs {dim}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<B", FEATURE_VERSION))
        fh.write(struct.pack("<II", dim, len(records)))
        for f, i, v in records:
            fh.write(struct.pack("<II", f, i))
            fh.write(v.tobytes())


def read_features(path) -> dict[tuple[int, int], np.ndarray]:
    """Load a feature file as {(frame, det index): f32 vector}.

    Vectors within 1e-6 of unit norm are returned bit-exact; anything else
    is normalized on the way in.
    """
    data = Path(path).read_bytes()
    if len(data) < 13:
        raise ValueError("truncated feature file header")
    if data[:4] != FEATURE_MAGIC:
        raise ValueError("bad magic")
    version = data[4]
    if version != FEATURE_VERSION:
        raise ValueError(f"unsupported feature file version {version}")
    dim, count = struct.unpack_from("<II", data, 5)
    record_size = 8 + 4 * dim
    expected = 13 + count * record_size
    if len(data) != expected:
        raise ValueError(
            f"truncated feature file: expected {expected} bytes, got {len(data)}"
        )
    out: dict[tuple[int, int], np.ndarray] = {}
    offset = 13
    for _ in range(count):
        f, i = struct.unpack_from("<II", data, offset)
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset + 8).copy()
        offset += record_size
        if (f, i) in out:
            raise ValueError(f"duplicate feature key ({f}, {i})")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"non-finite feature vector at key ({f}, {i})")
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if norm == 0.0:
            raise ValueError(f"zero-norm feature vector at key ({f}, {i})")
        if abs(norm - 1.0) > 1e-6:
            vec = (vec.astype(np.float64) / norm).astype(np.float32)
        out[(f, i)] = vec
    return out


class FeatureFileProvider:
    """Feature provider backed by a feature file; vectors come as `read_features` returns them."""

    def __init__(self, path):
        self._records = read_features(path)

    def fetch(self, frame: int, index: int) -> np.ndarray | None:
        return self._records.get((frame, index))
