"""Tracking-by-detection with selective ReID feature extraction.

Per-frame detections are classified as risky or non-risky against the
confirmed tracks; appearance features are extracted only for risky ones,
non-risky detections reuse their candidate track's embedding. Track
embeddings are kept as a decaying EMA so skipped extractions do not freeze
old appearance information.
"""

from seltrack.geometry import BBox, ars, blended_alpha

__all__ = ["BBox", "ars", "blended_alpha"]
__version__ = "0.1.0"
