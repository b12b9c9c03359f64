"""Per-vehicle scene segmentation of the detection stream.

The stream is cut into scenes, one per vehicle pass: the scene spans the
vehicle's first to last detected frame, and a dropout of up to `HANGOVER_S`
seconds is bridged rather than split. The hangover is in seconds so that it
means the same at every fps and stride; like `max_age` in SORT (Bewley et
al. 2016), it keeps a vehicle the detector misses for a few steps in one
scene, whose window then still holds its approach to the conflict point.
Co-present vehicles yield separate, overlapping scenes; a pedestrian
sharing any frame makes the scene interactive.

The paper gates idle footage by frame differencing before this step. The
pipeline's input is detections and no stage reads frames, so that gate is
not implemented. The module keeps its name because it is where that gate
belongs, and because the benchmark tracer (`perfbench/tracing.py`) looks
up `crossrisk.motion_gate` by name.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .ingest import ObjectClass


# Longest detection dropout, in seconds, bridged inside one scene.
HANGOVER_S = 1.0


def hangover_frames_at(fps: float) -> int:
    """`HANGOVER_S` as whole frames at `fps`, rounded down."""
    return int(HANGOVER_S * fps)


@dataclass(frozen=True)
class SceneSpan:
    """One vehicle's presence, from first to last detected frame."""

    scene_id: str
    vehicle_track_hint: str
    frame_start: int
    frame_end: int
    interactive: bool

    def __post_init__(self):
        if self.frame_start > self.frame_end:
            raise ValueError("frame_start must be <= frame_end")


def segment_scenes(detections, hangover_frames: int) -> list[SceneSpan]:
    """Cut a frame-ordered detection sequence into per-vehicle scenes.

    Vehicle identity is the detection id (detector outputs with stable ids,
    and all synthetic corpora, carry one). A run of more than
    `hangover_frames` frames without the vehicle closes its scene, and a
    reappearance opens a new one.
    """
    vehicle_frames: dict[str, list[int]] = {}
    ped_frames: set[int] = set()
    for rec in detections:
        if rec.object_class is ObjectClass.VEHICLE:
            vehicle_frames.setdefault(rec.detection_id, []).append(
                rec.frame_index)
        else:
            ped_frames.add(rec.frame_index)

    raw_spans: list[tuple[int, int, str]] = []
    for key, key_frames in vehicle_frames.items():
        frames = sorted(set(key_frames))
        start = prev = frames[0]
        for f in frames[1:]:
            if f - prev - 1 > hangover_frames:
                raw_spans.append((start, prev, key))
                start = f
            prev = f
        raw_spans.append((start, prev, key))

    ped_sorted = sorted(ped_frames)
    spans = []
    for n, (start, end, key) in enumerate(sorted(raw_spans)):
        # Interactive iff the first pedestrian frame at or after the span's
        # start lies inside it.
        k = bisect_left(ped_sorted, start)
        interactive = k < len(ped_sorted) and ped_sorted[k] <= end
        spans.append(SceneSpan(
            scene_id=f"s{n:04d}",
            vehicle_track_hint=key,
            frame_start=start,
            frame_end=end,
            interactive=interactive,
        ))
    return spans
