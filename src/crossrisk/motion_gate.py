"""Per-vehicle scene segmentation of the detection stream.

The stream is cut into scenes, one per vehicle pass: the scene spans the
vehicle's first to last detected frame, and a dropout of up to `HANGOVER_S`
seconds is bridged rather than split. The hangover is in seconds so that it
means the same at every fps and stride; like `max_age` in SORT (Bewley et
al. 2016), it keeps a vehicle the detector misses for a few steps in one
scene, whose window then still holds its approach to the conflict point.
Co-present vehicles yield separate, overlapping scenes; a pedestrian
sharing any frame makes the scene interactive.

Segmentation reads a `DetectionTable` whose frames never decrease, the
order `ingest.parse_detections` enforces and `synth.generate` sorts into.
In that order one pass over the table's columns finds every scene, and
holds only each vehicle's open span, the closed spans and the distinct
pedestrian frames: its memory follows the vehicles and the frames with a
pedestrian, not the detections.

The paper gates idle footage by frame differencing before this step. The
pipeline's input is detections and no stage reads frames, so that gate is
not implemented. The module keeps its name because it is where that gate
belongs, and because the benchmark tracer (`perfbench/tracing.py`) looks
up `crossrisk.motion_gate` by name.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

from .ingest import DetectionTable, ObjectClass


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


def segment_scenes(table: DetectionTable, hangover_frames: int
                   ) -> list[SceneSpan]:
    """Cut a frame-ordered detection table into per-vehicle scenes.

    Vehicle identity is the detection id (detector outputs with stable ids,
    and all synthetic corpora, carry one). A run of more than
    `hangover_frames` frames without the vehicle closes its scene, and a
    reappearance opens a new one.

    The table's frames must not decrease, as `ingest.parse_detections` and
    `synth.generate` guarantee. Then one pass over its `frames`, `classes`
    and `ids` columns suffices: each vehicle's open span is its first and
    last frame so far, closed when the next frame lies past the hangover,
    and the distinct pedestrian frames arrive sorted. No detection record
    is built and no vehicle's frames are kept.
    """
    open_spans: dict[str, list[int]] = {}      # id -> [start, last frame]
    raw_spans: list[tuple[int, int, str]] = []
    ped_frames = array("q")
    vehicle = ObjectClass.VEHICLE
    for frame, cls, key in zip(table.frames, table.classes, table.ids):
        if cls is not vehicle:
            if not ped_frames or ped_frames[-1] != frame:
                ped_frames.append(frame)
            continue
        span = open_spans.get(key)
        if span is None:
            open_spans[key] = [frame, frame]
        elif frame - span[1] - 1 > hangover_frames:
            raw_spans.append((span[0], span[1], key))
            span[0] = span[1] = frame
        else:
            span[1] = frame
    raw_spans.extend((start, last, key)
                     for key, (start, last) in open_spans.items())

    spans = []
    for n, (start, end, key) in enumerate(sorted(raw_spans)):
        # Interactive iff the first pedestrian frame at or after the span's
        # start lies inside it.
        k = bisect_left(ped_frames, start)
        interactive = k < len(ped_frames) and ped_frames[k] <= end
        spans.append(SceneSpan(
            scene_id=f"s{n:04d}",
            vehicle_track_hint=key,
            frame_start=start,
            frame_end=end,
            interactive=interactive,
        ))
    return spans
