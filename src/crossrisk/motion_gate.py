"""Per-vehicle scene segmentation of the detection stream.

The stream is cut into scenes, one per vehicle presence: the scene spans
the vehicle's first to last detected frame, with short detection dropouts
(up to the hangover) bridged rather than split. Co-present vehicles yield
separate, overlapping scenes; a pedestrian sharing any frame makes the
scene interactive.

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


@dataclass(frozen=True)
class MotionParams:
    """Scene segmentation thresholds.

    hangover_frames: missing-detection frames bridged before a scene closes.
    """

    hangover_frames: int = 2

    def __post_init__(self):
        if self.hangover_frames < 0:
            raise ValueError("hangover_frames must be >= 0")

    @classmethod
    def for_config(cls, config) -> "MotionParams":
        """Defaults scaled to the spot's sampling stride: the hangover is
        two sampled steps, whatever the stride."""
        return cls(hangover_frames=2 * config.frame_skip)


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

    def contains(self, frame: int) -> bool:
        return self.frame_start <= frame <= self.frame_end


def segment_scenes(detections, params: MotionParams | None = None,
                   ) -> list[SceneSpan]:
    """Cut a frame-ordered detection sequence into per-vehicle scenes.

    Vehicle identity is the detection id (detector outputs with stable ids,
    and all synthetic corpora, carry one). A gap longer than the hangover
    closes the scene and a reappearance opens a new one.
    """
    params = params or MotionParams()
    vehicle_frames: dict[str, list[int]] = {}
    order: list[str] = []
    ped_frames: set[int] = set()
    for rec in detections:
        if rec.object_class is ObjectClass.VEHICLE:
            key = rec.detection_id
            if key not in vehicle_frames:
                vehicle_frames[key] = []
                order.append(key)
            vehicle_frames[key].append(rec.frame_index)
        else:
            ped_frames.add(rec.frame_index)

    raw_spans: list[tuple[int, int, str]] = []
    for key in order:
        frames = sorted(set(vehicle_frames[key]))
        start = prev = frames[0]
        for f in frames[1:]:
            if f - prev - 1 > params.hangover_frames:
                raw_spans.append((start, prev, key))
                start = f
            prev = f
        raw_spans.append((start, prev, key))

    ped_sorted = sorted(ped_frames)
    spans = []
    for n, (start, end, key) in enumerate(
            sorted(raw_spans, key=lambda s: (s[0], s[1], s[2]))):
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
