import gc
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from crossrisk.ingest import DetectionTable, ObjectClass
from crossrisk.motion_gate import hangover_frames_at, segment_scenes

from oracles import detection_table, make_detection, segment_scenes_reference


def _vehicle_run(det_id, frames):
    return [make_detection(f, ObjectClass.VEHICLE, 500, 500, det_id)
            for f in frames]


def _ped_run(det_id, frames):
    return [make_detection(f, ObjectClass.PEDESTRIAN, 600, 600, det_id)
            for f in frames]


def _merge(*runs):
    return detection_table(sorted((r for run in runs for r in run),
                                  key=lambda r: (r.frame_index, r.detection_id)))


def test_single_vehicle_with_pedestrian_overlap():
    dets = _merge(_vehicle_run("v0", range(10, 41)),
                  _ped_run("p0", range(20, 31)))
    spans = segment_scenes(dets, hangover_frames=2)
    assert len(spans) == 1
    span = spans[0]
    assert (span.frame_start, span.frame_end) == (10, 40)
    assert span.interactive


def test_two_overlapping_vehicles_two_scenes():
    dets = _merge(_vehicle_run("v0", range(0, 30)),
                  _vehicle_run("v1", range(10, 50)))
    spans = segment_scenes(dets, hangover_frames=2)
    assert len(spans) == 2
    by_hint = {s.vehicle_track_hint: s for s in spans}
    assert (by_hint["v0"].frame_start, by_hint["v0"].frame_end) == (0, 29)
    assert (by_hint["v1"].frame_start, by_hint["v1"].frame_end) == (10, 49)


def test_pedestrian_only_yields_no_scene():
    assert segment_scenes(_merge(_ped_run("p0", range(5, 20))),
                          hangover_frames=2) == []


def test_gap_longer_than_hangover_splits_scene():
    frames = list(range(0, 10)) + list(range(15, 25))   # 5 missing frames
    spans = segment_scenes(_merge(_vehicle_run("v0", frames)),
                           hangover_frames=2)
    assert [(s.frame_start, s.frame_end) for s in spans] == [(0, 9), (15, 24)]


def test_gap_within_hangover_is_bridged():
    frames = list(range(0, 10)) + list(range(12, 20))   # 2 missing frames
    spans = segment_scenes(_merge(_vehicle_run("v0", frames)),
                           hangover_frames=2)
    assert [(s.frame_start, s.frame_end) for s in spans] == [(0, 19)]


@pytest.mark.parametrize("frame_skip, under, over", [
    (1, 25, 27),    # 24 frames (0.96 s) missing; 26 frames (1.04 s) missing
    (5, 25, 30),    # 4 samples (0.96 s) missing; 5 samples (1.16 s) missing
])
def test_dropout_under_a_second_is_bridged_over_a_second_splits(
        frame_skip, under, over):
    fps = 25.0
    before = list(range(0, 10 * frame_skip, frame_skip))
    for step, scenes in ((under, 1), (over, 2)):
        resume = before[-1] + step
        assert ((resume - before[-1] - 1) / fps < 1.0) == (scenes == 1)
        after = list(range(resume, resume + 10 * frame_skip, frame_skip))
        spans = segment_scenes(_merge(_vehicle_run("v0", before + after)),
                               hangover_frames_at(fps))
        assert len(spans) == scenes
        assert (spans[0].frame_start, spans[-1].frame_end) == \
            (0, after[-1])


def test_spans_cover_and_never_overlap():
    rng = np.random.default_rng(9)
    for _ in range(30):
        frames = sorted(rng.choice(200, size=60, replace=False))
        dets = _merge(_vehicle_run("v0", frames))
        spans = segment_scenes(dets,
                               hangover_frames=int(rng.integers(0, 5)))
        for a, b in zip(spans, spans[1:]):
            assert a.frame_end < b.frame_start
        assert all(any(s.frame_start <= f <= s.frame_end for s in spans)
                   for f in frames)


def test_pedestrian_flips_only_interactive():
    vehicle = _vehicle_run("v0", range(0, 30))
    before = segment_scenes(_merge(vehicle), hangover_frames=2)
    after = segment_scenes(_merge(vehicle, _ped_run("p0", [12])),
                           hangover_frames=2)
    assert len(before) == len(after) == 1
    assert not before[0].interactive and after[0].interactive
    assert (before[0].frame_start, before[0].frame_end) == \
        (after[0].frame_start, after[0].frame_end)


def test_interactive_iff_a_pedestrian_frame_lies_in_the_span():
    # Two disjoint scenes (10..19, 40..49); pedestrian frames at, just
    # inside and just outside each boundary, and between the scenes.
    vehicle = _vehicle_run("v0", list(range(10, 20)) + list(range(40, 50)))
    for ped_frames in ([9], [10], [19], [20], [30], [39], [49], [50],
                       [0, 25, 60], [5, 45], [15, 45], []):
        spans = segment_scenes(_merge(vehicle, _ped_run("p0", ped_frames)),
                               hangover_frames=2)
        assert [(s.frame_start, s.frame_end) for s in spans] == \
            [(10, 19), (40, 49)]
        for s in spans:
            assert s.interactive == any(s.frame_start <= f <= s.frame_end
                                         for f in ped_frames)


@st.composite
def _frame_ordered_streams(draw):
    """A hangover and a frame-ordered stream of a few vehicles and
    pedestrians. Each vehicle advances by steps that leave 0, `hangover`
    or `hangover + 1` frames missing, or any gap up to a few hangovers;
    vehicles share frames, and pedestrian frames fall on, next to and
    between the vehicles' frames."""
    hangover = draw(st.integers(0, 4))
    steps = st.one_of(st.sampled_from([1, hangover + 1, hangover + 2]),
                      st.integers(1, 3 * hangover + 4))
    records = []
    vehicle_frames = set()
    for v in range(draw(st.integers(0, 4))):
        frame = draw(st.integers(0, 12))
        for step in [0] + draw(st.lists(steps, max_size=12)):
            frame += step
            vehicle_frames.add(frame)
            records.append(make_detection(frame, ObjectClass.VEHICLE, 500,
                                          500, f"v{v}"))
    near = sorted({f + d for f in vehicle_frames for d in (-1, 0, 1)} - {-1})
    ped_frame = (st.sampled_from(near) if near else st.nothing()) | \
        st.integers(0, 80)
    for p in range(draw(st.integers(0, 3))):
        for frame in draw(st.sets(ped_frame, max_size=8)):
            records.append(make_detection(frame, ObjectClass.PEDESTRIAN, 600,
                                          600, f"p{p}"))
    records.sort(key=lambda r: (r.frame_index, r.detection_id))
    return hangover, records


@given(_frame_ordered_streams())
@example((0, [make_detection(f, ObjectClass.VEHICLE, 500, 500, "v0")
              for f in (0, 1, 3)]))
def test_one_pass_over_the_columns_equals_the_per_vehicle_frame_lists(stream):
    hangover, records = stream
    assert segment_scenes(detection_table(records), hangover) == \
        segment_scenes_reference(records, hangover)


def test_segment_holds_per_vehicle_spans_not_per_detection_frames():
    # Four vehicles in every frame of a long stream: what segmentation
    # holds grows with the vehicles and their spans, not the detections.
    frames = 20_000
    n = 4 * frames
    table = DetectionTable(
        array("q", (f for f in range(frames) for _ in range(4))),
        array("d", bytes(8 * n)), array("d", bytes(8 * n)),
        [ObjectClass.VEHICLE] * n, ["v0", "v1", "v2", "v3"] * frames)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        spans = segment_scenes(table, hangover_frames=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(s.frame_start, s.frame_end) for s in spans] == \
        [(0, frames - 1)] * 4
    assert peak - before <= n // 8
