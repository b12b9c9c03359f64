import numpy as np
import pytest

from crossrisk.ingest import ObjectClass
from crossrisk.motion_gate import hangover_frames_at, segment_scenes

from oracles import make_detection


def _vehicle_run(det_id, frames):
    return [make_detection(f, ObjectClass.VEHICLE, 500, 500, det_id)
            for f in frames]


def _ped_run(det_id, frames):
    return [make_detection(f, ObjectClass.PEDESTRIAN, 600, 600, det_id)
            for f in frames]


def _merge(*runs):
    return sorted((r for run in runs for r in run),
                  key=lambda r: (r.frame_index, r.detection_id))


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
    assert segment_scenes(_ped_run("p0", range(5, 20)), hangover_frames=2) == []


def test_gap_longer_than_hangover_splits_scene():
    frames = list(range(0, 10)) + list(range(15, 25))   # 5 missing frames
    spans = segment_scenes(_vehicle_run("v0", frames),
                           hangover_frames=2)
    assert [(s.frame_start, s.frame_end) for s in spans] == [(0, 9), (15, 24)]


def test_gap_within_hangover_is_bridged():
    frames = list(range(0, 10)) + list(range(12, 20))   # 2 missing frames
    spans = segment_scenes(_vehicle_run("v0", frames),
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
        spans = segment_scenes(_vehicle_run("v0", before + after),
                               hangover_frames_at(fps))
        assert len(spans) == scenes
        assert (spans[0].frame_start, spans[-1].frame_end) == \
            (0, after[-1])


def test_spans_cover_and_never_overlap():
    rng = np.random.default_rng(9)
    for _ in range(30):
        frames = sorted(rng.choice(200, size=60, replace=False))
        dets = _vehicle_run("v0", frames)
        spans = segment_scenes(dets,
                               hangover_frames=int(rng.integers(0, 5)))
        for a, b in zip(spans, spans[1:]):
            assert a.frame_end < b.frame_start
        assert all(any(s.frame_start <= f <= s.frame_end for s in spans)
                   for f in frames)


def test_pedestrian_flips_only_interactive():
    vehicle = _vehicle_run("v0", range(0, 30))
    before = segment_scenes(vehicle, hangover_frames=2)
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
