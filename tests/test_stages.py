import hashlib
import itertools
import json
import tempfile
import tracemalloc
import weakref
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from crossrisk.analytics import spot_speed_stats
from crossrisk.errors import MalformedRecord
from crossrisk.features import (
    ACC,
    BEHIND,
    DEC,
    FRONT,
    NC,
    PedestrianZone,
    SceneFeatures,
    VehicleZone,
)
from crossrisk.ingest import (
    ObjectClass,
    dumps_sorted,
    format_detection,
    spot_config_to_dict,
)
from crossrisk.motion_gate import SceneSpan
from crossrisk import motion_gate, stages, synth, tracker
from crossrisk.stages import (
    SCHEMAS,
    PipelineConfig,
    _row_halves,
    _span_record,
    features_to_record,
    load_detections,
    load_spot_config,
    read_jsonl,
    read_scene_summaries,
    read_scenes,
    read_trajectories,
    record_to_features,
    run_analyze,
    run_extract,
    run_segment,
    run_synth,
    run_track,
    scene_lines,
    scene_runs,
    scene_vehicle,
    write_jsonl,
)
from crossrisk.tracker import TrackerParams, TrackPoint, Trajectory

from oracles import make_traj


def _bundle(scene_id="s0", interactive=False, speeds=(10.0, 12.0)):
    return SceneFeatures(
        scene_id=scene_id, spot_id="A", frame_start=0, frame_end=10,
        interactive=interactive, vehicle_id="t0",
        vehicle_speeds_kmh=list(speeds),
        vehicle_zones=[VehicleZone.BEFORE, VehicleZone.ON, VehicleZone.AFTER],
        vehicle_accelerations=["acc", "nc"],
        vehicle_acceleration_runs=["acc", "nc"],
        crosswalk_distances_m=[4.1, 0.0, 3.3],
        stopped=True, stop_distance_m=4.0,
        pedestrians={"t1": ([2.3, 2.0], [PedestrianZone.CIA,
                                         PedestrianZone.CROSSWALK])},
        distances_m=[5.0, 3.0], relative_positions=["Front", "Behind"],
        psm_seconds=3.2, psm_seconds_refined=3.17,
        ped_in_crossing_area=True)


def test_feature_record_uses_paper_vocabulary():
    record = features_to_record(_bundle())
    assert record["vehicle_position_list"] == [
        "before crosswalk", "on crosswalk", "after crosswalk"]
    assert record["vehicle_acceleration_list"] == ["acc", "nc"]
    assert record["car_stop_before_crosswalk"] == "stop"
    assert record["relative_position_list"] == ["Front", "Behind"]
    assert record["psm_seconds"] == 3.2


def test_feature_record_round_trip():
    bundle = _bundle()
    assert record_to_features(features_to_record(bundle)) == bundle
    # No pedestrian, and a pedestrian whose lists are empty.
    for peds in ({}, {"t1": ([2.3], [PedestrianZone.CROSSWALK] * 2),
                      "t2": ([], [])}):
        b = replace(bundle, pedestrians=peds)
        assert record_to_features(features_to_record(b)) == b


_floats = st.floats(allow_nan=False, allow_infinity=False)
_float_lists = st.lists(_floats, max_size=6)
_frames = st.integers(min_value=0, max_value=10**7)


@st.composite
def _bundles(draw):
    ids = st.text(max_size=4)
    return SceneFeatures(
        scene_id=draw(st.text()), spot_id=draw(st.text()),
        frame_start=draw(_frames), frame_end=draw(_frames),
        interactive=draw(st.booleans()), vehicle_id=draw(st.text()),
        vehicle_speeds_kmh=draw(_float_lists),
        vehicle_zones=draw(st.lists(st.sampled_from(VehicleZone), max_size=6)),
        vehicle_accelerations=draw(st.lists(st.sampled_from([ACC, DEC, NC]),
                                            max_size=6)),
        vehicle_acceleration_runs=draw(st.lists(
            st.sampled_from([ACC, DEC, NC]), max_size=6)),
        crosswalk_distances_m=draw(_float_lists),
        stopped=draw(st.booleans()),
        stop_distance_m=draw(st.none() | _floats),
        pedestrians=draw(st.dictionaries(ids, st.tuples(
            _float_lists,
            st.lists(st.sampled_from(PedestrianZone), max_size=6)),
            max_size=3)),
        distances_m=draw(_float_lists),
        relative_positions=draw(st.lists(st.sampled_from([FRONT, BEHIND]),
                                         max_size=6)),
        psm_seconds=draw(st.none() | _floats),
        psm_seconds_refined=draw(st.none() | _floats),
        ped_in_crossing_area=draw(st.booleans()))


@given(_bundles())
def test_feature_record_round_trips_through_json_text(bundle):
    text = dumps_sorted(features_to_record(bundle))
    assert record_to_features(json.loads(text)) == bundle


@st.composite
def _spans(draw):
    start = draw(_frames)
    return SceneSpan(scene_id=draw(st.text()), vehicle_track_hint=draw(st.text()),
                     frame_start=start,
                     frame_end=start + draw(st.integers(0, 10**4)),
                     interactive=draw(st.booleans()))


@given(st.lists(_spans(), max_size=5))
def test_scene_rows_round_trip_through_read_scenes(spans):
    with tempfile.TemporaryDirectory() as tmp:
        write_jsonl(Path(tmp) / "scenes.jsonl", "scenes",
                    [dumps_sorted(_span_record(s)) for s in spans])
        assert read_scenes(Path(tmp)) == spans


def _truth_of(emitted: dict[str, list[int]]) -> synth.GroundTruth:
    """A GroundTruth holding `emitted`."""
    ids = sorted(emitted)
    offsets = itertools.accumulate((len(emitted[a]) for a in ids), initial=0)
    return synth.GroundTruth(
        agent_ids=tuple(ids),
        frames=array("q", itertools.chain(*(emitted[a] for a in ids))),
        offsets=array("q", offsets))


# Agent ids that need escapes: a quote, a backslash, non-ASCII text and a
# control character.
_agent_ids = st.text(max_size=4) | st.sampled_from(
    ['"', "\\", "v\u00e9", "\u6b69\u884c\u8005", "\n", "\U0001f697"])


@given(st.dictionaries(_agent_ids, st.lists(_frames, max_size=5), max_size=5))
@example({})
@example({'"': [], "\\": [0, 5], "v\u00e9": [10**7]})
def test_truth_file_is_json_dumps_of_the_whole_record(emitted):
    # The reference is the record the synth stage once built whole.
    record = {"schema": stages.SCHEMAS["truth"],
              "emitted_frames": dict(sorted(emitted.items()))}
    with tempfile.TemporaryDirectory() as tmp:
        stages.write_truth(Path(tmp), _truth_of(emitted))
        text = (Path(tmp) / "truth.json").read_bytes()
    assert text == json.dumps(record, sort_keys=True).encode()


def test_feature_record_pedestrian_fields_on_disk():
    # Each pedestrian entry holds exactly these two fields.
    assert features_to_record(_bundle())["pedestrians"] == {
        "t1": {"speed_kmh": [2.3, 2.0],
               "position_list": [PedestrianZone.CIA.value,
                                 PedestrianZone.CROSSWALK.value]}}


def test_scene_type_proportions_replay_from_file(tmp_path):
    # A feature file encoding the busiest spot's split (2,681 car-only,
    # 1,540 interactive) replays to exactly those counts.
    rows = [features_to_record(_bundle(scene_id=f"c{k:05d}"))
            for k in range(2681)]
    rows += [features_to_record(_bundle(scene_id=f"i{k:05d}", interactive=True))
             for k in range(1540)]
    spot_dir = tmp_path
    write_jsonl(spot_dir / "features.jsonl", "features",
                map(dumps_sorted, rows))
    bundles = read_scene_summaries(spot_dir)
    stats = spot_speed_stats("A", bundles)
    assert stats["car_only"] == 2681
    assert stats["interactive"] == 1540


def test_read_jsonl_rejects_wrong_schema(tmp_path):
    path = tmp_path / "scenes.jsonl"
    path.write_text(json.dumps({"schema": "crossrisk/other/v9"}) + "\n")
    with pytest.raises(MalformedRecord):
        read_scenes(tmp_path)


_BLOCK = stages._BLOCK_CHARS


@pytest.mark.parametrize("sizes", [[], [0, 0], [10] * 3,
                                   [_BLOCK - 1, 1, _BLOCK, 5], [3 * _BLOCK]])
def test_write_jsonl_returns_the_digest_of_the_bytes_it_wrote(tmp_path, sizes):
    # Lines that fill the write blocks exactly, overrun them or are empty.
    lines = [chr(ord("a") + k % 26) * n for k, n in enumerate(sizes)]
    path = tmp_path / "scenes.jsonl"
    digest = write_jsonl(path, "scenes", iter(lines))
    header = dumps_sorted({"schema": SCHEMAS["scenes"]})
    assert path.read_text() == "".join(f"{line}\n" for line in [header, *lines])
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_scene_vehicle_prefers_hinted_track():
    hinted = make_traj("t1", ObjectClass.VEHICLE, range(4),
                       [(k, 0) for k in range(4)], det_ids=["v7"] * 4)
    other = make_traj("t0", ObjectClass.VEHICLE, range(8),
                      [(k, 5) for k in range(8)], det_ids=["v8"] * 8)
    ped = make_traj("t2", ObjectClass.PEDESTRIAN, range(4),
                    [(k, 9) for k in range(4)], det_ids=["p0"] * 4)
    assert scene_vehicle([other, hinted, ped], "v7").object_id == "t1"
    # Unknown hint: fall back to the longest vehicle track.
    assert scene_vehicle([other, hinted, ped], "zz").object_id == "t0"
    assert scene_vehicle([ped], "v7") is None


def test_scene_vehicle_ties_go_to_the_smallest_object_id():
    # No track holds a hinted detection and both are as long: the same
    # rule as between equally hinted tracks picks the smaller id.
    a, b = (make_traj(oid, ObjectClass.VEHICLE, range(4),
                      [(k, 0) for k in range(4)], det_ids=["v1"] * 4)
            for oid in ("t3", "t5"))
    assert scene_vehicle([b, a], "zz").object_id == "t3"
    assert scene_vehicle([b, a], "v1").object_id == "t3"


# Ids with JSON escapes and non-ASCII text; floats JSON writes unusually.
_tricky_text = st.text(st.sampled_from('"\\/\n\t\x00aé漢😀'), max_size=5) \
    | st.text(max_size=5)
_tricky_floats = st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e300]) \
    | st.floats()


@st.composite
def _runs(draw):
    """Tracks and scene windows over frames 0..30, windows overlapping so
    that a point may fall in none, one or several of them. A track's
    times, like its frames, strictly increase."""
    point = st.tuples(_tricky_text, _tricky_floats, _tricky_floats,
                      _tricky_floats, _tricky_floats)
    tracks = []
    for k, oid in enumerate(sorted(draw(st.sets(_tricky_text, max_size=4)))):
        frames = sorted(draw(st.sets(st.integers(0, 30), min_size=1,
                                     max_size=6)))
        times = sorted(draw(st.sets(_tricky_floats.filter(lambda t: t == t),
                                    min_size=len(frames),
                                    max_size=len(frames))))
        pts = [TrackPoint(frame=f, t=t, raw_px=(a, b), smooth_px=(c, d),
                          world=(b, a), detection_id=det)
               for f, t, (det, a, b, c, d) in zip(
                   frames, times, draw(st.lists(point, min_size=len(frames),
                                                max_size=len(frames))))]
        tracks.append(Trajectory(oid, draw(st.sampled_from(ObjectClass)), pts))
    scenes = []
    for sid in draw(st.sets(_tricky_text, min_size=1, max_size=4)):
        start = draw(st.integers(0, 30))
        scenes.append(SceneSpan(sid, "v", start,
                                start + draw(st.integers(0, 15)), False))
    return tracks, scenes


def _full_row(scene, track, p):
    return {"scene_id": scene.scene_id, "object_id": track.object_id,
            "class": track.object_class.value, "frame": p.frame, "t": p.t,
            "raw_px": list(p.raw_px), "smooth_px": list(p.smooth_px),
            "world": list(p.world), "det": p.detection_id}


@given(_runs())
def test_scene_lines_are_dumps_sorted_of_each_full_row(run):
    # Point-major: each point of each track, then its row for every scene
    # whose window holds it. Each line is the full row's canonical text.
    tracks, scenes = run
    expected = [dumps_sorted(_full_row(s, t, p))
                for t in tracks for p in t.points for s in scenes
                if s.frame_start <= p.frame <= s.frame_end]
    points = sum(1 for t in tracks for p in t.points
                 if any(s.frame_start <= p.frame <= s.frame_end
                        for s in scenes))
    counts = Counter()
    assert list(scene_lines(tracks, scenes, counts)) == expected
    assert (counts["rows"], counts["points"]) == (len(expected), points)


def test_scene_lines_encode_each_point_as_its_lines_are_taken(monkeypatch):
    encoded = []

    def recording(cls, object_id, p):
        encoded.append(p.frame)
        return _row_halves(cls, object_id, p)

    monkeypatch.setattr(stages, "_row_halves", recording)
    track = make_traj("t0", ObjectClass.VEHICLE, range(5),
                      [(k, 0) for k in range(5)])
    scenes = [SceneSpan("s0", "v", 0, 3, False),
              SceneSpan("s1", "v", 1, 4, False)]
    counts = Counter()
    lines = scene_lines([track], scenes, counts)
    assert encoded == []
    assert [json.loads(next(lines))["scene_id"] for _ in range(3)] \
        == ["s0", "s0", "s1"]
    assert encoded == [0, 1] and not counts
    assert len(list(lines)) == 5
    assert encoded == [0, 1, 2, 3, 4]
    assert (counts["rows"], counts["points"]) == (8, 5)


_row_floats = _tricky_floats | st.sampled_from([
    2.2e-308, 1e308, -1e308, 1e16, 3.0, -7.0,
    float("nan"), float("inf"), float("-inf")]) \
    | st.integers(-2**53, 2**53).map(float) | st.floats().map(np.float64)


@given(st.sampled_from(ObjectClass), _tricky_text, _tricky_text, _tricky_text,
       st.integers(0, 10**9), st.lists(_row_floats, min_size=7, max_size=7))
def test_row_template_is_dumps_sorted_of_the_full_row(cls, object_id, scene_id,
                                                      det, frame, v):
    p = TrackPoint(frame=frame, t=v[0], raw_px=(v[1], v[2]),
                   smooth_px=(v[3], v[4]), world=(v[5], v[6]),
                   detection_id=det)
    head, tail = _row_halves(cls.value, object_id, p)
    track = Trajectory(object_id, cls, [p])
    assert head + dumps_sorted(scene_id) + tail == dumps_sorted(
        _full_row(SceneSpan(scene_id, "v", 0, 0, False), track, p))


def _plain_id(text):
    """Whether JSON writes `text` with no escape at all."""
    return dumps_sorted(text) == f'"{text}"'


def _read(spot_dir, scenes):
    """The scenes `read_trajectories` yields with tracks, by id, and the
    number of rows it read and decoded in full."""
    counts = Counter()
    per_scene = {span.scene_id: tracks for span, tracks
                 in read_trajectories(spot_dir, scenes, counts) if tracks}
    return per_scene, counts["rows"], counts["decoded"]


def _run_lines(tracks, scenes):
    """The `trajectories.jsonl` lines of `tracks`, each run's `scene_lines`
    in `scene_runs` order, as the track stage writes them, and the number
    of distinct points they hold."""
    counts = Counter()
    lines = [line for run in scene_runs(scenes)
             for line in scene_lines(tracks, run, counts)]
    return lines, counts["points"]


@given(_runs())
def test_trajectory_lines_read_back_as_each_scenes_cut_of_the_tracks(run):
    tracks, scenes = run
    expected = {}
    for s in scenes:
        cut = [Trajectory(t.object_id, t.object_class,
                          [p for p in t.points
                           if s.frame_start <= p.frame <= s.frame_end])
               for t in tracks]
        if cut := [t for t in cut if t.points]:
            expected[s.scene_id] = cut
    lines, points = _run_lines(tracks, scenes)
    with tempfile.TemporaryDirectory() as tmp:
        write_jsonl(Path(tmp) / "trajectories.jsonl", "trajectories", lines)
        per_scene, rows, decoded = _read(Path(tmp), scenes)
        # Every scene comes, in run order, with tracks or without.
        assert [span for span, _ in read_trajectories(Path(tmp), scenes)] \
            == [span for run in scene_runs(scenes) for span in run]
    # repr tells -0.0 from 0.0 and matches NaN to NaN.
    assert repr(sorted(per_scene.items())) == repr(sorted(expected.items()))
    assert rows == len(lines) and points <= decoded <= rows
    ids = [s.scene_id for s in scenes] + [t.object_id for t in tracks] \
        + [p.detection_id for t in tracks for p in t.points]
    if all(map(_plain_id, ids)):
        # Nothing escaped: each point is decoded once, its other rows reused.
        assert decoded == points


def _json_reference(path):
    """Trajectories per scene read with plain json alone."""
    tracks = {}
    for r in _plain_rows(path):
        t = tracks.setdefault((r["scene_id"], r["object_id"]),
                              Trajectory(r["object_id"], None, []))
        t.object_class = ObjectClass(r["class"])
        t.points.append(TrackPoint(r["frame"], r["t"], tuple(r["raw_px"]),
                                   tuple(r["smooth_px"]), tuple(r["world"]),
                                   r["det"]))
    out = {}
    for (scene_id, _), t in sorted(tracks.items()):
        out.setdefault(scene_id, []).append(t)
    return out


def test_hand_edited_trajectory_rows_read_as_plain_json_reads_them(tmp_path):
    track = make_traj("t0", ObjectClass.VEHICLE, [0, 5, 10],
                      [(1.5, 2.0), (3.0, -0.0), (4.25, 1e-300)],
                      det_ids=["v0", "v0", "v0"])
    p0, p1, p2 = track.points
    row = lambda sid, p=p0: _full_row(SceneSpan(sid, "v0", 0, 0, False),
                                      track, p)
    canonical = dumps_sorted(row("s0001"))
    escaped_det = dumps_sorted({**row("s11", p2), "det": "vé"})
    # Each scene holds the point p0 once: a scene with a point twice is
    # malformed (see test_repeated_point_in_a_scene_is_malformed).
    lines = [
        canonical,
        dumps_sorted(row("s0002")),                    # reused
        canonical.replace('"s0001"', '"s\\u0030"'),    # escaped id: "s0"
        canonical.replace('"s0001"', '"s0003"'),
        canonical.replace('"s0001"', '"s\\"1"'),       # id holding a quote
        canonical.replace('"s0001"', '"s0004"'),
        canonical.replace('"s0001"', '"s"'),           # shorter id, reused
        canonical.replace('"s0001"', '""'),            # empty id, reused
        canonical.replace('"s0001"', '"s3", "scene_id": "s4"'),  # duplicate
        canonical.replace('"s0001"', '"s3", "scene_id": "s3"'),
        canonical.replace('"s0001"', '"s5", "scene_id": "s13"'),
        json.dumps(row("s6", p1)),                     # keys in another order
        json.dumps(row("s6", p2)),
        json.dumps(row("s7", p1)).replace(": ", ":  "),    # extra spaces
        json.dumps(row("s8", p1)).replace(": ", ":  "),
        dumps_sorted(row("s9", p2)).replace("}", " }"),
        dumps_sorted(row("s10", p2)),
        escaped_det,                                   # a backslash elsewhere
        escaped_det.replace('"s11"', '"s12"'),
    ]
    path = tmp_path / "trajectories.jsonl"
    write_jsonl(path, "trajectories", lines)
    ids = ["s0001", "s0002", "s0", "s0003", 's"1', "s0004", "s", "", "s4",
           "s3", "s13", "s6", "s7", "s8", "s9", "s10", "s11", "s12"]
    # One run: every window holds frames 0 to 10.
    scenes = [SceneSpan(sid, "v0", 0, 10, False) for sid in ids]
    per_scene, rows, decoded = _read(tmp_path, scenes)
    assert per_scene == _json_reference(path)
    assert set(per_scene) == set(ids)
    assert (rows, decoded) == (len(lines), len(lines) - 3)
    # Not JSON, reused or not: a raw control character in the id, and a
    # row where the previous row's head and tail overlap.
    for bad in (canonical.replace('"s0001"', '"s\t1"'),
                canonical.replace('"scene_id": "s0001"', '"scene_id": "')):
        write_jsonl(path, "trajectories", [canonical, bad])
        with pytest.raises(json.JSONDecodeError):
            _json_reference(path)
        with pytest.raises(MalformedRecord, match="^line 3: "):
            _read(tmp_path, scenes)


@pytest.mark.parametrize("second", [
    {},                          # the same row twice
    {"frame": 5},                # a time that does not advance
    {"frame": 5, "t": -0.5},     # a time that goes back
])
def test_repeated_point_in_a_scene_is_malformed(tmp_path, second):
    # Speeds divide by the time between a track's points, so a scene's
    # track must advance in both frame and time. The row that does not
    # fails on its own line, before the rows after it are read.
    track = make_traj("t0", ObjectClass.VEHICLE, [0, 10], [(1.5, 2.0), (3.0, 2.0)])
    scene = SceneSpan("s0", "v0", 0, 10, False)
    rows = [_full_row(scene, track, p) for p in track.points]
    rows.insert(1, {**rows[0], **second})
    write_jsonl(tmp_path / "trajectories.jsonl", "trajectories",
                map(dumps_sorted, rows))
    with pytest.raises(MalformedRecord,
                       match="^line 3: .*scene 's0', object 't0'"):
        _read(tmp_path, [scene])


@pytest.mark.parametrize("shared", [False, True],
                         ids=["decoded", "reused"])
def test_track_rows_out_of_frame_order_are_malformed(tmp_path, shared):
    # A scene's rows of one object come in frame order, as `scene_lines`
    # writes them: a row of an earlier frame fails on its own line, also
    # when it reuses the point of the row before it for another scene.
    track = make_traj("t0", ObjectClass.VEHICLE, [0, 5], [(1.5, 2.0),
                                                          (3.0, 2.0)])
    scenes = [SceneSpan("s0", "v0", 0, 5, False),
              SceneSpan("s1", "v0", 0, 5, False)]
    p0, p1 = track.points
    late = scenes[shared]
    rows = [_full_row(late, track, p1), _full_row(scenes[0], track, p0)]
    if shared:
        rows.append(_full_row(late, track, p0))     # reuses the row before
    write_jsonl(tmp_path / "trajectories.jsonl", "trajectories",
                map(dumps_sorted, rows))
    with pytest.raises(MalformedRecord, match=f"^line {len(rows) + 1}: .*scene "
                       f"'{late.scene_id}', object 't0': frame 0 at t 0.0 "
                       "follows frame 5 at t 0.2"):
        _read(tmp_path, scenes)


def test_trajectory_row_with_a_number_for_object_id_is_malformed(tmp_path):
    # A scene whose object ids mix a string and a number could not be
    # sorted; the row fails on its own line instead.
    track = make_traj("t0", ObjectClass.VEHICLE, [0], [(1.5, 2.0)],
                      det_ids=["v0"])
    row = _full_row(SceneSpan("s0", "v0", 0, 0, False), track,
                    track.points[0])
    write_jsonl(tmp_path / "trajectories.jsonl", "trajectories",
                [dumps_sorted(row), dumps_sorted({**row, "object_id": 5})])
    with pytest.raises(MalformedRecord, match="^line 3: .*object_id"):
        _read(tmp_path, [SceneSpan("s0", "v0", 0, 0, False)])


def test_object_rows_disagreeing_on_class_are_malformed(tmp_path):
    # A track has one class; a row that gives its object another one in
    # the same scene fails on its own line instead of relabelling the track.
    track = make_traj("t0", ObjectClass.PEDESTRIAN, [0, 5], [(1.5, 2.0),
                                                             (1.5, 3.0)])
    scene = SceneSpan("s0", "v0", 0, 5, True)
    other_scene = SceneSpan("s1", "v0", 5, 5, True)
    first, second = (_full_row(scene, track, p) for p in track.points)
    write_jsonl(tmp_path / "trajectories.jsonl", "trajectories",
                [dumps_sorted(first),
                 dumps_sorted({**second, "class": "vehicle"})])
    with pytest.raises(MalformedRecord, match="^line 3: .*object 't0' of "
                       "scene 's0' is both pedestrian and vehicle"):
        _read(tmp_path, [scene, other_scene])
    # The same object may appear in another scene; each scene is read alone.
    other = _full_row(other_scene, track, track.points[1])
    write_jsonl(tmp_path / "trajectories.jsonl", "trajectories",
                [dumps_sorted(first), dumps_sorted(second),
                 dumps_sorted(other)])
    per_scene, _, _ = _read(tmp_path, [scene, other_scene])
    assert [len(per_scene[s][0]) for s in ("s0", "s1")] == [2, 1]


@pytest.mark.parametrize("late, problem", [
    ("s0", "belongs to a run of scenes whose rows ended earlier"),
    ("s9999", "is not listed in scenes.jsonl"),
], ids=["earlier_run", "unlisted_scene"])
def test_row_out_of_its_run_is_malformed(tmp_path, late, problem):
    # Runs are read one at a time: a row of a run whose rows ended, or of
    # a scene in no run, fails on its own line, whether it is decoded in
    # full or reuses the previous row's point.
    track = make_traj("t0", ObjectClass.VEHICLE, [0, 5, 10, 15],
                      [(1.5, 2.0), (3.0, 2.0), (4.5, 2.0), (6.0, 2.0)])
    scenes = [SceneSpan("s0", "v0", 0, 5, False),
              SceneSpan("s1", "v0", 10, 15, False)]
    p0, p1, p2, p3 = track.points
    rows = [_full_row(scenes[0], track, p0), _full_row(scenes[1], track, p2)]
    for tail in ([{**_full_row(scenes[1], track, p3), "scene_id": late}],
                 [_full_row(scenes[1], track, p3),
                  {**_full_row(scenes[1], track, p3), "scene_id": late}]):
        write_jsonl(tmp_path / "trajectories.jsonl", "trajectories",
                    map(dumps_sorted, rows + tail))
        with pytest.raises(MalformedRecord, match=f"^line {3 + len(tail)}: "
                           f".*scene '{late}' {problem}"):
            _read(tmp_path, scenes)


def _plain_rows(path):
    """A stage file's rows read with plain json, apart from the stage
    readers under test."""
    with open(path) as fh:
        fh.readline()
        return [json.loads(line) for line in fh]


def _tracked(tmp_path, **overrides):
    cfg = PipelineConfig(out_dir=tmp_path, seed=3, **overrides)
    run_synth(cfg)
    run_segment(cfg)
    run_track(cfg)
    return cfg.spot_dirs()


def test_each_scene_holds_each_detection_in_its_window_once(tmp_path):
    # The oracle is detections.jsonl: tracking a run of overlapping windows
    # once must still give every scene exactly the detections in its window.
    spot_dirs = _tracked(tmp_path)
    assert any(len(run) > 1 for d in spot_dirs
               for run in scene_runs(read_scenes(d)))
    for d in spot_dirs:
        detections = _plain_rows(d / "detections.jsonl")
        rows = _plain_rows(d / "trajectories.jsonl")
        for scene in _plain_rows(d / "scenes.jsonl"):
            lo, hi = scene["frame_start"], scene["frame_end"]
            want = Counter((r["frame"], r["id"]) for r in detections
                           if lo <= r["frame"] <= hi)
            got = Counter((r["frame"], r["det"]) for r in rows
                          if r["scene_id"] == scene["scene_id"])
            assert got == want, (d.name, scene["scene_id"])
            assert set(got.values()) == {1}


def test_windows_that_overlap_no_other_are_tracked_alone(tmp_path):
    # A run of one window is the window alone: its rows are those of the
    # tracker run on that window's detections, as per-scene tracking gave.
    (spot_dir,) = _tracked(tmp_path, corpus="bulk", bulk_scenes=12,
                           noise_sigma=1.0)
    spans = read_scenes(spot_dir)
    assert [len(run) for run in scene_runs(spans)] == [1] * len(spans)
    config = load_spot_config(spot_dir)
    records = load_detections(spot_dir, config)
    rows = []
    for span in spans:
        window = [r for r in records
                  if span.frame_start <= r.frame_index <= span.frame_end]
        for t in tracker.track_scene(window, TrackerParams(),
                                     config.build_calibration(),
                                     fps=config.fps,
                                     frame_stride=config.frame_skip):
            rows += [{"scene_id": span.scene_id, "object_id": t.object_id,
                      "class": t.object_class.value, "frame": p.frame,
                      "t": p.t, "raw_px": list(p.raw_px),
                      "smooth_px": list(p.smooth_px), "world": list(p.world),
                      "det": p.detection_id} for p in t.points]
    rows.sort(key=lambda r: (r["scene_id"], r["object_id"], r["frame"]))
    lines = (spot_dir / "trajectories.jsonl").read_text().splitlines()
    assert lines[1:] == [dumps_sorted(r) for r in rows]


def test_read_trajectories_holds_one_run_at_a_time(tmp_path):
    # Twelve runs of one window each: once the reader has yielded run k+1,
    # nothing is left holding the tracks of run k.
    (spot_dir,) = _tracked(tmp_path, corpus="bulk", bulk_scenes=12,
                           noise_sigma=1.0)
    spans = read_scenes(spot_dir)
    assert len(scene_runs(spans)) == 12
    refs = []
    for span, trajectories in read_trajectories(spot_dir, spans):
        assert trajectories, span.scene_id
        assert [r() for r in refs] == [None] * len(refs), span.scene_id
        refs += map(weakref.ref, trajectories)
    assert len(refs) >= 12


def test_truth_sidecar_holds_no_sampled_positions(tmp_path):
    cfg = PipelineConfig(out_dir=tmp_path, seed=3)
    run_synth(cfg)
    for d in cfg.spot_dirs():
        truth = json.loads((d / "truth.json").read_text())
        assert set(truth) == {"schema", "emitted_frames"}, d.name


def test_synth_runs_no_segmenter(tmp_path, monkeypatch):
    # Scene spans come from the segment stage alone, not from synth.
    def segmenting(*args, **kwargs):
        raise AssertionError("synth ran the segmenter")

    for module in (motion_gate, synth):
        monkeypatch.setattr(module, "segment_scenes", segmenting)
    for corpus in ("standard", "bulk"):
        cfg = PipelineConfig(out_dir=tmp_path / corpus, seed=3, corpus=corpus,
                             bulk_scenes=6)
        assert len(run_synth(cfg)) == len(cfg.spot_dirs())


def test_track_maps_the_runs_of_every_spot_at_once(tmp_path, monkeypatch):
    cfg = PipelineConfig(out_dir=tmp_path, corpus="bulk", bulk_scenes=6,
                         noise_sigma=1.0, workers=2)
    run_synth(cfg)
    second = tmp_path / "bulk2"
    second.mkdir()
    for name in ("config.json", "detections.jsonl"):
        (second / name).write_bytes((tmp_path / "bulk" / name).read_bytes())
    run_segment(cfg)
    calls = []
    map_jobs = stages._map_jobs

    def recording(fn, jobs, workers):
        jobs = list(jobs)
        calls.append((fn, len(jobs), workers))
        return map_jobs(fn, jobs, workers)

    monkeypatch.setattr(stages, "_map_jobs", recording)
    run_track(cfg)
    runs = [len(scene_runs(read_scenes(d))) for d in cfg.spot_dirs()]
    assert len(runs) == 2 and min(runs) > 0
    assert calls == [(stages._track_run_job, sum(runs), 2)]
    first, copy = ((d / "trajectories.jsonl").read_bytes()
                   for d in cfg.spot_dirs())
    assert first == copy


def test_pool_draws_a_bounded_number_of_jobs_before_the_first_result():
    drawn = []

    def jobs():
        for n in range(1000):
            drawn.append(n)
            yield -n

    results = stages._map_jobs(abs, jobs(), 2)
    assert next(results) == 0
    assert len(drawn) <= 2 * stages._CHUNKS_IN_FLIGHT * stages._MAX_CHUNK
    assert list(results) == list(range(1, 1000))


def test_track_holds_a_runs_tracks_not_the_text_of_its_lines(tmp_path):
    # Slow vehicles entering every 1.5 s across four lanes, as in busy
    # traffic: about eleven on the road at once, so the windows form one
    # long run and each point lies in about eleven scenes. The text of the
    # run's lines is then larger than everything the stage needs to hold.
    lanes = itertools.cycle((-3.5, -1.5, 1.5, 3.5))
    agents = tuple(synth.AgentScript(f"v{i:03d}", ObjectClass.VEHICLE, (
        (1.5 * i, -26.0, lane), (1.5 * i + 17.0, 26.0, lane)))
        for i, lane in zip(range(24), lanes))
    spec = synth.ScenarioSpec("busy", synth.synthetic_spot_config("busy"),
                              agents, noise_sigma=1.0, seed=5)
    records, _ = synth.generate(spec)
    spot_dir = tmp_path / "busy"
    spot_dir.mkdir()
    (spot_dir / "config.json").write_text(
        json.dumps(spot_config_to_dict(spec.config)))
    write_jsonl(spot_dir / "detections.jsonl", "detections",
                map(format_detection, records))
    cfg = PipelineConfig(out_dir=tmp_path)
    run_segment(cfg)
    assert len(scene_runs(read_scenes(spot_dir))) == 1
    tracemalloc.start()
    try:
        run_track(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (spot_dir / "trajectories.jsonl").stat().st_size


def test_extract_holds_no_line_of_a_finished_scene(tmp_path):
    # 800 sequential passes, each its own run: the features of the spot
    # are several times what extract needs to hold, which is the scene
    # index, one run's tracks and the scene being extracted.
    (spot_dir,) = _tracked(tmp_path, corpus="bulk", bulk_scenes=800,
                           noise_sigma=1.0)
    tracemalloc.start()
    try:
        run_extract(PipelineConfig(out_dir=tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (spot_dir / "features.jsonl").stat().st_size / 4


def test_features_rows_come_in_scene_runs_order(tmp_path, monkeypatch):
    # scenes.jsonl lists the windows last first, and their ids, numbered
    # in frame order, sort as text in another order (s10000 < s9997): the
    # rows follow the windows' frames, with any number of workers. Each
    # extract runs without run.json, so it measures every scene again.
    cfg = PipelineConfig(out_dir=tmp_path, seed=3, corpus="bulk",
                         bulk_scenes=6, noise_sigma=1.0)
    run_synth(cfg)
    run_segment(cfg)
    (spot_dir,) = cfg.spot_dirs()
    spans = sorted(read_scenes(spot_dir), key=lambda s: s.frame_start)
    ids = [f"s{9997 + k}" for k in range(len(spans))]
    assert len(ids) == 6 and sorted(ids) != ids
    write_jsonl(spot_dir / "scenes.jsonl", "scenes", [
        dumps_sorted(_span_record(replace(span, scene_id=i)))
        for span, i in reversed(list(zip(spans, ids)))])
    run_track(cfg)
    calls = []
    map_jobs = stages._map_jobs

    def recording(fn, jobs, workers):
        calls.append((fn, workers))
        return map_jobs(fn, jobs, workers)

    monkeypatch.setattr(stages, "_map_jobs", recording)
    files = []
    for workers in (1, 2):
        (tmp_path / "run.json").unlink()
        run_extract(replace(cfg, workers=workers))
        files.append((spot_dir / "features.jsonl").read_bytes())
    assert calls == [(stages._extract_scene_job, 1),
                     (stages._extract_scene_job, 2)]
    assert files[0] == files[1]
    rows = _plain_rows(spot_dir / "features.jsonl")
    assert [r["scene_id"] for r in rows] == ids


def test_analyze_holds_scene_summaries_not_feature_bundles(tmp_path):
    # Many scenes with long per-frame lists: the bundles of one spot take
    # several times what the analysis holds at its peak.
    speeds = [float(k % 40) for k in range(60)]
    rows = [dumps_sorted(features_to_record(replace(
        _bundle(scene_id=f"s{k:05d}", interactive=k % 2 == 1,
                speeds=speeds),
        vehicle_zones=[VehicleZone.BEFORE] * 61,
        crosswalk_distances_m=[float(k)] * 60,
        distances_m=[5.0] * 60, relative_positions=[FRONT] * 60)))
        for k in range(400)]
    spot_dir = tmp_path / "A"
    spot_dir.mkdir()
    (spot_dir / "config.json").write_text(
        json.dumps(spot_config_to_dict(synth.synthetic_spot_config("A"))))
    write_jsonl(spot_dir / "features.jsonl", "features", rows)
    del rows
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        bundles = read_jsonl(spot_dir / "features.jsonl", "features",
                             record_to_features)
        held, _ = tracemalloc.get_traced_memory()
        del bundles
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        run_analyze(PipelineConfig(out_dir=tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < (held - before) / 4
