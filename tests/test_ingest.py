import gc
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossrisk.errors import (
    DegenerateCalibration,
    MalformedRecord,
    MissingField,
    NonMonotoneFrame,
    OutOfBounds,
)
from crossrisk.ingest import (
    DetectionRecord,
    DetectionTable,
    ObjectClass,
    dumps_sorted,
    format_detection,
    parse_detections,
    parse_spot_config,
    spot_config_to_dict,
)
from crossrisk.stages import load_detections
from crossrisk.synth import synthetic_spot_config


@pytest.fixture
def config():
    return synthetic_spot_config()


def test_parse_single_line(config):
    line = '{"frame":0,"class":"vehicle","x":512.0,"y":400.0,"id":"d0"}'
    records = parse_detections([line], config)
    assert len(records) == 1
    rec = records[0]
    assert rec.frame_index == 0
    assert rec.object_class is ObjectClass.VEHICLE
    assert rec.contact_point_px == (512.0, 400.0)
    assert rec.detection_id == "d0"


def test_empty_stream(config):
    assert list(parse_detections([], config)) == []


def test_out_of_bounds_point(config):
    line = '{"frame":0,"class":"vehicle","x":2000.0,"y":100.0,"id":"d0"}'
    with pytest.raises(OutOfBounds):
        parse_detections([line], config)


@pytest.mark.parametrize("line", [
    "not json",
    '{"frame":0,"class":"vehicle","x":1.0,"id":"d0"}',       # missing y
    '{"frame":0,"class":"spaceship","x":1.0,"y":1.0,"id":"d0"}',
    '{"frame":-1,"class":"vehicle","x":1.0,"y":1.0,"id":"d0"}',
    '{"frame":"zero","class":"vehicle","x":1.0,"y":1.0,"id":"d0"}',
    '[1, 2, 3]',
    # A byte that is not UTF-8, as a file read with errors="surrogateescape"
    # gives it.
    pytest.param('{"frame":0,"class":"vehicle","x":1.0,"y":1.0,"id":"a\udcff"}',
                 id="not-utf8"),
    # Past the last frame an int64 column holds (a multiple of frame_skip).
    pytest.param('{"frame":%d,"class":"vehicle","x":1.0,"y":1.0,"id":"a"}'
                 % (2**63 + 2), id="frame-past-int64"),
    # Past the integer digit limit the decoder raises a plain ValueError.
    pytest.param(
        '{"frame":0,"class":"vehicle","x":1.0,"y":1.0,"id":%s}' % ("9" * 5000),
        id="integer-too-long",
        marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no integer digit limit")),
])
def test_malformed_lines(config, line):
    with pytest.raises(MalformedRecord, match="^line 1: "):
        parse_detections([line], config)


@pytest.mark.parametrize("line", [
    '{"frame":0,"class":"car","x":true,"y":5,"id":"a"}',
    '{"frame":0,"class":"car","x":5,"y":false,"id":"a"}',
])
def test_boolean_coordinate_is_malformed(config, line):
    with pytest.raises(MalformedRecord, match="x and y must be numbers"):
        parse_detections([line], config)


def test_non_monotone_frame(config):
    lines = ['{"frame":5,"class":"vehicle","x":500,"y":500,"id":"a"}',
             '{"frame":4,"class":"vehicle","x":500,"y":500,"id":"b"}']
    with pytest.raises(NonMonotoneFrame):
        parse_detections(lines, config)


def test_first_bad_line_raises_with_its_number(config):
    lines = [
        '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}',
        '{"frame":5,"class":"pedestrian","x":600,"y":600,"id":"b"}',
        '{"frame":5,"class":"vehicle","x":-5,"y":600,"id":"c"}',
        'garbage',
    ]
    with pytest.raises(OutOfBounds) as exc:
        parse_detections(lines, config)
    assert exc.value.line_number == 3
    assert str(exc.value).startswith("line 3: ")


@pytest.mark.parametrize("det_id", [
    "null", "true", "false", "[1]", '{"a": 1}', "5.5",
])
def test_id_that_is_no_string_or_integer_is_malformed(config, det_id):
    lines = ['{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}',
             f'{{"frame":5,"class":"vehicle","x":500,"y":500,"id":{det_id}}}']
    with pytest.raises(MalformedRecord,
                       match="^line 2: id must be a string or integer"):
        parse_detections(lines, config)


def test_integer_id_keeps_its_decimal_text(config):
    lines = ['{"frame":0,"class":"vehicle","x":500,"y":500,"id":7}',
             '{"frame":0,"class":"vehicle","x":600,"y":500,"id":-12}',
             '{"frame":5,"class":"vehicle","x":510,"y":500,"id":7}']
    assert [r.detection_id for r in parse_detections(lines, config)] \
        == ["7", "-12", "7"]


@pytest.mark.parametrize("first_id, second_class, second_id", [
    ('"a"', "vehicle", '"a"'),
    ('"a"', "pedestrian", '"a"'),
    ('"3"', "vehicle", "3"),      # an integer id is its decimal text
])
def test_id_repeated_within_a_frame_is_malformed(config, first_id,
                                                 second_class, second_id):
    lines = [
        '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}',
        f'{{"frame":5,"class":"vehicle","x":500,"y":500,"id":{first_id}}}',
        '{"frame":5,"class":"vehicle","x":550,"y":500,"id":"b"}',
        f'{{"frame":5,"class":"{second_class}","x":600,"y":500,'
        f'"id":{second_id}}}',
    ]
    with pytest.raises(MalformedRecord,
                       match="^line 4: id '[a3]' repeated in frame 5$"):
        parse_detections(lines, config)


def test_id_may_repeat_across_frames(config):
    lines = [f'{{"frame":{f},"class":"vehicle","x":500,"y":500,"id":"a"}}'
             for f in (0, 5, 10)]
    assert len(parse_detections(lines, config)) == 3


def test_frame_off_the_sampling_grid_is_malformed(config):
    # The tracker walks frames at the frame_skip stride (5 here), so a
    # detection at frame 27 would never be tracked: it is a bad line.
    lines = ['{"frame":25,"class":"vehicle","x":500,"y":500,"id":"a"}',
             '{"frame":27,"class":"vehicle","x":510,"y":500,"id":"a"}',
             '{"frame":30,"class":"vehicle","x":520,"y":500,"id":"a"}']
    with pytest.raises(MalformedRecord, match="frame 27 is not a multiple"):
        parse_detections(lines, config)


def test_header_line_is_skipped(config):
    lines = ['{"schema":"crossrisk/detections/v1"}',
             '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}']
    assert len(parse_detections(lines, config)) == 1


def test_first_detection_naming_schema_is_kept(config):
    # Only a line 1 that is exactly {"schema": <string>} is a header.
    lines = ['{"class": "vehicle", "frame": 0, "id": "schema", "x": 100.0, "y": 100.0}',
             '{"frame":5,"class":"vehicle","x":500,"y":500,"id":"a"}']
    assert [r.detection_id for r in parse_detections(lines, config)] \
        == ["schema", "a"]


@pytest.mark.parametrize("first", [
    '{"schema": 1}',
    '{"schema": "crossrisk/detections/v1", "frame": 0}',
    'not json but "schema"',
    '["schema"]',
])
def test_first_line_that_is_no_header_is_a_bad_line(config, first):
    lines = [first, '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}']
    with pytest.raises(MalformedRecord, match="^line 1: "):
        parse_detections(lines, config)


def test_confidence_field_ignored(config):
    line = '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a","confidence":0.97}'
    assert len(parse_detections([line], config)) == 1


def _stream_lines(n):
    """`n` detections, four a frame: three vehicles and a pedestrian."""
    return [dumps_sorted({"frame": 5 * (i // 4), "id": f"v{i % 4}",
                          "class": "pedestrian" if i % 4 == 0 else "vehicle",
                          "x": 1.5 + i % 1000, "y": 400.25})
            for i in range(n)]


def test_parsed_stream_holds_at_most_64_bytes_a_detection(config):
    """The stream is held as columns: 8 bytes each for the frame, x, y
    and the class and id references, each distinct id stored once."""
    lines = _stream_lines(20000)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        records = parse_detections(lines, config)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 20000
    assert (held - before) / len(records) <= 64


def test_table_reads_as_the_list_of_its_records(config):
    lines = _stream_lines(10)
    table = parse_detections(lines, config)
    records = [DetectionRecord(5 * (i // 4),
                               ObjectClass.PEDESTRIAN if i % 4 == 0
                               else ObjectClass.VEHICLE,
                               (1.5 + i, 400.25), f"v{i % 4}")
               for i in range(10)]
    assert isinstance(table, DetectionTable) and len(table) == 10
    assert list(table) == records
    assert [table[i] for i in range(-10, 10)] == records + records
    for cut in (slice(3, 7), slice(0, 0), slice(-2, None)):
        assert isinstance(table[cut], DetectionTable)
        assert list(table[cut]) == records[cut]
    assert list(pickle.loads(pickle.dumps(table[2:9]))) == records[2:9]
    with pytest.raises(IndexError):
        table[10]
    assert table.ids[1] is table.ids[5]    # one string per distinct id


def test_byte_not_utf8_in_a_detection_file_is_malformed(tmp_path, config):
    lines = _stream_lines(3)
    lines[1] = lines[1].replace('"v1"', '"v\u00e91"')   # UTF-8 past ASCII
    data = "\n".join(lines).encode().replace(b"v2", b"v\xff\xfe2")
    (tmp_path / "detections.jsonl").write_bytes(data)
    with pytest.raises(MalformedRecord) as exc:
        load_detections(tmp_path, config)
    assert str(exc.value) == (
        f"line 3: {tmp_path / 'detections.jsonl'}: not UTF-8 text")


def test_round_trip(config):
    lines = ['{"frame":0,"class":"vehicle","x":500.5,"y":400.25,"id":"a"}',
             '{"frame":5,"class":"pedestrian","x":610.0,"y":333.0,"id":"b"}']
    records = parse_detections(lines, config)
    again = parse_detections([format_detection(r) for r in records], config)
    assert list(again) == list(records)


# Ids with JSON escapes and non-ASCII text; floats JSON writes unusually,
# numpy's among them.
_tricky_text = st.text(st.sampled_from('"\\/\n\t\x00\x1faé漢😀'), max_size=5) \
    | st.text(max_size=5)
_tricky_floats = st.sampled_from([
    -0.0, 0.0, 5e-324, 2.2e-308, 1e308, -1e308, 1e16, 3.0, -7.0,
    float("nan"), float("inf"), float("-inf")]) | st.floats() \
    | st.integers(-2**53, 2**53).map(float) | st.floats().map(np.float64)


@given(st.integers(0, 10**9), st.sampled_from(ObjectClass), _tricky_floats,
       _tricky_floats, _tricky_text)
def test_format_detection_is_dumps_sorted_of_the_row(frame, cls, x, y, det):
    record = DetectionRecord(frame_index=frame, object_class=cls,
                             contact_point_px=(x, y), detection_id=det)
    assert format_detection(record) == dumps_sorted(
        {"frame": frame, "class": cls.value, "x": x, "y": y, "id": det})


def _calibration_doc():
    return [{"pixel": [0, 0], "world": [0, 0]},
            {"pixel": [100, 0], "world": [10, 0]},
            {"pixel": [100, 100], "world": [10, 10]},
            {"pixel": [0, 100], "world": [0, 10]}]


def _minimal_config_doc(**overrides):
    doc = {
        "spot_id": "X",
        "crosswalk_length_m": 8.0,
        "lanes": 2,
        "signalized": True,
        "school_zone": True,
        "speed_camera": False,
        "speed_limit_kmh": 30,
        "frame_size": [1280, 720],
        "fps": 11,
        "frame_skip": 5,
        "calibration": _calibration_doc(),
        "crosswalk_polygon_world": [[0, 0], [4, 0], [4, 10], [0, 10]],
        "sidewalk_polygons_world": [[[0, 10], [4, 10], [4, 12], [0, 12]]],
        "approach_direction_world": [1.0, 0.0],
    }
    doc.update(overrides)
    return doc


def test_spot_h_fields():
    # Spot H: a 2-lane signalized school-zone crosswalk filmed at 11 FPS
    # in 1280x720.
    config = parse_spot_config(_minimal_config_doc(spot_id="H"))
    assert config.fps == 11
    assert config.frame_size == (1280, 720)
    assert config.lanes == 2
    assert config.speed_limit_kmh == 30
    assert config.signalized and config.school_zone and not config.speed_camera


def test_spot_c_fields():
    # Spot C: ~20 m crosswalk, 4 lanes, unsignalized school zone, no camera.
    doc = _minimal_config_doc(spot_id="C", crosswalk_length_m=20.0, lanes=4,
                              signalized=False, frame_size=[1920, 1080], fps=25)
    config = parse_spot_config(doc)
    assert config.crosswalk_length_m == pytest.approx(20.0)
    assert config.lanes == 4
    assert not config.signalized
    assert config.school_zone and not config.speed_camera


def test_missing_fps_raises():
    doc = _minimal_config_doc()
    del doc["fps"]
    with pytest.raises(MissingField):
        parse_spot_config(doc)


def test_degenerate_calibration_rejected():
    bad = [{"pixel": [0, 0], "world": [0, 0]},
           {"pixel": [100, 0], "world": [5, 0]},
           {"pixel": [100, 100], "world": [10, 0]},   # collinear world points
           {"pixel": [0, 100], "world": [0, 10]}]
    with pytest.raises(DegenerateCalibration):
        parse_spot_config(_minimal_config_doc(calibration=bad))


def test_config_round_trip():
    config = parse_spot_config(_minimal_config_doc())
    assert parse_spot_config(spot_config_to_dict(config)) == config


@pytest.mark.parametrize("key, value, error", [
    ("fps", True, TypeError),
    ("fps", "25", TypeError),
    ("fps", 0, ValueError),
    ("fps", -11.0, ValueError),
    ("lanes", 2.7, TypeError),
    ("lanes", 2.0, TypeError),
    ("lanes", True, TypeError),
    ("lanes", 0, ValueError),
    ("frame_skip", 1.9, TypeError),
    ("frame_skip", 0, ValueError),
    ("frame_size", [1920.7, 1080], TypeError),
    ("frame_size", [1920, 0], ValueError),
    ("frame_size", [1920, 1080, 3], ValueError),
    ("crosswalk_length_m", False, TypeError),
    ("crosswalk_length_m", 0.0, ValueError),
    ("speed_limit_kmh", "30", TypeError),
    ("approach_direction_world", [True, 0.0], TypeError),
    ("calibration", [{"pixel": [0, True], "world": [0, 0]}]
     + _calibration_doc()[1:], TypeError),
    # A zero direction would put every vehicle point after the crosswalk.
    ("approach_direction_world", [0, -0.0], ValueError),
    ("approach_direction_world", [math.inf, 0.0], ValueError),
    ("approach_direction_world", [math.nan, 1.0], ValueError),
    ("crosswalk_polygon_world", [], ValueError),
    ("crosswalk_polygon_world", [[0, 0], [4, 0]], ValueError),
    # Coordinates are finite: a NaN pixel would reach the homography fit.
    ("calibration", [{"pixel": [math.nan, 0], "world": [0, 0]}]
     + _calibration_doc()[1:], ValueError),
    ("calibration", [{"pixel": [0, 0], "world": [0, math.inf]}]
     + _calibration_doc()[1:], ValueError),
    ("crosswalk_polygon_world", [[0, 0], [4, 0], [math.nan, 10]], ValueError),
    ("crosswalk_polygon_world", [[0, 0], [4, 0], [4, math.inf]], ValueError),
    ("sidewalk_polygons_world", [[[0, 10], [4, 10], [4, math.nan]]], ValueError),
    ("sidewalk_polygons_world", [[[0, 10], [-math.inf, 10], [4, 12]]],
     ValueError),
    ("sidewalk_polygons_world", [[[0, 10], [4, 10]]], ValueError),
    ("cia_buffer_m", math.nan, ValueError),
    ("cia_buffer_m", -3, ValueError),
    ("speed_limit_kmh", -30, ValueError),
    ("speed_limit_kmh", math.nan, ValueError),
    ("spot_id", None, TypeError),
    ("spot_id", 5, TypeError),
])
def test_spot_config_numbers_are_checked_not_coerced(key, value, error):
    with pytest.raises(error):
        parse_spot_config(_minimal_config_doc(**{key: value}))


def test_defaults_for_optional_fields():
    doc = _minimal_config_doc()
    del doc["frame_skip"]
    config = parse_spot_config(doc)
    assert config.frame_skip == 1
    assert config.cia_buffer_m == pytest.approx(3.0)
