import json

import pytest

from crossrisk.errors import (
    DegenerateCalibration,
    MalformedRecord,
    MissingField,
    NonMonotoneFrame,
    OutOfBounds,
)
from crossrisk.ingest import (
    ObjectClass,
    format_detection,
    parse_detections,
    parse_spot_config,
    spot_config_to_dict,
)
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
    assert parse_detections([], config) == []


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
])
def test_malformed_lines(config, line):
    with pytest.raises(MalformedRecord):
        parse_detections([line], config)


def test_non_monotone_frame(config):
    lines = ['{"frame":5,"class":"vehicle","x":500,"y":500,"id":"a"}',
             '{"frame":4,"class":"vehicle","x":500,"y":500,"id":"b"}']
    with pytest.raises(NonMonotoneFrame):
        parse_detections(lines, config)


def test_every_line_yields_a_record_or_a_diagnostic(config):
    lines = [
        '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}',
        'garbage',
        '{"frame":1,"class":"pedestrian","x":600,"y":600,"id":"b"}',
        '{"frame":1,"class":"vehicle","x":-5,"y":600,"id":"c"}',
        '{"frame":2,"class":"vehicle","x":500,"y":500,"id":"d"}',
    ]
    diagnostics = []
    records = parse_detections(lines, config, diagnostics=diagnostics)
    assert len(records) + len(diagnostics) == len(lines)
    assert [d.line_number for d in diagnostics] == [2, 4]
    assert [r.detection_id for r in records] == ["a", "b", "d"]


def test_header_line_is_skipped(config):
    lines = ['{"schema":"crossrisk/detections/v1"}',
             '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a"}']
    assert len(parse_detections(lines, config)) == 1


def test_confidence_field_ignored(config):
    line = '{"frame":0,"class":"vehicle","x":500,"y":500,"id":"a","confidence":0.97}'
    assert len(parse_detections([line], config)) == 1


def test_round_trip(config):
    lines = ['{"frame":0,"class":"vehicle","x":500.5,"y":400.25,"id":"a"}',
             '{"frame":5,"class":"pedestrian","x":610.0,"y":333.0,"id":"b"}']
    records = parse_detections(lines, config)
    again = parse_detections([format_detection(r) for r in records], config)
    assert again == records


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
    config = parse_spot_config(json.dumps(_minimal_config_doc(spot_id="H")))
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


def test_defaults_for_optional_fields():
    doc = _minimal_config_doc()
    del doc["frame_skip"]
    config = parse_spot_config(doc)
    assert config.frame_skip == 1
    assert config.cia_buffer_m == pytest.approx(3.0)
