import json
import logging
import math
import shutil
import sys

import pytest

from crossrisk.cli import main
from crossrisk.stages import SCHEMAS


def _run(*argv):
    return main(list(argv))


def _run_single_pass(stage, out_dir):
    """Run `stage` on the single_pass spot; report takes no --spot and
    renders every spot."""
    spot = () if stage == "report" else ("--spot", "single_pass")
    return _run(stage, "--out-dir", str(out_dir), *spot)


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("frobnicate")
    assert exc.value.code == 2


def test_missing_required_stage_file_is_data_error(tmp_path, capsys):
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    # segment not run yet: track must fail with a diagnostic, not crash.
    code = _run("track", "--out-dir", str(tmp_path), "--spot", "single_pass")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    diagnostic = json.loads(err)
    assert diagnostic["stage"] == "track"
    assert "error" in diagnostic and "message" in diagnostic


def test_missing_output_directory_is_an_io_failure(tmp_path, capsys):
    # An OSError outside any stage file still gets a diagnostic.
    missing = tmp_path / "missing"
    assert _run("segment", "--out-dir", str(missing)) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["error"] == "IoFailure"
    assert diagnostic["stage"] == "segment"
    assert str(missing) in diagnostic["message"]


@pytest.mark.parametrize("stage, rel", [
    ("extract", "single_pass/trajectories.jsonl"),
    ("report", "analysis.json"),
])
def test_truncated_stage_file_is_data_error(tmp_path, capsys, stage, rel):
    assert _run("all", "--out-dir", str(tmp_path), "--spot", "single_pass") == 0
    path = tmp_path / rel
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])
    capsys.readouterr()
    assert _run_single_pass(stage, tmp_path) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith(f"line {len(lines)}: ")


@pytest.mark.parametrize("stage, rel, line, text", [
    ("track", "single_pass/scenes.jsonl", 2, '{"scene_id": "s9"}'),
    ("extract", "single_pass/trajectories.jsonl", 2, '{"scene_id": "s9"}'),
    ("analyze", "single_pass/features.jsonl", 2, '{"scene_id": "s9"}'),
    ("track", "single_pass/scenes.jsonl", 1, "[1]"),
    ("report", "analysis.json", 1, "[1]"),
    ("report", "analysis.json", 1, json.dumps({"schema": SCHEMAS["analysis"]})),
    ("extract", "single_pass/trajectories.jsonl", 2, {"frame": "x"}),
    ("analyze", "single_pass/features.jsonl", 2, {"vehicle_speed_kmh": "abc"}),
    ("track", "single_pass/scenes.jsonl", 2, {"frame_start": "0"}),
    ("track", "single_pass/scenes.jsonl", 2, {"frame_start": "0",
                                               "frame_end": "9"}),
    ("track", "single_pass/scenes.jsonl", 2, {"frame_end": True}),
    ("track", "single_pass/scenes.jsonl", 2, {"frame_end": 0.0}),
    ("track", "single_pass/scenes.jsonl", 2, {"interactive": 1}),
    ("track", "single_pass/scenes.jsonl", 2, {"scene_id": 7}),
    ("track", "single_pass/scenes.jsonl", 2, {"vehicle": None}),
    ("analyze", "single_pass/features.jsonl", 2, {"interactive": "false"}),
    ("analyze", "single_pass/features.jsonl", 2,
     {"pedestrian_in_crossing_area": "no"}),
    ("analyze", "single_pass/features.jsonl", 2,
     {"car_stop_before_crosswalk": "STOP"}),
    ("analyze", "single_pass/features.jsonl", 2, {"psm_seconds_refined": "x"}),
    ("analyze", "single_pass/features.jsonl", 2, {"frame_start": "0"}),
    ("analyze", "single_pass/features.jsonl", 2,
     {"pedestrians": {"p": {"speed_kmh": []}}}),
    ("analyze", "single_pass/features.jsonl", 2,
     {"pedestrians": {"p": {"position_list": []}}}),
    ("extract", "single_pass/trajectories.jsonl", 2, {"det": 5}),
    ("extract", "single_pass/trajectories.jsonl", 2, {"det": None}),
    ("extract", "single_pass/trajectories.jsonl", 2, {"raw_px": "ab"}),
    ("extract", "single_pass/trajectories.jsonl", 2, {"world": [1.5]}),
])
def test_misshapen_stage_row_is_data_error(tmp_path, capsys, stage, rel, line,
                                           text):
    # Valid JSON of the wrong shape: a row without its fields, a header or
    # an analysis record that is not an object, a record without its tables,
    # or (`text` a dict of fields to overwrite) a row with a value of the
    # wrong type where a later stage sorts, sums or counts it: a string for
    # a flag would read as True, a stop text other than "stop" as no stop.
    # Each pedestrian holds both its speeds and its zones.
    assert _run("all", "--out-dir", str(tmp_path), "--spot", "single_pass") == 0
    path = tmp_path / rel
    lines = path.read_text().splitlines(keepends=True)
    if isinstance(text, dict):
        text = json.dumps({**json.loads(lines[line - 1]), **text})
    lines[line - 1] = text + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert _run_single_pass(stage, tmp_path) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith(f"line {line}: ")


@pytest.mark.parametrize("stage, rel", [
    ("segment", "single_pass/detections.jsonl"),
    ("extract", "single_pass/trajectories.jsonl"),
])
def test_byte_not_utf8_in_a_stage_file_is_data_error(tmp_path, capsys, stage,
                                                     rel):
    # 0xff 0xfe inside a quoted value on line 3: a diagnostic naming the
    # line, not a UnicodeDecodeError.
    assert _run("all", "--out-dir", str(tmp_path), "--spot", "single_pass") == 0
    path = tmp_path / rel
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"v0"', b'"v0\xff\xfe"')
    assert b"\xff" in lines[2]
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert _run_single_pass(stage, tmp_path) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith("line 3: ")
    assert diagnostic["message"].endswith("not UTF-8 text")


def test_repeated_trajectory_point_is_data_error(tmp_path, capsys):
    # A row given twice would divide a speed by zero; the other cases are
    # in test_stages.test_repeated_point_in_a_scene_is_malformed.
    assert _run("all", "--out-dir", str(tmp_path), "--spot", "single_pass") == 0
    path = tmp_path / "single_pass" / "trajectories.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    third = json.loads(lines[2])
    lines.insert(3, lines[2])
    path.write_text("".join(lines))
    capsys.readouterr()
    assert _run("extract", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith(
        f"line 4: {path}: scene {third['scene_id']!r}, object "
        f"{third['object_id']!r}: ")


def test_trajectory_row_of_an_unlisted_scene_is_data_error(tmp_path, capsys):
    # Rows left from an earlier segmentation name scenes that scenes.jsonl
    # no longer lists; extract fails on the first of them instead of
    # dropping them.
    assert _run("all", "--out-dir", str(tmp_path), "--spot", "single_pass") == 0
    path = tmp_path / "single_pass" / "trajectories.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines.append(json.dumps({**json.loads(lines[1]), "scene_id": "s9999"})
                 + "\n")
    path.write_text("".join(lines))
    capsys.readouterr()
    assert _run("extract", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith(
        f"line {len(lines)}: {path}: scene 's9999' is not listed")


def _fail_track_on_a_bad_line(tmp_path, capsys, drop_scenes_entry):
    """Put a bad detection line near the end and check that the failed
    track leaves no part it wrote for extract to read as a spot with no
    tracks. With the scenes' `run.json` entry, track refuses the stale
    scenes and parses the detections before any write; without it, track
    reads the detections while it writes the spot's trajectories and fails
    midway."""
    assert _run("all", "--out-dir", str(tmp_path), "--corpus", "bulk",
                "--scenes", "20", "--noise-sigma", "1.0", "--seed", "3") == 0
    path = tmp_path / "bulk" / "detections.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[-3] = "{bad json\n"
    path.write_text("".join(lines))
    if drop_scenes_entry:
        record_path = tmp_path / "run.json"
        record = json.loads(record_path.read_text())
        del record["spots"]["bulk"]["scenes.jsonl"]
        record_path.write_text(json.dumps(record))
    capsys.readouterr()
    assert _run("track", "--out-dir", str(tmp_path)) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert sorted(p.name for p in path.parent.iterdir()) == [
        "config.json", "detections.jsonl", "features.jsonl", "scenes.jsonl",
        "truth.json"]
    assert _run("extract", "--out-dir", str(tmp_path)) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "IoFailure"
    assert "trajectories.jsonl" in diagnostic["message"]


def test_failed_stage_leaves_no_file_for_the_next(tmp_path, capsys):
    _fail_track_on_a_bad_line(tmp_path, capsys, drop_scenes_entry=False)


def test_stage_failed_inside_its_write_leaves_no_file_for_the_next(
        tmp_path, capsys):
    _fail_track_on_a_bad_line(tmp_path, capsys, drop_scenes_entry=True)


def _move_detections(spot_dir):
    path = spot_dir / "detections.jsonl"
    header, *rows = path.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in [header, *(
        json.dumps({**r, "x": r["x"] + 15}) for r in map(json.loads, rows))]))
    return path


def _mark_speed_camera(spot_dir):
    path = spot_dir / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                "speed_camera": True}))
    return path


@pytest.mark.parametrize("edit", [_move_detections, _mark_speed_camera])
def test_tracks_made_from_changed_spot_files_are_stale(tmp_path, capsys, edit):
    # Every detection moved 15 px, or the config edited, and segment run
    # again but not track: extract must not take the old tracks for the
    # new ones.
    out = ("--out-dir", str(tmp_path), "--spot", "near_miss")
    assert _run("all", *out) == 0
    changed = edit(tmp_path / "near_miss")
    assert _run("segment", *out) == 0
    capsys.readouterr()
    assert _run("extract", *out) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "StaleInput"
    assert diagnostic["message"].startswith(f"{changed} has changed since")
    assert _run("track", *out) == 0
    assert _run("extract", *out) == 0


def _cut_detections(spot_dir):
    """Drop the spot's detections after frame 155, within its scene."""
    path = spot_dir / "detections.jsonl"
    header, *rows = path.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in [header, *(
        r for r in rows if json.loads(r)["frame"] <= 155)]))
    return path


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("edit", [_cut_detections, _move_detections,
                                  _mark_speed_camera])
def test_scenes_made_from_changed_spot_files_are_stale(tmp_path, capsys,
                                                       edit, workers):
    # The detections cut or moved, or the config edited, and segment not
    # run again: track must not take the old scenes for the new ones.
    out = ("--out-dir", str(tmp_path), "--spot", "near_miss")
    assert _run("all", *out, "--seed", "3") == 0
    changed = edit(tmp_path / "near_miss")
    capsys.readouterr()
    assert _run("track", *out, "--workers", workers) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "StaleInput"
    assert diagnostic["message"].startswith(
        f"{changed} has changed since segment read it")
    # The refusal removed the spot's tracks, at any worker count.
    assert _run("extract", *out) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "IoFailure"
    for stage in ("segment", "track", "extract"):
        assert _run(stage, *out) == 0


@pytest.mark.parametrize("document, problem", [
    ('{"features": {"alpha": 0.2}}', "features.alpha is set by --alpha"),
    ('{"tracker": {"gate": 3}}', "unknown key tracker.gate"),
    ('{"tracker": ', "Expecting value"),
    ('{"tracker": {"gate_threshold_vehicle": -1}}', "gate thresholds must be > 0"),
    ('{"speed_reduce": "median"}', "'speed_reduce' is not a tracker or features object"),
    ('{"tracker": {"assignment": "optimal"}}', "unknown key tracker.assignment"),
    ('{"tracker": {"max_coast_frames": "3"}}', "max_coast_frames must be an integer"),
    ('{"tracker": {"max_coast_frames": -1}}', "max_coast_frames must be >= 0"),
    ('{"tracker": {"process_noise": "1"}}', "process_noise must be a number"),
    ('{"tracker": {"measurement_noise": -2}}', "measurement_noise must be > 0"),
    ('{"tracker": {"process_noise": 0, "measurement_noise": 0}}',
     "measurement_noise must be > 0"),
    ('{"tracker": {"use_prediction": "no"}}', "use_prediction must be true or false"),
    ('{"tracker": {"gate_threshold_vehicle": true}}',
     "gate_threshold_vehicle must be a number"),
    ('{"features": {"stop_min_steps": "3"}}', "stop_min_steps must be an integer"),
    ('{"features": {"stop_min_steps": 0}}', "stop_min_steps must be >= 1"),
    ('{"features": {"stop_tolerance_kmh": null}}', "stop_tolerance_kmh must be a number"),
])
def test_bad_config_file_is_usage_error(tmp_path, capsys, document, problem):
    # `all` reads both sections, so each document fails on its own problem.
    config = tmp_path / "params.json"
    config.write_text(document)
    with pytest.raises(SystemExit) as exc:
        _run("all", "--out-dir", str(tmp_path), "--config", str(config))
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("crossrisk: error: ") and problem in err


@pytest.mark.parametrize("stage, section", [("track", "features"),
                                            ("extract", "tracker")])
def test_config_section_the_stage_does_not_read_is_usage_error(
        tmp_path, capsys, stage, section):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"tracker": {"max_coast_frames": 5},
                                  "features": {"stop_tolerance_kmh": 3.0}}))
    with pytest.raises(SystemExit) as exc:
        _run(stage, "--out-dir", str(tmp_path), "--config", str(config))
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.endswith(f"{stage} does not read {section!r}")


@pytest.mark.parametrize("argv", [
    ["report", "--alpha", "0.9"],
    ["report", "--seed", "7"],
    ["report", "--workers", "3"],
    ["report", "--epsilon-kmh", "5"],
    ["segment", "--config", "/nonexistent"],
    ["segment", "--workers", "2"],
    ["synth", "--spot", "single_pass"],
    ["track", "--alpha", "0.5"],
    ["track", "--seed", "3"],
    ["extract", "--baseline-m", "5"],
    ["analyze", "--workers", "2"],
    ["analyze", "--config", "params.json"],
], ids=" ".join)
def test_flag_the_stage_does_not_read_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--out-dir", str(tmp_path))
    assert exc.value.code == 2
    flag = argv[1]
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--noise-sigma", "-1"],
    ["--noise-sigma", "nan"],
    ["--noise-sigma", "inf"],
    ["--drop-probability", "1.5"],
    ["--drop-probability", "1"],
    ["--drop-probability", "-0.5"],
    ["--corpus", "bulk", "--scenes", "-3"],
    ["--corpus", "bulk", "--scenes", "0"],
    ["--workers", "0"],
], ids=" ".join)
def test_flag_value_out_of_range_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run("all", "--out-dir", str(tmp_path), *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    field = {"--noise-sigma": "noise_sigma", "--drop-probability":
             "drop_probability", "--scenes": "bulk_scenes",
             "--workers": "workers"}[argv[-2]]
    assert err.startswith(f"crossrisk: error: {field} must be ")
    assert not any(tmp_path.iterdir())


def test_all_takes_every_stage_flag(tmp_path):
    from crossrisk.cli import build_parser, config_from_args
    args = build_parser().parse_args([
        "all", "--out-dir", str(tmp_path), "--seed", "4", "--corpus", "bulk",
        "--scenes", "12", "--noise-sigma", "1.5", "--drop-probability", "0.1",
        "--spot", "bulk", "--workers", "2", "--alpha", "0.5",
        "--epsilon-kmh", "1.0", "--baseline-m", "12.0", "-v"])
    cfg = config_from_args(args)
    assert (cfg.out_dir, cfg.seed, cfg.corpus, cfg.bulk_scenes,
            cfg.noise_sigma, cfg.drop_probability, cfg.spot, cfg.workers,
            cfg.baseline_m, cfg.features.alpha, cfg.features.epsilon_kmh) == (
        tmp_path, 4, "bulk", 12, 1.5, 0.1, "bulk", 2, 12.0, 0.5, 1.0)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length")
def test_integer_too_long_to_convert_is_data_error(tmp_path, capsys):
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    path = tmp_path / "single_pass" / "detections.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), "id": 0}).replace(
        '"id": 0', '"id": ' + "9" * 5000) + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith(f"line 3: {path}: invalid JSON")


@pytest.mark.parametrize("edit", ["repeat", "null", "float"])
def test_bad_detection_id_is_data_error(tmp_path, capsys, edit):
    # A detection repeated within its frame, or an id that is neither a
    # string nor an integer, stops segment at that line.
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    path = tmp_path / "single_pass" / "detections.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    if edit == "repeat":
        lines.insert(3, lines[2])
    else:
        row = json.loads(lines[2])
        row["id"] = None if edit == "null" else 5.5
        lines[2] = json.dumps(row) + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    line = 4 if edit == "repeat" else 3
    assert diagnostic["message"].startswith(f"line {line}: {path}: id ")


@pytest.mark.parametrize("key, value", [
    (None, None),                                  # the file cut mid-object
    ("calibration", [{"world": [0.0, 0.0]}]),      # an entry without "pixel"
    ("fps", "fast"),
    ("lanes", None),
    ("signalized", "false"),
    # A NaN pixel, which the homography fit cannot use.
    ("calibration", [{"pixel": [math.nan, 1000.0], "world": [-30.0, -11.0]},
                     {"pixel": [1780.0, 1000.0], "world": [30.0, -11.0]},
                     {"pixel": [1280.0, 260.0], "world": [30.0, 11.0]},
                     {"pixel": [640.0, 260.0], "world": [-30.0, 11.0]}]),
])
def test_bad_spot_config_is_data_error(tmp_path, capsys, key, value):
    assert _run("synth", "--out-dir", str(tmp_path), "--seed", "3") == 0
    path = tmp_path / "single_pass" / "config.json"
    text = path.read_text()
    if key is None:
        text = text[:len(text) // 2]
    else:
        text = json.dumps({**json.loads(text), key: value})
    path.write_text(text)
    capsys.readouterr()
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert f"{path}: " in diagnostic["message"]


def test_bad_detection_line_names_its_file(tmp_path, capsys):
    # Track reads every spot's detections: the diagnostic says whose.
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "3") == 0
    path = tmp_path / "near_miss" / "detections.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[92] = "{bad json\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    assert _run("track", "--out-dir", str(tmp_path)) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "MalformedRecord"
    assert diagnostic["message"].startswith(f"line 93: {path}: invalid JSON")


# Five correspondences whose pixels lie on one line: no homography fits.
_COLLINEAR_PIXELS = [
    {"pixel": [100.0 + 300.0 * k, 500.0], "world": world}
    for k, world in enumerate([[-30.0, -11.0], [30.0, -11.0], [30.0, 11.0],
                               [-30.0, 11.0], [0.0, 0.0]])]


@pytest.mark.parametrize("key, value, error, message", [
    ("fps", None, "MissingField", "spot config missing required field 'fps'"),
    ("calibration", _COLLINEAR_PIXELS, "DegenerateCalibration",
     "correspondences are rank deficient"),
])
def test_unusable_spot_config_names_its_file(tmp_path, capsys, key, value,
                                             error, message):
    # Segment refuses the config when it loads it, as every stage does,
    # and says which spot's config it is.
    assert _run("synth", "--out-dir", str(tmp_path), "--seed", "3") == 0
    path = tmp_path / "single_pass" / "config.json"
    doc = json.loads(path.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == error
    assert diagnostic["message"] == f"{path}: {message}"
    assert not (path.parent / "scenes.jsonl").exists()


def test_two_spot_directories_of_one_spot_id_are_data_error(tmp_path, capsys):
    # Their scenes would merge into one spot's rows and PSM samples.
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "3") == 0
    shutil.copytree(tmp_path / "near_miss", tmp_path / "near_miss_b")
    capsys.readouterr()
    assert _run("analyze", "--out-dir", str(tmp_path)) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["error"] == "PipelineError"
    assert str(tmp_path / "near_miss") in diagnostic["message"]
    assert str(tmp_path / "near_miss_b") in diagnostic["message"]


def test_stage_files_are_self_describing(tmp_path):
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    assert _run("segment", "--out-dir", str(tmp_path)) == 0
    spot = tmp_path / "single_pass"
    with open(spot / "detections.jsonl") as fh:
        first = fh.readline()
    assert json.loads(first)["schema"] == SCHEMAS["detections"]
    with open(spot / "scenes.jsonl") as fh:
        first = fh.readline()
    assert json.loads(first)["schema"] == SCHEMAS["scenes"]


def test_all_produces_reports(tmp_path):
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "7") == 0
    report = tmp_path / "report"
    for name in ("speed_stats.csv", "scene_counts.csv",
                 "stopping_percentage.csv", "psm_weights.csv"):
        assert (report / name).exists(), name
    header = (report / "speed_stats.csv").read_text().splitlines()[0]
    assert header == ("spot,max_kmh,min_kmh,mean_kmh,"
                      "car_only_mean_kmh,interactive_mean_kmh")
    assert (tmp_path / "analysis.json").exists()


def test_scene_whose_vehicle_never_moved_is_skipped(tmp_path, caplog):
    # near_miss's vehicle is detected standing still at one pixel while the
    # pedestrian crosses: the scene has no vehicle heading, so extract skips
    # it and goes on.
    caplog.set_level(logging.INFO, logger="crossrisk.stages")
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    path = tmp_path / "near_miss" / "detections.jsonl"
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    vehicle = [r for r in rows if r["class"] == "vehicle"]
    for r in vehicle:
        r.update(x=vehicle[0]["x"], y=vehicle[0]["y"])
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *rows]))
    for stage in ("segment", "track", "extract", "analyze", "report"):
        assert _run(stage, "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "report" / "speed_stats.csv").exists()
    assert "and 1 whose vehicle never moved" in caplog.text


def test_car_only_scene_whose_vehicle_never_moved_is_skipped(tmp_path,
                                                             caplog):
    # single_pass's only scene is car-only: standing still at one pixel,
    # its vehicle has no heading either, so extract skips it as it skips
    # an interactive one, and writes no row of zero speeds.
    caplog.set_level(logging.INFO, logger="crossrisk.stages")
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    path = tmp_path / "single_pass" / "detections.jsonl"
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    for r in rows:
        r.update(x=rows[0]["x"], y=rows[0]["y"])
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *rows]))
    for stage in ("segment", "track", "extract"):
        assert _run(stage, "--out-dir", str(tmp_path),
                    "--spot", "single_pass") == 0
    assert "spot single_pass: 1 scenes (1 car-only, 0 interactive)" in \
        caplog.text
    assert "and 1 whose vehicle never moved" in caplog.text
    features = tmp_path / "single_pass" / "features.jsonl"
    assert features.read_text().splitlines()[1:] == []


def test_scene_without_a_vehicle_track_is_skipped(tmp_path, caplog):
    # A window that ends before near_miss's vehicle arrives holds only the
    # pedestrian: it has no vehicle track, so extract skips it and goes on.
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "3") == 0
    spot = tmp_path / "near_miss"
    vehicle_frames = [r["frame"] for r in map(
        json.loads, (spot / "detections.jsonl").read_text().splitlines()[1:])
        if r["class"] == "vehicle"]
    (scene,) = map(json.loads,
                   (spot / "scenes.jsonl").read_text().splitlines()[1:])
    with open(spot / "scenes.jsonl", "a") as fh:
        fh.write(json.dumps({**scene, "scene_id": "s0001", "frame_start": 0,
                             "frame_end": min(vehicle_frames) - 5}) + "\n")
    # No stage wrote these scenes, so analyze would refuse features made
    # from them under segment's record; without one every stage runs.
    (tmp_path / "run.json").unlink()
    caplog.set_level(logging.INFO, logger="crossrisk.stages")
    for stage in ("track", "extract", "analyze", "report"):
        assert _run(stage, "--out-dir", str(tmp_path)) == 0
    assert ("spot near_miss: read" in caplog.text
            and "skipped 1 with no vehicle track" in caplog.text)
    rows = (spot / "features.jsonl").read_text().splitlines()[1:]
    assert [json.loads(r)["scene_id"] for r in rows] == [scene["scene_id"]]


def test_spot_filter_restricts_stages(tmp_path):
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 0
    assert (tmp_path / "single_pass" / "scenes.jsonl").exists()
    assert not (tmp_path / "near_miss" / "scenes.jsonl").exists()


def test_stage_rerun_in_isolation_is_stable(tmp_path, caplog):
    # Segment skips a spot whose scenes are current, so the file goes
    # first: the stage must write it again, to the same bytes and record.
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "3") == 0
    path = tmp_path / "near_miss" / "scenes.jsonl"
    scenes = path.read_bytes()
    record = (tmp_path / "run.json").read_bytes()
    path.unlink()
    caplog.set_level(logging.INFO, logger="crossrisk.stages")
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "near_miss") == 0
    assert "spot near_miss: 1 scenes (" in caplog.text
    assert path.read_bytes() == scenes
    assert (tmp_path / "run.json").read_bytes() == record


def test_report_rerenders_from_analysis_json_alone(tmp_path):
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "3") == 0
    report = tmp_path / "report"
    first = {p.name: p.read_bytes() for p in report.iterdir()}
    assert {"psm_ranges.csv", "stopping_by_psm_range.csv"} <= set(first)
    for p in report.iterdir():
        p.unlink()
    report.rmdir()
    assert _run("report", "--out-dir", str(tmp_path)) == 0
    assert {p.name: p.read_bytes() for p in report.iterdir()} == first


def test_rerun_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _run("all", "--out-dir", str(a), "--seed", "11") == 0
    assert _run("all", "--out-dir", str(b), "--seed", "11") == 0
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_config_file_overrides_parameters(tmp_path):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({
        "tracker": {"gate_threshold_vehicle": 45.0, "max_coast_frames": 5},
        "features": {"stop_tolerance_kmh": 3.0},
    }))
    from crossrisk.cli import build_parser, config_from_args
    args = build_parser().parse_args(
        ["all", "--out-dir", str(tmp_path), "--config", str(config)])
    cfg = config_from_args(args)
    assert cfg.tracker.gate_threshold_vehicle == 45.0
    assert cfg.tracker.max_coast_frames == 5
    assert cfg.features.stop_tolerance_kmh == 3.0
    assert cfg.features.alpha == 0.3          # CLI default still applies
