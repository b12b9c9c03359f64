import json
import logging
from pathlib import Path

import pytest

from crossrisk.cli import main
from crossrisk.stages import SCHEMAS


def _run(*argv):
    return main(list(argv))


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


def test_stage_files_are_self_describing(tmp_path):
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    assert _run("segment", "--out-dir", str(tmp_path)) == 0
    spot = tmp_path / "single_pass"
    first = (spot / "detections.jsonl").open().readline()
    assert json.loads(first)["schema"] == SCHEMAS["detections"]
    first = (spot / "scenes.jsonl").open().readline()
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
    # With 30% of detections dropped on seed 2, one scene keeps too little
    # of its vehicle for a heading; extract skips it and goes on.
    caplog.set_level(logging.INFO, logger="crossrisk.stages")
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "2",
                "--drop-probability", "0.3") == 0
    assert (tmp_path / "report" / "speed_stats.csv").exists()
    assert "and 1 whose vehicle never moved" in caplog.text


def test_spot_filter_restricts_stages(tmp_path):
    assert _run("synth", "--out-dir", str(tmp_path)) == 0
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "single_pass") == 0
    assert (tmp_path / "single_pass" / "scenes.jsonl").exists()
    assert not (tmp_path / "near_miss" / "scenes.jsonl").exists()


def test_stage_rerun_in_isolation_is_stable(tmp_path):
    assert _run("all", "--out-dir", str(tmp_path), "--seed", "3") == 0
    scenes = (tmp_path / "near_miss" / "scenes.jsonl").read_bytes()
    assert _run("segment", "--out-dir", str(tmp_path),
                "--spot", "near_miss") == 0
    assert (tmp_path / "near_miss" / "scenes.jsonl").read_bytes() == scenes


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
        ["track", "--out-dir", str(tmp_path), "--config", str(config)])
    cfg = config_from_args(args)
    assert cfg.tracker.gate_threshold_vehicle == 45.0
    assert cfg.tracker.max_coast_frames == 5
    assert cfg.features.stop_tolerance_kmh == 3.0
    assert cfg.features.alpha == 0.3          # CLI default still applies
